package vote

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"partialtor/internal/relay"
	"partialtor/internal/sig"
)

func testDoc(t *testing.T, authority, relays int, padding int) *Document {
	t.Helper()
	return seedDocs(authority+1, relays, 1, padding)[authority]
}

// docKind is a document kind the parser tests walk: a kind's document from
// seedDocs' population (a vote of the last of the authorities, or their
// consensus), and its parser.
type docKind struct {
	name  string
	build func(authorities, relays int, seed int64) document
	parse func([]byte) (document, error)
}

var voteKind = docKind{"vote", func(a, relays int, seed int64) document {
	return seedDocs(a, relays, seed, DefaultEntryPadding)[a-1]
}, func(b []byte) (document, error) { return Parse(b) }}

var consensusKind = docKind{"consensus", func(a, relays int, seed int64) document {
	c, _ := Aggregate(seedDocs(a, relays, seed, DefaultEntryPadding), 9)
	return c
}, func(b []byte) (document, error) { return ParseConsensus(b) }}

// parsesBack reports whether doc's encoding parses back to doc, field for
// field, and seals to its size and digest: a client can verify authority
// signatures over the digest of what it parsed. A parsed document lists a
// roster of its own, so the two are compared relay by relay (fields).
func parsesBack(parse func([]byte) (document, error), doc document) bool {
	got, err := parse(doc.Encode())
	if err != nil {
		return false
	}
	return reflect.DeepEqual(fields(got), fields(doc))
}

// fields is what a document says, whatever roster it lists: its header, its
// relays materialised, and its seal.
func fields(doc document) any {
	type sealed struct {
		Size   int64
		Digest sig.Digest
	}
	seal := sealed{doc.EncodedSize(), doc.Digest()}
	switch d := doc.(type) {
	case *Document:
		head := *d
		head.Relays, head.memo, head.size, head.digest = View{}, nil, 0, sig.Digest{}
		return []any{head, relaysOf(d.Relays), seal}
	case *Consensus:
		return []any{flatten(d), seal}
	}
	panic("unknown document kind")
}

// checkRoundTrip parses back k's documents of 3 authorities over 50 relays
// and of 5 authorities over 80 relays.
func checkRoundTrip(t *testing.T, k docKind) {
	t.Helper()
	for _, size := range [][2]int{{3, 50}, {5, 80}} {
		if doc := k.build(size[0], size[1], 21); !parsesBack(k.parse, doc) {
			t.Fatalf("%s of %d authorities and %d relays does not parse back", k.name, size[0], size[1])
		}
	}
}

func TestEncodeParseRoundTrip(t *testing.T)    { checkRoundTrip(t, voteKind) }
func TestConsensusParseRoundTrip(t *testing.T) { checkRoundTrip(t, consensusKind) }

// checkQuick parses back k's documents over generated authority counts,
// relay counts and seeds.
func checkQuick(t *testing.T, k docKind) {
	t.Helper()
	f := func(auth uint8, n uint8, seed int64) bool {
		return parsesBack(k.parse, k.build(int(auth)%9+1, int(n)%60+1, seed))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeParseQuick(t *testing.T)    { checkQuick(t, voteKind) }
func TestConsensusParseQuick(t *testing.T) { checkQuick(t, consensusKind) }

func TestEntryPaddingCalibration(t *testing.T) {
	const n = 400
	d := testDoc(t, 0, n, DefaultEntryPadding)
	perRelay := float64(d.EncodedSize()) / float64(len(d.Relays.Listings))
	if perRelay < DefaultEntryPadding-10 || perRelay > DefaultEntryPadding+60 {
		t.Fatalf("per-relay size %.1f, want ≈%d", perRelay, DefaultEntryPadding)
	}
	// Without padding the document is much smaller.
	nd := testDoc(t, 0, n, 0)
	if nd.EncodedSize() >= d.EncodedSize()/4 {
		t.Fatalf("unpadded size %d not ≪ padded %d", nd.EncodedSize(), d.EncodedSize())
	}
}

func TestDocumentSizeLinearInRelays(t *testing.T) {
	small := testDoc(t, 0, 100, DefaultEntryPadding)
	big := testDoc(t, 0, 1000, DefaultEntryPadding)
	ratio := float64(big.EncodedSize()) / float64(small.EncodedSize())
	wantRatio := float64(len(big.Relays.Listings)) / float64(len(small.Relays.Listings))
	if ratio < wantRatio*0.95 || ratio > wantRatio*1.05 {
		t.Fatalf("size ratio %.2f, want ≈%.2f (linear growth)", ratio, wantRatio)
	}
}

func TestDigestChangesWithContent(t *testing.T) {
	a := testDoc(t, 0, 20, DefaultEntryPadding)
	b := testDoc(t, 0, 20, DefaultEntryPadding)
	if a.Digest() != b.Digest() {
		t.Fatal("identical documents hash differently")
	}
	c := testDoc(t, 0, 21, DefaultEntryPadding)
	if a.Digest() == c.Digest() {
		t.Fatal("different documents hash equal")
	}
}

// TestDigestBindsTheEncoding: a vote's digest hashes its natural rendering,
// not the padded bytes Encode renders, and must still tell encodings apart.
// Across paddings, two votes' digests are equal exactly when their encodings
// are, for votes of different authorities, a vote built twice, one relay's
// bandwidth edited, and the same vote at another EntryPadding (at -1, 0 and
// 50 every entry renders alike, so only the header's entry-padding line
// separates them). A vote parsed back from its encoding seals to the same
// digest and size.
func TestDigestBindsTheEncoding(t *testing.T) {
	type vote struct {
		what string
		d    *Document
		enc  []byte
	}
	var votes []vote
	for _, padding := range []int{-1, 0, 50, DefaultEntryPadding, 12000} {
		docs := seedDocs(2, 40, 1, padding)
		again := seedDocs(1, 40, 1, padding)[0]
		edited := seedDocs(1, 40, 1, padding)[0]
		relays := relaysOf(edited.Relays)
		relays[7].Bandwidth++
		edited.Relays = oneVote(relays)
		for i, d := range []*Document{docs[0], docs[1], again, edited} {
			what := fmt.Sprintf("padding %d: %s", padding, []string{"authority 0", "authority 1", "authority 0 built again", "authority 0 edited"}[i])
			votes = append(votes, vote{what, d, d.Encode()})
		}
	}
	equal := 0
	for i, a := range votes {
		for _, b := range votes[i+1:] {
			sameDigest, sameBytes := a.d.Digest() == b.d.Digest(), bytes.Equal(a.enc, b.enc)
			if sameDigest != sameBytes {
				t.Errorf("%s and %s: equal digests %v, equal encodings %v", a.what, b.what, sameDigest, sameBytes)
			}
			if sameBytes {
				equal++
			}
		}
		parsed, err := Parse(a.enc)
		if err != nil {
			t.Fatalf("%s: %v", a.what, err)
		}
		if parsed.Digest() != a.d.Digest() || parsed.EncodedSize() != a.d.EncodedSize() {
			t.Errorf("%s: parsed back, sealed to %s and %d bytes, want %s and %d",
				a.what, parsed.Digest().Short(), parsed.EncodedSize(), a.d.Digest().Short(), a.d.EncodedSize())
		}
	}
	if equal != 5 {
		t.Errorf("%d pairs of equal encodings, want the 5 votes built twice", equal)
	}
}

// TestSealMatchesRendering: the size a document seals is the length of the
// bytes Encode renders and its digest the hash of their natural rendering
// (sealMatchesRendering), sealed first or encoded first. For a vote: empty or
// large, at no, negative, short and default padding and past the filler's
// 5 000 bytes, and parsed. For a consensus: aggregated from populations of 0,
// 1, 300 and 3 000 relays, and parsed.
func TestSealMatchesRendering(t *testing.T) {
	// check is given two unsealed copies of one document.
	check := func(what string, sealed, encoded document) {
		t.Helper()
		sealMatchesRendering(t, what+", sealed first", sealed)
		encoded.Encode()
		sealMatchesRendering(t, what+", encoded first", encoded)
	}
	for _, relays := range []int{0, 1, 300, 3000} {
		for _, padding := range []int{-1, 0, DefaultEntryPadding, 50, 12000} {
			d := seedDocs(1, relays, 1, padding)[0]
			check(fmt.Sprintf("relays=%d padding=%d", relays, padding), unsealed(d), unsealed(d))
		}
	}
	parsed, err := Parse(seedDocs(1, 300, 1, 50)[0].Encode())
	if err != nil {
		t.Fatal(err)
	}
	check("parsed", unsealed(parsed), unsealed(parsed))

	var c *Consensus
	for _, relays := range []int{0, 1, 300, 3000} {
		if c, err = Aggregate(seedDocs(9, relays, 1, DefaultEntryPadding), 9); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("consensus of %d relays (%d listed)", relays, len(c.Relays)), unsealedConsensus(c), unsealedConsensus(c))
	}
	if c, err = ParseConsensus(c.Encode()); err != nil {
		t.Fatal(err)
	}
	check("parsed consensus", unsealedConsensus(c), unsealedConsensus(c))
}

// repadded is a 4-relay vote's natural encoding, declaring entry-padding p
// instead of 0.
func repadded(p string) []byte {
	enc := seedDocs(1, 4, 1, 0)[0].Encode()
	return bytes.Replace(enc, []byte("entry-padding 0\n"), []byte("entry-padding "+p+"\n"), 1)
}

// rejectsAll checks that parse rejects every one of docs.
func rejectsAll(t *testing.T, parse func([]byte) (document, error), docs ...[]byte) {
	t.Helper()
	for _, doc := range docs {
		if _, err := parse(doc); err == nil {
			t.Errorf("accepted %q", doc)
		}
	}
}

// TestParseRejectsGarbage: a vote rejects a consensus status line, an entry
// line before any relay, a missing footer, unknown keywords and a padding
// past MaxEntryPadding (4 × 2⁶² would wrap its padded size to 0).
func TestParseRejectsGarbage(t *testing.T) {
	if _, err := Parse(repadded(fmt.Sprint(MaxEntryPadding))); err != nil {
		t.Fatalf("Parse rejected entry-padding MaxEntryPadding: %v", err)
	}
	rejectsAll(t, voteKind.parse,
		nil,
		[]byte("network-status-version 4\ndirectory-footer\n"),
		[]byte("bogus-line x\ndirectory-footer\n"),
		[]byte("network-status-version 3\nvote-status vote\n"), // missing footer
		[]byte("s Running\ndirectory-footer\n"),                // flags before relay
		bytes.Replace(repadded("0"), []byte("vote-status vote"), []byte("vote-status consensus"), 1),
		repadded(fmt.Sprint(MaxEntryPadding+1)),
		repadded("4611686018427387904"),
	)
}

// TestConsensusParseRejectsGarbage: a consensus rejects a vote status line,
// an unreadable num-votes, a missing footer, an entry line before any relay
// and a bandwidth line that is not one Bandwidth= item.
func TestConsensusParseRejectsGarbage(t *testing.T) {
	rejectsAll(t, consensusKind.parse,
		nil,
		[]byte("network-status-version 3\nvote-status vote\ndirectory-footer\n"),
		[]byte("num-votes five of 9\ndirectory-footer\n"),
		[]byte("network-status-version 3\nvote-status consensus\n"), // missing footer
		[]byte("s Running\ndirectory-footer\n"),
		[]byte("w Measured=5\ndirectory-footer\n"),
	)
}

// relayOf is the roster relay of c's i-th entry.
func relayOf(c *Consensus, i int) *relay.Descriptor { return &c.roster.relays[c.Relays[i].Index] }

// mkRelay builds a descriptor with a small identity tag for aggregation
// tests.
func mkRelay(tag byte, mut func(*relay.Descriptor)) relay.Descriptor {
	d := relay.Descriptor{
		Nickname:   "base",
		Address:    "10.0.0.1",
		ORPort:     9001,
		DirPort:    9030,
		Flags:      relay.FlagRunning | relay.FlagValid,
		Version:    "0.4.8.10",
		Protocols:  "Cons=1-2",
		Bandwidth:  100,
		ExitPolicy: "reject 1-65535",
	}
	d.Identity[0] = tag
	d.Digest[0] = tag
	if mut != nil {
		mut(&d)
	}
	return d
}

// mkVote wraps descriptors in a vote from the given authority, listing a
// roster of its own, as a parsed vote does.
func mkVote(authority int, relays ...relay.Descriptor) *Document {
	keys := sig.NewKeyPair(9, authority)
	d := NewDocument(authority, relay.AuthorityNames[authority], keys.Fingerprint, 1, oneVote(relays))
	d.EntryPadding = 0
	return d
}

func TestAggregateInclusionThreshold(t *testing.T) {
	// 5 votes: threshold = ⌊5/2⌋ = 2 appearances.
	votes := []*Document{
		mkVote(0, mkRelay(1, nil), mkRelay(2, nil)),
		mkVote(1, mkRelay(1, nil)),
		mkVote(2, mkRelay(3, nil)),
		mkVote(3),
		mkVote(4),
	}
	c, err := Aggregate(votes, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Relays) != 1 || relayOf(c, 0).Identity[0] != 1 {
		t.Fatalf("relays=%v, want only relay 1 (listed twice)", c.Relays)
	}
}

func TestAggregateNameFromLargestAuthorityID(t *testing.T) {
	votes := []*Document{
		mkVote(3, mkRelay(1, func(d *relay.Descriptor) { d.Nickname = "fromThree" })),
		mkVote(7, mkRelay(1, func(d *relay.Descriptor) { d.Nickname = "fromSeven" })),
		mkVote(5, mkRelay(1, func(d *relay.Descriptor) { d.Nickname = "fromFive" })),
		mkVote(0),
	}
	c, err := Aggregate(votes, 9)
	if err != nil {
		t.Fatal(err)
	}
	if relayOf(c, 0).Nickname != "fromSeven" {
		t.Fatalf("nickname=%q, want fromSeven (largest authority ID)", relayOf(c, 0).Nickname)
	}
}

func TestAggregateFlagTieUnset(t *testing.T) {
	// 4 votes list the relay: 2 with Guard, 2 without -> tie -> unset.
	// 3 of 4 with Fast -> set.
	votes := []*Document{
		mkVote(0, mkRelay(1, func(d *relay.Descriptor) { d.Flags |= relay.FlagGuard | relay.FlagFast })),
		mkVote(1, mkRelay(1, func(d *relay.Descriptor) { d.Flags |= relay.FlagGuard | relay.FlagFast })),
		mkVote(2, mkRelay(1, func(d *relay.Descriptor) { d.Flags |= relay.FlagFast })),
		mkVote(3, mkRelay(1, nil)),
	}
	c, err := Aggregate(votes, 9)
	if err != nil {
		t.Fatal(err)
	}
	got := c.Relays[0].Flags
	if got.Has(relay.FlagGuard) {
		t.Fatal("Guard set despite 2-2 tie")
	}
	if !got.Has(relay.FlagFast) {
		t.Fatal("Fast unset despite 3-1 majority")
	}
	if !got.Has(relay.FlagRunning | relay.FlagValid) {
		t.Fatal("unanimous flags lost")
	}
}

func TestAggregateVersionPopularThenLargest(t *testing.T) {
	// Popular vote: two votes say 0.4.8.9, one says 0.4.9.1 -> 0.4.8.9 wins.
	votes := []*Document{
		mkVote(0, mkRelay(1, func(d *relay.Descriptor) { d.Version = "0.4.8.9" })),
		mkVote(1, mkRelay(1, func(d *relay.Descriptor) { d.Version = "0.4.8.9" })),
		mkVote(2, mkRelay(1, func(d *relay.Descriptor) { d.Version = "0.4.9.1" })),
	}
	c, _ := Aggregate(votes, 9)
	if relayOf(c, 0).Version != "0.4.8.9" {
		t.Fatalf("version=%s, want popular 0.4.8.9", relayOf(c, 0).Version)
	}
	// Tie: one vote each -> largest version wins.
	votes = []*Document{
		mkVote(0, mkRelay(1, func(d *relay.Descriptor) { d.Version = "0.4.8.9" })),
		mkVote(1, mkRelay(1, func(d *relay.Descriptor) { d.Version = "0.4.9.1" })),
	}
	c, _ = Aggregate(votes, 9)
	if relayOf(c, 0).Version != "0.4.9.1" {
		t.Fatalf("version=%s, want largest 0.4.9.1 on tie", relayOf(c, 0).Version)
	}
}

func TestAggregateExitPolicyLexicographicTie(t *testing.T) {
	votes := []*Document{
		mkVote(0, mkRelay(1, func(d *relay.Descriptor) { d.ExitPolicy = "accept 443" })),
		mkVote(1, mkRelay(1, func(d *relay.Descriptor) { d.ExitPolicy = "accept 80,443" })),
	}
	c, _ := Aggregate(votes, 9)
	if relayOf(c, 0).ExitPolicy != "accept 80,443" {
		t.Fatalf("policy=%q, want lexicographically larger", relayOf(c, 0).ExitPolicy)
	}
}

func TestAggregateBandwidthMedian(t *testing.T) {
	mk := func(auth int, measured uint64) *Document {
		return mkVote(auth, mkRelay(1, func(d *relay.Descriptor) {
			d.HasMeasured = true
			d.Measured = measured
		}))
	}
	// Odd count: median of {10, 50, 900} = 50.
	c, _ := Aggregate([]*Document{mk(0, 50), mk(1, 900), mk(2, 10)}, 9)
	if c.Relays[0].Bandwidth != 50 {
		t.Fatalf("bandwidth=%d, want 50", c.Relays[0].Bandwidth)
	}
	// Even count: low median of {10, 20, 30, 40} = 20.
	c, _ = Aggregate([]*Document{mk(0, 10), mk(1, 20), mk(2, 30), mk(3, 40)}, 9)
	if c.Relays[0].Bandwidth != 20 {
		t.Fatalf("bandwidth=%d, want low median 20", c.Relays[0].Bandwidth)
	}
	// Unmeasured votes don't count when any vote measured.
	noMeas := mkVote(4, mkRelay(1, func(d *relay.Descriptor) { d.Bandwidth = 99999 }))
	c, _ = Aggregate([]*Document{mk(0, 10), mk(1, 30), noMeas}, 9)
	if c.Relays[0].Bandwidth != 10 {
		t.Fatalf("bandwidth=%d, want 10 (low median of measured)", c.Relays[0].Bandwidth)
	}
	// All unmeasured: fall back to advertised.
	c, _ = Aggregate([]*Document{
		mkVote(0, mkRelay(1, func(d *relay.Descriptor) { d.Bandwidth = 7 })),
		mkVote(1, mkRelay(1, func(d *relay.Descriptor) { d.Bandwidth = 9 })),
	}, 9)
	if c.Relays[0].Bandwidth != 7 {
		t.Fatalf("bandwidth=%d, want 7 (low median of advertised)", c.Relays[0].Bandwidth)
	}
}

func TestAggregateOrderIndependent(t *testing.T) {
	docs := seedDocs(5, 120, 5, DefaultEntryPadding)
	base, err := Aggregate(docs, 9)
	if err != nil {
		t.Fatal(err)
	}
	perm := []*Document{docs[3], docs[0], docs[4], docs[2], docs[1]}
	other, err := Aggregate(perm, 9)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(base.Encode(), other.Encode()) {
		t.Fatal("aggregation depends on vote order")
	}
	if base.Digest() != other.Digest() {
		t.Fatal("digest depends on vote order")
	}
}

func TestAggregateQuickPermutationInvariance(t *testing.T) {
	docs := seedDocs(4, 40, 11, DefaultEntryPadding)
	want, err := Aggregate(docs, 9)
	if err != nil {
		t.Fatal(err)
	}
	f := func(p0, p1, p2, p3 uint8) bool {
		perm := append([]*Document{}, docs...)
		swaps := []uint8{p0, p1, p2, p3}
		for i, s := range swaps {
			j := int(s) % len(perm)
			perm[i], perm[j] = perm[j], perm[i]
		}
		got, err := Aggregate(perm, 9)
		return err == nil && got.Digest() == want.Digest()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestAggregateBandwidthWithinRange(t *testing.T) {
	// Property: the aggregated bandwidth is one of the inputs (a median).
	f := func(vals []uint16) bool {
		if len(vals) == 0 {
			return true
		}
		docs := make([]*Document, 0, len(vals))
		inSet := map[uint64]bool{}
		for i, v := range vals {
			if i >= 8 {
				break
			}
			m := uint64(v) + 1
			inSet[m] = true
			docs = append(docs, mkVote(i, mkRelay(1, func(d *relay.Descriptor) {
				d.HasMeasured = true
				d.Measured = m
			})))
		}
		c, err := Aggregate(docs, 9)
		if err != nil || len(c.Relays) != 1 {
			return false
		}
		return inSet[c.Relays[0].Bandwidth]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestAggregateErrors(t *testing.T) {
	if _, err := Aggregate(nil, 9); err == nil {
		t.Fatal("zero votes accepted")
	}
	dup := []*Document{mkVote(1, mkRelay(1, nil)), mkVote(1, mkRelay(2, nil))}
	if _, err := Aggregate(dup, 9); err == nil {
		t.Fatal("duplicate authority accepted")
	}
	if _, err := Aggregate([]*Document{nil}, 9); err == nil {
		t.Fatal("nil vote accepted")
	}
}

// TestAggregatorSharesPerVoteSet: through the memo Share links, one sealed
// document per distinct vote set, whatever order the set arrives in and
// however many goroutines ask at once; a mixed set resolves to one memo; an
// unlinked set is aggregated afresh; and a set Aggregate rejects gets
// Aggregate's own error every time and is not stored.
func TestAggregatorSharesPerVoteSet(t *testing.T) {
	docs := make([]*Document, 5)
	for a := range docs {
		docs[a] = mkVote(a, mkRelay(1, nil))
	}
	// Relay 3 makes the ⌊5/2⌋ threshold through authorities 2 and 3; the
	// equivocator's second vote does not list it.
	docs[2], docs[3] = mkVote(2, mkRelay(1, nil), mkRelay(3, nil)), mkVote(3, mkRelay(1, nil), mkRelay(3, nil))
	alt := mkVote(2, mkRelay(1, nil))
	Share(docs)
	Share([]*Document{alt})
	sets := func(d *Document) int { return len(d.memo.sets) }

	shared := make([]*Consensus, 8)
	var wg sync.WaitGroup
	for g := range shared {
		wg.Add(1)
		go func() {
			defer wg.Done()
			shared[g], _ = AggregateShared(docs, 9)
		}()
	}
	wg.Wait()
	base := shared[0]
	if base == nil || base.size == 0 {
		t.Fatal("the shared document is missing or was handed out unsealed")
	}
	pure, _ := Aggregate(docs, 9)
	if base.Digest() != pure.Digest() || string(base.Encode()) != string(pure.Encode()) {
		t.Fatal("the shared document differs from Aggregate's")
	}
	for g, c := range shared {
		if c != base {
			t.Fatalf("goroutine %d got its own document", g)
		}
	}
	for _, perm := range [][]int{{3, 0, 4, 2, 1}, {4, 3, 2, 1, 0}, {0, 1, 2, 3, 4}} {
		in := make([]*Document, len(perm))
		for i, j := range perm {
			in[i] = docs[j]
		}
		if c, err := AggregateShared(in, 9); err != nil || c != base {
			t.Fatalf("order %v: got %p, %v; want the shared document %p", perm, c, err, base)
		}
	}
	if sets(docs[0]) != 1 {
		t.Fatalf("%d entries for one vote set", sets(docs[0]))
	}

	// The mixed set lives in the memo of its smallest linked authority,
	// docs[0]'s, in whatever order it arrives.
	swapped := []*Document{docs[0], docs[1], alt, docs[3], docs[4]}
	other, err := AggregateShared(swapped, 9)
	if err != nil || other == base || other.Digest() == base.Digest() {
		t.Fatalf("an alternate vote from authority 2 got the first set's document (err %v)", err)
	}
	if c, _ := AggregateShared([]*Document{alt, docs[4], docs[3], docs[1], docs[0]}, 9); c != other {
		t.Fatal("the mixed set in another order got another document")
	}
	if sets(alt) != 0 {
		t.Fatalf("the alternate vote's own memo holds %d entries, want the mixed set in docs[0]'s", sets(alt))
	}
	if c, _ := AggregateShared(docs[:4], 9); c == base || c == other {
		t.Fatal("a subset of the votes got another set's document")
	}
	if c, _ := AggregateShared(docs, 7); c == base {
		t.Fatal("another authority count got the first set's document")
	}
	if sets(docs[0]) != 4 {
		t.Fatalf("%d entries for four distinct vote sets", sets(docs[0]))
	}

	// Votes Share never linked (parsed ones here) are aggregated afresh.
	parsed := make([]*Document, len(docs))
	for i, d := range docs {
		if parsed[i], err = Parse(d.Encode()); err != nil {
			t.Fatal(err)
		}
	}
	if c, err := AggregateShared(parsed, 9); err != nil || c == base || c.Digest() != base.Digest() {
		t.Fatalf("an unlinked vote set got %p, %v; want a fresh copy of the shared document", c, err)
	}

	// Rejected sets: Aggregate's own error text, every time, nothing stored —
	// not even when the set minus its nil vote is already on record.
	for name, bad := range map[string][]*Document{
		"empty":     {},
		"nil slice": nil,
		"nil vote":  {docs[0], docs[1], docs[2], docs[3], docs[4], nil},
		"only nil":  {nil},
		"duplicate": {docs[0], docs[1], docs[1]},
	} {
		_, want := Aggregate(bad, 9)
		for try := 1; try <= 2; try++ {
			if c, err := AggregateShared(bad, 9); c != nil || err == nil || err.Error() != want.Error() {
				t.Errorf("%s, try %d: got %v, %v; want nil and %q", name, try, c, err, want)
			}
		}
	}
	if sets(docs[0]) != 4 {
		t.Fatalf("a rejected vote set was stored: %d entries", sets(docs[0]))
	}
}

func TestConsensusEncodeStable(t *testing.T) {
	votes := []*Document{
		mkVote(0, mkRelay(1, nil), mkRelay(2, nil)),
		mkVote(1, mkRelay(1, nil), mkRelay(2, nil)),
	}
	c, err := Aggregate(votes, 9)
	if err != nil {
		t.Fatal(err)
	}
	enc := string(c.Encode())
	if !strings.Contains(enc, "vote-status consensus") {
		t.Fatalf("missing consensus marker:\n%s", enc)
	}
	if !strings.Contains(enc, "num-votes 2 of 9") {
		t.Fatalf("missing vote count:\n%s", enc)
	}
	if c.EncodedSize() == 0 || c.Digest().IsZero() {
		t.Fatal("empty encoding or digest")
	}
}
