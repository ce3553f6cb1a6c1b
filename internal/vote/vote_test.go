package vote

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"partialtor/internal/relay"
	"partialtor/internal/sig"
)

func testDoc(t *testing.T, authority, relays int, padding int) *Document {
	t.Helper()
	keys := sig.NewKeyPair(1, authority)
	view := relay.View(relay.Population(relays, 1), authority, 1)
	d := NewDocument(authority, relay.AuthorityNames[authority], keys.Fingerprint, 42, view)
	d.EntryPadding = padding
	return d
}

func TestEncodeParseRoundTrip(t *testing.T) {
	d := testDoc(t, 2, 50, DefaultEntryPadding)
	parsed, err := Parse(d.Encode())
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if parsed.AuthorityIndex != d.AuthorityIndex || parsed.AuthorityName != d.AuthorityName ||
		parsed.Fingerprint != d.Fingerprint || parsed.ValidAfter != d.ValidAfter ||
		parsed.EntryPadding != d.EntryPadding {
		t.Fatalf("header mismatch: %+v", parsed)
	}
	if len(parsed.Relays) != len(d.Relays) {
		t.Fatalf("relay count %d, want %d", len(parsed.Relays), len(d.Relays))
	}
	for i := range d.Relays {
		if parsed.Relays[i] != d.Relays[i] {
			t.Fatalf("relay %d mismatch:\n got %+v\nwant %+v", i, parsed.Relays[i], d.Relays[i])
		}
	}
}

func TestEncodeParseQuick(t *testing.T) {
	f := func(auth uint8, n uint8, seed int64) bool {
		a := int(auth) % 9
		view := relay.View(relay.Population(int(n%40)+1, seed), a, seed)
		keys := sig.NewKeyPair(seed, a)
		d := NewDocument(a, relay.AuthorityNames[a], keys.Fingerprint, 7, view)
		parsed, err := Parse(d.Encode())
		if err != nil || len(parsed.Relays) != len(d.Relays) {
			return false
		}
		for i := range d.Relays {
			if parsed.Relays[i] != d.Relays[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestEntryPaddingCalibration(t *testing.T) {
	const n = 400
	d := testDoc(t, 0, n, DefaultEntryPadding)
	perRelay := float64(d.EncodedSize()) / float64(len(d.Relays))
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
	wantRatio := float64(len(big.Relays)) / float64(len(small.Relays))
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

// TestSealMatchesRendering: the size and digest a vote seals are those of the
// bytes Encode renders, sealed first or encoded first, empty or large, at no,
// negative, short and default padding and past the filler's 5 000 bytes, and
// for a parsed vote.
func TestSealMatchesRendering(t *testing.T) {
	check := func(what string, d *Document) {
		t.Helper()
		sealed := unsealed(d)
		digestIsHashOfEncoding(t, what+", sealed first", sealed.Digest, sealed.EncodedSize, sealed.Encode)
		encoded := unsealed(d)
		encoded.Encode()
		digestIsHashOfEncoding(t, what+", encoded first", encoded.Digest, encoded.EncodedSize, encoded.Encode)
	}
	for _, relays := range []int{0, 1, 300, 3000} {
		for _, padding := range []int{-1, 0, DefaultEntryPadding, 50, 12000} {
			check(fmt.Sprintf("relays=%d padding=%d", relays, padding), seedDocs(1, relays, 1, padding)[0])
		}
	}
	parsed, err := Parse(seedDocs(1, 300, 1, 50)[0].Encode())
	if err != nil {
		t.Fatal(err)
	}
	check("parsed", parsed)
}

func TestParseRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"network-status-version 4\ndirectory-footer\n",
		"bogus-line x\ndirectory-footer\n",
		"network-status-version 3\nvote-status vote\n", // missing footer
		"s Running\ndirectory-footer\n",                // flags before relay
	}
	for _, c := range cases {
		if _, err := Parse([]byte(c)); err == nil {
			t.Fatalf("Parse accepted %q", c)
		}
	}
}

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

// mkVote wraps descriptors in a vote from the given authority.
func mkVote(authority int, relays ...relay.Descriptor) *Document {
	keys := sig.NewKeyPair(9, authority)
	d := NewDocument(authority, relay.AuthorityNames[authority], keys.Fingerprint, 1, relays)
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
	if len(c.Relays) != 1 || c.Relays[0].Identity[0] != 1 {
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
	if c.Relays[0].Nickname != "fromSeven" {
		t.Fatalf("nickname=%q, want fromSeven (largest authority ID)", c.Relays[0].Nickname)
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
	if c.Relays[0].Version != "0.4.8.9" {
		t.Fatalf("version=%s, want popular 0.4.8.9", c.Relays[0].Version)
	}
	// Tie: one vote each -> largest version wins.
	votes = []*Document{
		mkVote(0, mkRelay(1, func(d *relay.Descriptor) { d.Version = "0.4.8.9" })),
		mkVote(1, mkRelay(1, func(d *relay.Descriptor) { d.Version = "0.4.9.1" })),
	}
	c, _ = Aggregate(votes, 9)
	if c.Relays[0].Version != "0.4.9.1" {
		t.Fatalf("version=%s, want largest 0.4.9.1 on tie", c.Relays[0].Version)
	}
}

func TestAggregateExitPolicyLexicographicTie(t *testing.T) {
	votes := []*Document{
		mkVote(0, mkRelay(1, func(d *relay.Descriptor) { d.ExitPolicy = "accept 443" })),
		mkVote(1, mkRelay(1, func(d *relay.Descriptor) { d.ExitPolicy = "accept 80,443" })),
	}
	c, _ := Aggregate(votes, 9)
	if c.Relays[0].ExitPolicy != "accept 80,443" {
		t.Fatalf("policy=%q, want lexicographically larger", c.Relays[0].ExitPolicy)
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
	pop := relay.Population(120, 5)
	docs := make([]*Document, 5)
	for a := range docs {
		view := relay.View(pop, a, 5)
		keys := sig.NewKeyPair(5, a)
		docs[a] = NewDocument(a, relay.AuthorityNames[a], keys.Fingerprint, 1, view)
	}
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
	pop := relay.Population(40, 11)
	docs := make([]*Document, 4)
	for a := range docs {
		view := relay.View(pop, a, 11)
		keys := sig.NewKeyPair(11, a)
		docs[a] = NewDocument(a, relay.AuthorityNames[a], keys.Fingerprint, 1, view)
	}
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

// TestAggregatorSharesPerVoteSet: one document per distinct vote set,
// whatever order the set arrives in, and nothing at all for a set Aggregate
// rejects.
func TestAggregatorSharesPerVoteSet(t *testing.T) {
	docs := make([]*Document, 5)
	for a := range docs {
		docs[a] = mkVote(a, mkRelay(1, nil))
	}
	// Relay 3 makes the ⌊5/2⌋ threshold through authorities 2 and 3; the
	// equivocator's second vote does not list it.
	docs[2], docs[3] = mkVote(2, mkRelay(1, nil), mkRelay(3, nil)), mkVote(3, mkRelay(1, nil), mkRelay(3, nil))
	alt := mkVote(2, mkRelay(1, nil))
	agg := Aggregator{}
	base, err := agg.Aggregate(docs, 9)
	if err != nil {
		t.Fatal(err)
	}
	pure, _ := Aggregate(docs, 9)
	if base.Digest() != pure.Digest() {
		t.Fatal("the aggregator's document differs from Aggregate's")
	}
	for _, perm := range [][]int{{3, 0, 4, 2, 1}, {4, 3, 2, 1, 0}, {0, 1, 2, 3, 4}} {
		in := make([]*Document, len(perm))
		for i, j := range perm {
			in[i] = docs[j]
		}
		if c, err := agg.Aggregate(in, 9); err != nil || c != base {
			t.Fatalf("order %v: got %p, %v; want the shared document %p", perm, c, err, base)
		}
	}
	if len(agg) != 1 {
		t.Fatalf("%d entries for one vote set", len(agg))
	}

	swapped := []*Document{docs[0], docs[1], alt, docs[3], docs[4]}
	other, err := agg.Aggregate(swapped, 9)
	if err != nil || other == base || other.Digest() == base.Digest() {
		t.Fatalf("an alternate vote from authority 2 got the first set's document (err %v)", err)
	}
	if c, _ := agg.Aggregate(docs[:4], 9); c == base || c == other {
		t.Fatal("a subset of the votes got another set's document")
	}
	if c, _ := agg.Aggregate(docs, 7); c == base {
		t.Fatal("another authority count got the first set's document")
	}
	if len(agg) != 4 {
		t.Fatalf("%d entries for four distinct vote sets", len(agg))
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
			if c, err := agg.Aggregate(bad, 9); c != nil || err == nil || err.Error() != want.Error() {
				t.Errorf("%s, try %d: got %v, %v; want nil and %q", name, try, c, err, want)
			}
		}
	}
	if len(agg) != 4 {
		t.Fatalf("a rejected vote set was stored: %d entries", len(agg))
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
