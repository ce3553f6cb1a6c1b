package vote

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"partialtor/internal/relay"
	"partialtor/internal/sig"
)

// benchmarkSeeds are the six scenario seeds benchmark/ derives from -seed 1:
// the documents every consensus-* and campaign-sweep op is built from.
var benchmarkSeeds = []int64{21154162, 382856361, 450008222, 221457682, 880154258, 177053761}

// seedDocs builds the n votes harness.Inputs would for (relays, seed), each
// unsealed, so that a test may still change it.
func seedDocs(n, relays int, seed int64, padding int) []*Document {
	docs := Votes(sig.Authorities(seed, n), Views(n, relays, seed), padding)
	for a, d := range docs {
		docs[a] = unsealed(d)
	}
	return docs
}

// checkEncode holds d.Encode to the fmt-based reference: the same bytes, a
// buffer with no capacity beyond them and a sealed size of their length, and
// a digest of the reference's natural rendering.
func checkEncode(t testing.TB, what string, d *Document) {
	t.Helper()
	want := referenceEncode(d)
	got := d.Encode()
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: Encode differs from the reference (%d vs %d bytes, first difference at %d)",
			what, len(got), len(want), firstDifference(got, want))
	}
	if cap(got) != len(got) {
		t.Fatalf("%s: Encode sized its buffer %d for %d bytes", what, cap(got), len(got))
	}
	if d.EncodedSize() != int64(len(got)) {
		t.Fatalf("%s: EncodedSize() = %d, len(Encode()) = %d", what, d.EncodedSize(), len(got))
	}
	if d.Digest() != sig.Hash(referenceNatural(d)) {
		t.Fatalf("%s: Digest is not the hash of the reference's natural rendering", what)
	}
}

// referenceNatural is the reference encoding of d without its pad lines,
// rendered by the reference with every entry at padding 0: unlike deleting
// the lines afterwards, that keeps a fuzzed field which itself holds a line
// starting "pad ".
func referenceNatural(d *Document) []byte {
	head := *d
	head.Relays = View{}
	b := bytes.NewBuffer(bytes.TrimSuffix(referenceEncode(&head), []byte(footer)))
	relays := relaysOf(d.Relays)
	for i := range relays {
		referenceEncodeEntry(b, &relays[i], 0)
	}
	b.WriteString(footer)
	return b.Bytes()
}

// checkAggregate holds Aggregate and the encoding of its result to the
// map-based reference.
func checkAggregate(t testing.TB, what string, votes []*Document, total int) {
	t.Helper()
	want, wantErr := referenceAggregate(votes, total)
	got, err := Aggregate(votes, total)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("%s: Aggregate error %v, reference %v", what, err, wantErr)
	}
	if err != nil {
		return
	}
	if !reflect.DeepEqual(flatten(got), want) {
		t.Fatalf("%s: Aggregate differs from the reference (%d vs %d relays)", what, len(got.Relays), len(want.Relays))
	}
	wantBytes := referenceConsensusEncode(want)
	gotBytes := got.Encode()
	if !bytes.Equal(gotBytes, wantBytes) {
		t.Fatalf("%s: Consensus.Encode differs from the reference (first difference at %d)", what, firstDifference(gotBytes, wantBytes))
	}
	if cap(gotBytes) != len(gotBytes) {
		t.Fatalf("%s: Consensus.Encode sized its buffer %d for %d bytes", what, cap(gotBytes), len(gotBytes))
	}
	if got.Digest() != sig.Hash(wantBytes) {
		t.Fatalf("%s: consensus Digest is not the hash of the reference encoding", what)
	}
}

func firstDifference(a, b []byte) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

func TestEncodeAndAggregateMatchReferenceOnBenchmarkSeeds(t *testing.T) {
	for _, relays := range []int{60, 300, 1000} {
		for _, seed := range benchmarkSeeds {
			for _, padding := range []int{DefaultEntryPadding, 0} {
				what := fmt.Sprintf("relays=%d seed=%d padding=%d", relays, seed, padding)
				docs := seedDocs(9, relays, seed, padding)
				for a, d := range docs {
					// The reference pads a byte at a time, which is most of
					// this test's wall under -race: at 1 000 relays three
					// padded votes stand for the nine (all nine are checked
					// unpadded).
					if relays < 1000 || padding == 0 || a%4 == 0 {
						checkEncode(t, what, d)
					}
				}
				checkAggregate(t, what, docs, 9)
			}
		}
	}
}

func TestEncodeMatchesReferenceAcrossPaddingBoundary(t *testing.T) {
	base := seedDocs(1, 60, 1, 0)[0]
	natural := len(base.Relays.Roster.appendEntry(nil, &base.Relays.Listings[0], 0))
	// natural+5 is the last padding an entry cannot be filled to ("pad x\n"
	// is six bytes), natural+6 the first it can; 5 001 and 12 345 need more
	// than one cut of the filler.
	paddings := []int{math.MinInt, -1, 0, natural - 1, natural, natural + 5, natural + 6, natural + 7, 2500, 5000, 5001, 12345}
	for _, measured := range []bool{false, true} {
		for _, padding := range paddings {
			d := *base
			d.Relays.Listings = slices.Clone(base.Relays.Listings)
			d.Relays.Listings[0].HasMeasured = measured
			d.EntryPadding = padding
			checkEncode(t, fmt.Sprintf("padding=%d (natural %d) measured=%v", padding, natural, measured), &d)
		}
	}
}

func TestEmptyVoteMatchesReference(t *testing.T) {
	for _, padding := range []int{0, DefaultEntryPadding} {
		d := NewDocument(3, "gabelmoo", sig.NewKeyPair(1, 3).Fingerprint, 7, View{})
		d.EntryPadding = padding
		checkEncode(t, "no relays", d)
		checkAggregate(t, "no relays", []*Document{d}, 9)
	}
	checkAggregate(t, "no votes", nil, 9)
}

func TestAggregateMatchesReferenceOnVoteSubsets(t *testing.T) {
	docs := seedDocs(9, 300, benchmarkSeeds[0], 0)
	rng := rand.New(rand.NewSource(5))
	for _, size := range []int{1, 5, 9} {
		for trial := 0; trial < 4; trial++ {
			var subset []*Document
			for _, i := range rng.Perm(9)[:size] {
				subset = append(subset, docs[i])
			}
			checkAggregate(t, fmt.Sprintf("%d of 9, trial %d", size, trial), subset, 9)
		}
	}
}

// TestParsedAndBuiltVotesAggregateAlike: a built vote lists its population's
// roster and a parsed one a roster of its own, and Aggregate makes one
// consensus of either. Aggregating every vote of a set parsed back from its
// encoding, or a mix of parsed and built votes, gives the bytes aggregating
// the built votes gives, at no padding and at the calibrated one, and each
// set's consensus is held to the fmt reference. The built set merges on
// roster indices and the others on identities, so the test holds the two
// merges to each other.
func TestParsedAndBuiltVotesAggregateAlike(t *testing.T) {
	for _, padding := range []int{0, DefaultEntryPadding} {
		built := seedDocs(9, 300, benchmarkSeeds[4], padding)
		parsed := make([]*Document, len(built))
		mixed := make([]*Document, len(built))
		for i, d := range built {
			p, err := Parse(d.Encode())
			if err != nil {
				t.Fatal(err)
			}
			parsed[i], mixed[i] = p, d
			if i%2 == 0 {
				mixed[i] = p
			}
		}
		want, err := Aggregate(built, 9)
		if err != nil {
			t.Fatal(err)
		}
		if sharedRoster(built) == nil || sharedRoster(parsed) != nil || sharedRoster(mixed) != nil {
			t.Fatal("the built votes do not share their roster, or parsed ones do")
		}
		for _, set := range []struct {
			name  string
			votes []*Document
		}{{"built", built}, {"parsed", parsed}, {"mixed", mixed}} {
			what := fmt.Sprintf("%s votes, padding %d", set.name, padding)
			checkAggregate(t, what, set.votes, 9)
			got, err := Aggregate(set.votes, 9)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Encode(), want.Encode()) || got.Digest() != want.Digest() {
				t.Fatalf("%s: the consensus differs from the built votes' (first difference at %d)", what, firstDifference(got.Encode(), want.Encode()))
			}
		}
	}
}

// Parse enforces neither identity order nor one entry per identity; whatever
// the old Aggregate made of such votes, the merge makes too.
func TestAggregateMatchesReferenceOnIrregularVotes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	shuffled := seedDocs(9, 300, benchmarkSeeds[1], 0)
	for _, i := range []int{0, 4, 8} {
		ls := shuffled[i].Relays.Listings
		rng.Shuffle(len(ls), func(a, b int) { ls[a], ls[b] = ls[b], ls[a] })
	}
	checkAggregate(t, "three votes out of identity order", shuffled, 9)

	// One identity listed twice: back to back by the highest authority, whose
	// vote stays in identity order, and far apart by an out-of-order one. Both
	// listings count, and the first of the highest authority's names the relay.
	// Each such vote lists a roster of its own, as a parsed one does.
	twice := seedDocs(9, 60, benchmarkSeeds[2], 0)
	for _, i := range []int{2, 8} {
		rs := relaysOf(twice[i].Relays)
		again := rs[10]
		again.Nickname, again.Address, again.Version = "again", "10.9.9.9", "0.4.9.1"
		again.Flags ^= relay.FlagExit | relay.FlagGuard
		again.HasMeasured, again.Measured = true, 1
		rs = append(append(append([]relay.Descriptor(nil), rs[:11]...), again), rs[11:]...)
		if i == 2 {
			rs[0], rs[11] = rs[11], rs[0]
		}
		twice[i].Relays = oneVote(rs)
	}
	checkAggregate(t, "an identity listed twice", twice, 9)
	checkAggregate(t, "an identity listed twice, alone", twice[8:], 9)
	checkAggregate(t, "an identity listed twice, out of order, alone", twice[2:3], 9)

	// Every identity twice, shuffled: only a stable sort keeps each pair in
	// vote order, and the first of a pair names the relay.
	doubled := seedDocs(1, 60, benchmarkSeeds[3], 0)[0]
	rs := relaysOf(doubled.Relays)
	for _, r := range rs {
		r.Nickname = "again"
		rs = append(rs, r)
	}
	rng.Shuffle(len(rs), func(a, b int) { rs[a], rs[b] = rs[b], rs[a] })
	doubled.Relays = oneVote(rs)
	checkAggregate(t, "every identity twice, shuffled", []*Document{doubled}, 9)

	parsed, err := Parse(twice[2].Encode())
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed.Relays.Listings) != len(twice[2].Relays.Listings) {
		t.Fatalf("Parse kept %d of %d entries", len(parsed.Relays.Listings), len(twice[2].Relays.Listings))
	}
	checkAggregate(t, "parsed back", []*Document{parsed, twice[8]}, 9)
}

// FuzzEncodeMatchesReference builds a two-entry vote from fuzzed descriptor
// fields — two listings of one identity when the low bit of dirPort is set —
// and holds both encoders and the aggregate between them to the reference.
func FuzzEncodeMatchesReference(f *testing.F) {
	f.Add("relay000001", "10.0.0.1", "0.4.8.10", "Cons=1-2 Desc=1-2", "accept 80,443", []byte{1, 2, 3},
		uint16(9001), uint16(9030), uint16(0xff), uint64(5000), uint64(4800), true, 2500, "moria1", uint64(1), 0)
	f.Add("", "", "", "", "", []byte{}, uint16(0), uint16(1), uint16(0), uint64(0), uint64(0), false, 0, "", uint64(0), -1)
	f.Add("n", "a", "v", "pr", "p", bytes.Repeat([]byte{0xab}, 40),
		uint16(65535), uint16(65535), uint16(0xffff), ^uint64(0), ^uint64(0), true, 157, "a-rather-long-authority-name-that-outgrows-the-header-scratch-"+string(bytes.Repeat([]byte{'z'}, 100)), ^uint64(0), 1<<31-1)
	f.Fuzz(func(t *testing.T, nick, addr, version, protocols, policy string, id []byte,
		orPort, dirPort, flags uint16, bandwidth, measured uint64, hasMeasured bool, padding int, name string, epoch uint64, index int) {
		r := relay.Descriptor{
			Nickname: nick, Address: addr, ORPort: orPort, DirPort: dirPort, Flags: relay.Flags(flags),
			Version: version, Protocols: protocols, Bandwidth: bandwidth, HasMeasured: hasMeasured, Measured: measured, ExitPolicy: policy,
		}
		copy(r.Identity[:], id)
		if len(id) > len(r.Identity) {
			copy(r.Digest[:], id[len(r.Identity):])
		}
		other := r
		other.HasMeasured = !hasMeasured
		if dirPort&1 == 0 {
			other.Identity[19] ^= 1
		}
		if padding > 1<<16 || padding < -1<<16 {
			padding %= 1 << 16 // keep the documents small
		}
		var fp sig.Fingerprint
		copy(fp[:], id)
		d := NewDocument(index, name, fp, epoch, oneVote([]relay.Descriptor{r, other}))
		d.EntryPadding = padding
		checkEncode(t, "fuzzed vote", d)
		checkAggregate(t, "fuzzed vote", []*Document{d}, 9)
	})
}
