package vote

import (
	"testing"

	"partialtor/internal/sig"
)

// benchDocs are the first n votes of a network of the given size at seed 1.
func benchDocs(n, relays int) []*Document {
	return seedDocs(n, relays, 1, DefaultEntryPadding)
}

// BenchmarkEncode8000Relays times rendering a vote's bytes, which Encode does
// afresh on every call.
func BenchmarkEncode8000Relays(b *testing.B) {
	docs := benchDocs(1, 8000)
	b.SetBytes(docs[0].EncodedSize())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkBytes = docs[0].Encode()
	}
}

// BenchmarkSeal8000Relays times sealing a vote: streaming its encoding
// through SHA-256 to fix its size and digest.
func BenchmarkSeal8000Relays(b *testing.B) {
	docs := benchDocs(1, 8000)
	b.SetBytes(docs[0].EncodedSize())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := unsealed(docs[0])
		sinkDigest = d.Digest()
	}
}

var (
	sinkBytes  []byte
	sinkDigest sig.Digest
)

// unsealed is a copy of d whose size and digest are not fixed yet.
func unsealed(d *Document) *Document {
	dd := *d
	dd.size, dd.digest = 0, sig.Digest{}
	return &dd
}

func BenchmarkParse8000Relays(b *testing.B) {
	docs := benchDocs(1, 8000)
	enc := docs[0].Encode()
	b.SetBytes(int64(len(enc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(enc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAggregate9x8000(b *testing.B) {
	docs := benchDocs(9, 8000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := Aggregate(docs, 9)
		if err != nil {
			b.Fatal(err)
		}
		if len(c.Relays) == 0 {
			b.Fatal("empty consensus")
		}
	}
}

// BenchmarkConsensusDigest times sealing a consensus: streaming its encoding
// through SHA-256 to fix its size and digest, with no buffer of its size.
func BenchmarkConsensusDigest(b *testing.B) {
	docs := benchDocs(9, 2000)
	c, err := Aggregate(docs, 9)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkDigest = unsealedConsensus(c).Digest()
	}
}

// unsealedConsensus is a copy of c whose size and digest are not fixed yet.
func unsealedConsensus(c *Consensus) *Consensus {
	cc := *c
	cc.size, cc.digest = 0, sig.Digest{}
	return &cc
}

// The allocation pins behind the benchmarks above: a seal streams a padded
// vote or a consensus through one scratch buffer on the stack and allocates
// nothing, whatever the relay count; Consensus.Encode makes its buffer once
// at the final size and nothing else; and Aggregate allocates per vote, never
// per relay. Before the append encoders and the merge, the vote encoder,
// Consensus.Encode and Aggregate made 137 106, 28 977 and 144 392 allocations
// on their benchmarks.

func TestEncodeAllocatesOnlyItsBuffer(t *testing.T) {
	var encode [2]float64
	for i, relays := range []int{300, 3000} {
		docs := benchDocs(9, relays)
		c, err := Aggregate(docs, 9)
		if err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(10, func() { unsealed(docs[0]).Digest() }); n != 0 {
			t.Errorf("sealing a padded vote of %d relays allocated %.0f times, want 0", relays, n)
		}
		if n := testing.AllocsPerRun(10, func() { unsealedConsensus(c).Digest() }); n != 0 {
			t.Errorf("sealing a consensus of %d relays allocated %.0f times, want 0", len(c.Relays), n)
		}
		encode[i] = testing.AllocsPerRun(10, func() { unsealedConsensus(c).Encode() })
	}
	if encode[0] > 2 || encode[1] != encode[0] {
		t.Errorf("Consensus.Encode allocated %.0f times at 300 relays and %.0f at 3 000, want at most 2 and no growth",
			encode[0], encode[1])
	}
}

func TestAggregateAllocationsDoNotGrowWithRelays(t *testing.T) {
	// mixed replaces one vote by its parsed copy: the set shares no roster,
	// so Aggregate merges on identities and builds the consensus a roster.
	allocs := func(relays int, mixed bool) float64 {
		docs := benchDocs(9, relays)
		if mixed {
			p, err := Parse(docs[0].Encode())
			if err != nil {
				t.Fatal(err)
			}
			docs[0] = p
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := Aggregate(docs, 9); err != nil {
				t.Fatal(err)
			}
		})
	}
	at300, at3000 := allocs(300, false), allocs(3000, false)
	if at3000 > at300 {
		t.Errorf("Aggregate allocated %.0f times over 9 × 300 relays and %.0f over 9 × 3000", at300, at3000)
	}
	if at300 > 40 {
		t.Errorf("Aggregate allocated %.0f times over nine votes, want a few per vote (at most 40)", at300)
	}
	if at300, at3000 := allocs(300, true), allocs(3000, true); at3000 > at300 {
		t.Errorf("Aggregate allocated %.0f times over 9 × 300 relays and %.0f over 9 × 3000, one vote parsed", at300, at3000)
	}
}
