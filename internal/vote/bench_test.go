package vote

import "testing"

// benchDocs are the first n votes of a network of the given size at seed 1.
func benchDocs(n, relays int) []*Document {
	return seedDocs(n, relays, 1, DefaultEntryPadding)
}

func BenchmarkEncode8000Relays(b *testing.B) {
	docs := benchDocs(1, 8000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := *docs[0] // drop the cache
		d.EntryPadding = DefaultEntryPadding
		enc := d.Encode()
		b.SetBytes(int64(len(enc)))
	}
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

func BenchmarkConsensusDigest(b *testing.B) {
	docs := benchDocs(9, 2000)
	c, err := Aggregate(docs, 9)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cc := *c
		cc.encoded = nil
		_ = cc.Digest()
	}
}

// The allocation pins behind the three benchmarks above: an encoder makes its
// buffer once at the final size and nothing else, whatever the relay count,
// and Aggregate allocates per vote, never per relay — the parent did 137 106,
// 28 977 and 144 392 allocations on them.

func TestEncodeAllocatesOnlyItsBuffer(t *testing.T) {
	allocs := func(relays int) (vote, consensus float64) {
		docs := benchDocs(9, relays)
		c, err := Aggregate(docs, 9)
		if err != nil {
			t.Fatal(err)
		}
		vote = testing.AllocsPerRun(10, func() {
			d := *docs[0] // drop the cache
			d.encoded = nil
			d.Encode()
		})
		consensus = testing.AllocsPerRun(10, func() {
			cc := *c
			cc.encoded = nil
			cc.Encode()
		})
		return vote, consensus
	}
	vote300, consensus300 := allocs(300)
	vote3000, consensus3000 := allocs(3000)
	if vote300 > 2 || consensus300 > 2 {
		t.Errorf("Document.Encode allocated %.0f times and Consensus.Encode %.0f at 300 relays, want at most 2 each", vote300, consensus300)
	}
	if vote3000 != vote300 || consensus3000 != consensus300 {
		t.Errorf("allocations grew with the relay count: Document.Encode %.0f → %.0f, Consensus.Encode %.0f → %.0f",
			vote300, vote3000, consensus300, consensus3000)
	}
}

func TestAggregateAllocationsDoNotGrowWithRelays(t *testing.T) {
	allocs := func(relays int) float64 {
		docs := benchDocs(9, relays)
		return testing.AllocsPerRun(5, func() {
			if _, err := Aggregate(docs, 9); err != nil {
				t.Fatal(err)
			}
		})
	}
	at300, at3000 := allocs(300), allocs(3000)
	if at3000 > at300 {
		t.Errorf("Aggregate allocated %.0f times over 9 × 300 relays and %.0f over 9 × 3000", at300, at3000)
	}
	if at300 > 40 {
		t.Errorf("Aggregate allocated %.0f times over nine votes, want a few per vote (at most 40)", at300)
	}
}
