package vote

import (
	"runtime"
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

// BenchmarkConsensusDigest times rendering and hashing a consensus: each copy
// drops the encoding the consensus caches.
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

// The allocation pins behind the benchmarks above: a seal streams a vote
// through one small scratch buffer whatever the relay count (the cached
// encoding it replaced was ~7.5 MB at 3 000 relays), Consensus.Encode makes
// its buffer once at the final size and nothing else, and Aggregate allocates
// per vote, never per relay. Before the append encoders and the merge, the
// vote encoder, Consensus.Encode and Aggregate made 137 106, 28 977 and
// 144 392 allocations on their benchmarks.

func TestEncodeAllocatesOnlyItsBuffer(t *testing.T) {
	type cost struct{ sealAllocs, sealBytes, consensus float64 }
	measure := func(relays int) cost {
		docs := benchDocs(9, relays)
		c, err := Aggregate(docs, 9)
		if err != nil {
			t.Fatal(err)
		}
		const runs = 10
		var m cost
		m.sealAllocs = testing.AllocsPerRun(runs, func() { unsealed(docs[0]).Digest() })
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			unsealed(docs[0]).Digest()
		}
		runtime.ReadMemStats(&after)
		m.sealBytes = float64(after.TotalAlloc-before.TotalAlloc) / runs
		m.consensus = testing.AllocsPerRun(runs, func() {
			cc := *c
			cc.encoded = nil
			cc.Encode()
		})
		return m
	}
	at300, at3000 := measure(300), measure(3000)
	if at3000.sealAllocs > at300.sealAllocs {
		t.Errorf("sealing a vote allocated %.0f times at 300 relays and %.0f at 3 000", at300.sealAllocs, at3000.sealAllocs)
	}
	if at3000.sealBytes >= 16<<10 {
		t.Errorf("sealing a 3 000-relay vote allocated %.0f bytes, want under 16 KiB", at3000.sealBytes)
	}
	if at300.consensus > 2 || at3000.consensus != at300.consensus {
		t.Errorf("Consensus.Encode allocated %.0f times at 300 relays and %.0f at 3 000, want at most 2 and no growth",
			at300.consensus, at3000.consensus)
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
