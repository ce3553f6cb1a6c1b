package vote

import (
	"testing"

	"partialtor/internal/relay"
	"partialtor/internal/sig"
)

func benchDocs(b *testing.B, n, relays int) []*Document {
	b.Helper()
	pop := relay.Population(relays, 1)
	docs := make([]*Document, n)
	for a := range docs {
		view := relay.View(pop, a, 1)
		keys := sig.NewKeyPair(1, a)
		docs[a] = NewDocument(a, relay.AuthorityNames[a], keys.Fingerprint, 1, view)
	}
	return docs
}

func BenchmarkEncode8000Relays(b *testing.B) {
	docs := benchDocs(b, 1, 8000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := *docs[0] // drop the cache
		d.EntryPadding = DefaultEntryPadding
		enc := d.Encode()
		b.SetBytes(int64(len(enc)))
	}
}

func BenchmarkParse8000Relays(b *testing.B) {
	docs := benchDocs(b, 1, 8000)
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
	docs := benchDocs(b, 9, 8000)
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
	docs := benchDocs(b, 9, 2000)
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
