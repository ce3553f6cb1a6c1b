package vote

import (
	"testing"

	"partialtor/internal/relay"
	"partialtor/internal/sig"
)

// digestIsHashOfEncoding is the hash-once invariant: the digest fixed beside
// the cached encoding is the SHA-256 of exactly those bytes, whichever of
// Digest and Encode is called first.
func digestIsHashOfEncoding(t testing.TB, what string, digest func() sig.Digest, encode func() []byte) {
	t.Helper()
	if got, want := digest(), sig.Hash(encode()); got != want {
		t.Fatalf("%s: Digest() = %s, sig.Hash(Encode()) = %s", what, got.Short(), want.Short())
	}
}

// FuzzParse: arbitrary input must never panic the vote parser, and
// anything that parses must re-encode and re-parse to the same digest.
func FuzzParse(f *testing.F) {
	keys := sig.NewKeyPair(1, 0)
	view := relay.View(relay.Population(5, 1), 0, 1)
	doc := NewDocument(0, "moria1", keys.Fingerprint, 1, view)
	f.Add(doc.Encode())
	doc2 := NewDocument(1, "tor26", keys.Fingerprint, 2, nil)
	doc2.EntryPadding = 0
	f.Add(doc2.Encode())
	digestIsHashOfEncoding(f, "built, encoded first", doc.Digest, doc.Encode)
	doc3 := NewDocument(2, "dizum", keys.Fingerprint, 3, view)
	digestIsHashOfEncoding(f, "built, digest first", doc3.Digest, doc3.Encode)
	f.Add([]byte("network-status-version 3\nvote-status vote\ndirectory-footer\n"))
	f.Add([]byte("r bad\n"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := Parse(data)
		if err != nil {
			return
		}
		re, err := Parse(d.Encode())
		if err != nil {
			t.Fatalf("re-parse of re-encoded document failed: %v", err)
		}
		if len(re.Relays) != len(d.Relays) {
			t.Fatal("relay count unstable across round trip")
		}
		digestIsHashOfEncoding(t, "parsed and re-encoded", d.Digest, d.Encode)
		digestIsHashOfEncoding(t, "re-parsed", re.Digest, re.Encode)
	})
}

// FuzzParseConsensus mirrors FuzzParse for consensus documents.
func FuzzParseConsensus(f *testing.F) {
	docs := []*Document{mkVote(0, mkRelay(1, nil)), mkVote(1, mkRelay(1, nil))}
	c, err := Aggregate(docs, 9)
	if err != nil {
		f.Fatal(err)
	}
	digestIsHashOfEncoding(f, "aggregated, digest first", c.Digest, c.Encode)
	f.Add(c.Encode())
	f.Add([]byte("network-status-version 3\nvote-status consensus\ndirectory-footer\n"))
	f.Add([]byte("voters x y\n"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := ParseConsensus(data)
		if err != nil {
			return
		}
		if _, err := ParseConsensus(c.Encode()); err != nil {
			t.Fatalf("re-parse of re-encoded consensus failed: %v", err)
		}
		digestIsHashOfEncoding(t, "parsed and re-encoded consensus", c.Digest, c.Encode)
	})
}
