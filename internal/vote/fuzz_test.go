package vote

import (
	"testing"

	"partialtor/internal/relay"
	"partialtor/internal/sig"
)

// document is what both document kinds offer: a seal and a rendering.
type document interface {
	Digest() sig.Digest
	EncodedSize() int64
	Encode() []byte
}

// digestIsHashOfEncoding is the seal's invariant: the digest and size a
// document fixes are the SHA-256 and the length of exactly the bytes Encode
// renders, whichever of them is called first.
func digestIsHashOfEncoding(t testing.TB, what string, d document) {
	t.Helper()
	gotDigest, gotSize := d.Digest(), d.EncodedSize()
	enc := d.Encode()
	if want := sig.Hash(enc); gotDigest != want {
		t.Fatalf("%s: Digest() = %s, sig.Hash(Encode()) = %s", what, gotDigest.Short(), want.Short())
	}
	if gotSize != int64(len(enc)) {
		t.Fatalf("%s: EncodedSize() = %d, len(Encode()) = %d", what, gotSize, len(enc))
	}
}

// FuzzParse: arbitrary input must never panic the vote parser, and
// anything that parses, at whatever padding it declares, must re-encode and
// re-parse, and its seal must match its rendering.
func FuzzParse(f *testing.F) {
	keys := sig.NewKeyPair(1, 0)
	pop := relay.Population(5, 1)
	view := relay.View(pop, relay.IdentityOrder(pop), 0, 1)
	doc := NewDocument(0, "moria1", keys.Fingerprint, 1, view)
	f.Add(doc.Encode())
	doc2 := NewDocument(1, "tor26", keys.Fingerprint, 2, nil)
	doc2.EntryPadding = 0
	f.Add(doc2.Encode())
	digestIsHashOfEncoding(f, "built, encoded first", doc)
	doc3 := NewDocument(2, "dizum", keys.Fingerprint, 3, view)
	digestIsHashOfEncoding(f, "built, digest first", doc3)
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
		digestIsHashOfEncoding(t, "parsed and re-encoded", d)
		digestIsHashOfEncoding(t, "re-parsed", re)
	})
}

// FuzzParseConsensus mirrors FuzzParse for consensus documents.
func FuzzParseConsensus(f *testing.F) {
	docs := []*Document{mkVote(0, mkRelay(1, nil)), mkVote(1, mkRelay(1, nil))}
	c, err := Aggregate(docs, 9)
	if err != nil {
		f.Fatal(err)
	}
	digestIsHashOfEncoding(f, "aggregated, digest first", c)
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
		digestIsHashOfEncoding(t, "parsed and re-encoded consensus", c)
	})
}
