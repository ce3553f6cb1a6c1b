package vote

import (
	"bytes"
	"testing"

	"partialtor/internal/sig"
)

// document is what both document kinds offer: a seal and a rendering.
type document interface {
	Digest() sig.Digest
	EncodedSize() int64
	Encode() []byte
}

// sealMatchesRendering is the seal's invariant, whichever of Digest,
// EncodedSize and Encode is called first: the size a document fixes is the
// length of exactly the bytes Encode renders, and its digest is the SHA-256
// of its natural rendering, those bytes without their pad lines (a consensus
// has none, so its digest is the hash of Encode's bytes).
func sealMatchesRendering(t testing.TB, what string, d document) {
	t.Helper()
	gotDigest, gotSize := d.Digest(), d.EncodedSize()
	enc := d.Encode()
	if want := sig.Hash(withoutPadLines(enc)); gotDigest != want {
		t.Fatalf("%s: Digest() = %s, the hash of Encode() without its pad lines = %s", what, gotDigest.Short(), want.Short())
	}
	if gotSize != int64(len(enc)) {
		t.Fatalf("%s: EncodedSize() = %d, len(Encode()) = %d", what, gotSize, len(enc))
	}
}

// withoutPadLines is enc with every "pad" line taken out: a vote's natural
// rendering, as long as none of its fields holds a line break (no parsed
// vote's does).
func withoutPadLines(enc []byte) []byte {
	out := make([]byte, 0, len(enc))
	for line := range bytes.Lines(enc) {
		if !bytes.HasPrefix(line, []byte("pad ")) {
			out = append(out, line...)
		}
	}
	return out
}

// FuzzParse: arbitrary input must never panic the vote parser, and
// anything that parses, at whatever padding it declares, must re-encode and
// re-parse, and its seal must match its rendering: the size of the padded
// bytes, the digest of the natural ones.
func FuzzParse(f *testing.F) {
	keys := sig.NewKeyPair(1, 0)
	view := seedDocs(1, 5, 1, DefaultEntryPadding)[0].Relays
	doc := NewDocument(0, "moria1", keys.Fingerprint, 1, view)
	f.Add(doc.Encode())
	doc2 := NewDocument(1, "tor26", keys.Fingerprint, 2, View{})
	doc2.EntryPadding = 0
	f.Add(doc2.Encode())
	sealMatchesRendering(f, "built, encoded first", doc)
	doc3 := NewDocument(2, "dizum", keys.Fingerprint, 3, view)
	sealMatchesRendering(f, "built, digest first", doc3)
	f.Add([]byte("network-status-version 3\nvote-status vote\ndirectory-footer\n"))
	f.Add([]byte("r bad\n"))
	f.Add([]byte{})
	f.Add(repadded("4611686018427387904")) // rejected: would wrap the padded size to 0

	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := Parse(data)
		if err != nil {
			return
		}
		re, err := Parse(d.Encode())
		if err != nil {
			t.Fatalf("re-parse of re-encoded document failed: %v", err)
		}
		if len(re.Relays.Listings) != len(d.Relays.Listings) {
			t.Fatal("relay count unstable across round trip")
		}
		sealMatchesRendering(t, "parsed and re-encoded", d)
		sealMatchesRendering(t, "re-parsed", re)
	})
}

// FuzzParseConsensus mirrors FuzzParse for consensus documents.
func FuzzParseConsensus(f *testing.F) {
	docs := []*Document{mkVote(0, mkRelay(1, nil)), mkVote(1, mkRelay(1, nil))}
	c, err := Aggregate(docs, 9)
	if err != nil {
		f.Fatal(err)
	}
	sealMatchesRendering(f, "aggregated, digest first", c)
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
		sealMatchesRendering(t, "parsed and re-encoded consensus", c)
	})
}
