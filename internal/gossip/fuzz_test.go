package gossip

import "testing"

// FuzzDecodeDigest: arbitrary bytes must never panic the digest decoder,
// and anything it accepts must round-trip stably.
func FuzzDecodeDigest(f *testing.F) {
	d := Digest{Epoch: 2, TTL: 4}
	for i := range d.Sum {
		d.Sum[i] = byte(i)
	}
	f.Add(EncodeDigest(d))
	f.Add(EncodeDigest(Digest{}))
	f.Add([]byte{})
	f.Add([]byte(magic))
	f.Add(EncodeVector(Vector{Entries: []VectorEntry{{Key: 0, Epoch: 2}}}))

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeDigest(data)
		if err != nil {
			return
		}
		re := EncodeDigest(got)
		back, err := DecodeDigest(re)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if back != got {
			t.Fatal("digest unstable across round trip")
		}
	})
}

// FuzzDecodeVector: arbitrary bytes must never panic the epoch-vector
// decoder, and anything it accepts must round-trip stably, re-encoded in the
// EncodedSize the mesh charges for it.
func FuzzDecodeVector(f *testing.F) {
	f.Add(EncodeVector(Vector{}))
	f.Add(EncodeVector(Vector{Entries: []VectorEntry{{Key: 0, Epoch: 2}}}))
	f.Add(EncodeVector(Vector{Entries: []VectorEntry{{Key: 1, Epoch: 1}, {Key: 1 << 40, Epoch: 9}}}))
	f.Add([]byte{})
	f.Add([]byte(magic))
	f.Add(EncodeDigest(Digest{Epoch: 1, TTL: 1}))

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeVector(data)
		if err != nil {
			return
		}
		re := EncodeVector(got)
		if len(re) != got.EncodedSize() {
			t.Fatalf("encoded %d bytes, EncodedSize says %d", len(re), got.EncodedSize())
		}
		back, err := DecodeVector(re)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if len(back.Entries) != len(got.Entries) {
			t.Fatal("entry count unstable across round trip")
		}
	})
}
