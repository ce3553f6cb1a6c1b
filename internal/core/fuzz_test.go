package core

import (
	"testing"

	"partialtor/internal/sig"
	"partialtor/internal/testkit"
)

// FuzzDecodeValue: arbitrary bytes must never panic the AgreementValue
// decoder, and decodable values must re-encode identically.
func FuzzDecodeValue(f *testing.F) {
	keys := testkit.Authorities(4, 1)
	v := &AgreementValue{Proposer: 1, Entries: make([]ValueEntry, 4)}
	for j := range v.Entries {
		d := sig.Hash([]byte{byte(j)})
		v.Entries[j] = ValueEntry{
			Status:   EntryOK,
			Digest:   d,
			OwnerSig: keys[j].Sign(domainDoc, entryInput(nil, j, d)),
			Endorsements: []sig.Signature{
				keys[0].Sign(domainEndorse, entryInput(nil, j, d)),
				keys[1].Sign(domainEndorse, entryInput(nil, j, d)),
			},
		}
	}
	f.Add(EncodeValue(v))
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x02})

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeValue(data)
		if err != nil {
			return
		}
		re := EncodeValue(got)
		back, err := DecodeValue(re)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if back.Digest() != got.Digest() {
			t.Fatal("digest unstable across round trip")
		}
	})
}

// FuzzDecodeAny: the combined ICPS/agreement demultiplexer must not panic.
// Its last seed carries a padded two-relay vote, so the fuzzer reaches the
// vote grammar through the codec.
func FuzzDecodeAny(f *testing.F) {
	b, err := EncodeMessage(&MsgFetch{Index: 2, WantDigest: sig.Hash([]byte("x"))})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(b)
	f.Add([]byte{0x11})
	f.Add([]byte{0x25, 0xFF})
	f.Add([]byte{})
	keys := testkit.Authorities(2, 1)
	doc := testkit.Docs(keys, 2, 1, 400)[1]
	if b, err = EncodeMessage(&MsgDocument{Doc: doc, OwnerSig: keys[1].Sign(domainDoc, entryInput(nil, 1, doc.Digest()))}); err != nil {
		f.Fatal(err)
	}
	f.Add(b)

	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = DecodeAny(data)
	})
}
