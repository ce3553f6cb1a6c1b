package syncdir

import (
	"bytes"
	"testing"

	"partialtor/internal/sig"
	"partialtor/internal/simnet"
	"partialtor/internal/testkit"
)

func TestCodecRoundTrips(t *testing.T) {
	keys := testkit.Authorities(9, 1)
	docs := testkit.Docs(keys, 10, 1, 0)
	var docSigs []sig.Signature
	for i, d := range docs[:3] {
		docSigs = append(docSigs, signDoc(sig.PublicSet(keys), keys[i], d))
	}
	bundle := &msgBundle{From: 0, Docs: docs[:3], DocSigs: docSigs}
	bundle.Digest = bundleDigest(bundle.Docs)

	digest := sig.Hash([]byte("x"))
	chain := &msgChain{Digest: digest, Chain: []sig.Signature{
		keys[0].Sign(domainChain, digest[:]),
		keys[1].Sign(domainChain, digest[:]),
	}}

	cases := []simnet.Message{
		&msgDoc{Doc: docs[1], Sig: signDoc(sig.PublicSet(keys), keys[1], docs[1])},
		bundle,
		chain,
		&msgConsSig{Digest: digest, Sig: keys[4].Sign(domainCons, digest[:])},
	}
	for _, m := range cases {
		b, err := EncodeMessage(m)
		if err != nil {
			t.Fatalf("encode %T: %v", m, err)
		}
		got, err := DecodeMessage(b)
		if err != nil {
			t.Fatalf("decode %T: %v", m, err)
		}
		if got.Kind() != m.Kind() {
			t.Fatalf("kind mismatch for %T", m)
		}
		b2, err := EncodeMessage(got)
		if err != nil {
			t.Fatalf("re-encode %T: %v", m, err)
		}
		if !bytes.Equal(b, b2) {
			t.Fatalf("%T: unstable encoding", m)
		}
	}
}

func TestBundleCodecPreservesDigest(t *testing.T) {
	keys := testkit.Authorities(9, 1)
	docs := testkit.Docs(keys, 25, 1, -1)
	var docSigs []sig.Signature
	for i, d := range docs[:5] {
		docSigs = append(docSigs, signDoc(sig.PublicSet(keys), keys[i], d))
	}
	bundle := &msgBundle{From: 0, Docs: docs[:5], DocSigs: docSigs}
	bundle.Digest = bundleDigest(bundle.Docs)
	b, err := EncodeMessage(bundle)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeMessage(b)
	if err != nil {
		t.Fatal(err)
	}
	gb := got.(*msgBundle)
	if bundleDigest(gb.Docs) != bundle.Digest {
		t.Fatal("bundle digest changed across codec")
	}
	if len(gb.Docs) != 5 || len(gb.DocSigs) != 5 {
		t.Fatal("bundle contents lost")
	}
}

func TestCodecErrors(t *testing.T) {
	if _, err := DecodeMessage(nil); err == nil {
		t.Fatal("empty input accepted")
	}
	if _, err := DecodeMessage([]byte{0xEE}); err == nil {
		t.Fatal("unknown tag accepted")
	}
	// Mismatched bundle docs/sigs refuse to encode.
	keys := testkit.Authorities(9, 1)
	docs := testkit.Docs(keys, 5, 1, 0)
	bad := &msgBundle{From: 0, Docs: docs[:2], DocSigs: []sig.Signature{signDoc(sig.PublicSet(keys), keys[0], docs[0])}}
	if _, err := EncodeMessage(bad); err == nil {
		t.Fatal("lopsided bundle encoded")
	}
}
