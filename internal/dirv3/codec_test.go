package dirv3

import (
	"bytes"
	"testing"

	"partialtor/internal/sig"
	"partialtor/internal/simnet"
	"partialtor/internal/testkit"
)

func TestCodecRoundTrips(t *testing.T) {
	keys := testkit.Authorities(9, 1)
	docs := testkit.Docs(keys, 15, 1, 0)
	doc := docs[4]
	ds := signDoc(sig.PublicSet(keys), keys[4], doc)
	digest := sig.Hash([]byte("consensus"))
	cs := keys[2].Sign(domainConsensus, digest[:])

	cases := []simnet.Message{
		&msgVote{Doc: doc, Sig: ds},
		&msgVoteRequest{Want: 7},
		&msgVoteResponse{Doc: doc, Sig: ds},
		&msgSig{Digest: digest, Sig: cs},
		&msgSigRequest{Want: 2},
		&msgSigResponse{Of: 2, Digest: digest, Sig: cs},
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
			t.Fatalf("kind %q -> %q", m.Kind(), got.Kind())
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

func TestCodecPreservesVoteSignature(t *testing.T) {
	keys := testkit.Authorities(9, 1)
	docs := testkit.Docs(keys, 20, 1, -1)
	m := &msgVote{Doc: docs[3], Sig: signDoc(sig.PublicSet(keys), keys[3], docs[3])}
	b, err := EncodeMessage(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeMessage(b)
	if err != nil {
		t.Fatal(err)
	}
	gv := got.(*msgVote)
	dg := gv.Doc.Digest()
	if !sig.Verify(sig.PublicSet(keys), domainVote, dg[:], gv.Sig) {
		t.Fatal("vote signature broken by codec")
	}
	if gv.Doc.Digest() != m.Doc.Digest() {
		t.Fatal("document digest changed")
	}
}

func TestCodecErrors(t *testing.T) {
	if _, err := DecodeMessage(nil); err == nil {
		t.Fatal("empty input accepted")
	}
	if _, err := DecodeMessage([]byte{0x99}); err == nil {
		t.Fatal("unknown tag accepted")
	}
	b, err := EncodeMessage(&msgVoteRequest{Want: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeMessage(append(b, 1)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}
