package core

import (
	"bytes"
	"testing"
	"testing/quick"

	"partialtor/internal/hotstuff"
	"partialtor/internal/sig"
	"partialtor/internal/testkit"
	"partialtor/internal/vote"
)

// mustHSProposal wraps an AgreementValue in an agreement-layer proposal.
func mustHSProposal(v *AgreementValue) *hotstuff.MsgProposal {
	return &hotstuff.MsgProposal{View: 1, Value: v}
}

func TestValueCodecRoundTrip(t *testing.T) {
	keys := testkit.Authorities(9, 1)
	v := buildOKValue(t, keys, 2)
	// Add a ⊥(timeout) and a ⊥(equivocation) entry to cover all variants.
	var zero sig.Digest
	v.Entries[7] = ValueEntry{Status: EntryBotTimeout}
	for k := 0; k < 3; k++ {
		v.Entries[7].Endorsements = append(v.Entries[7].Endorsements,
			keys[k].Sign(domainEndorse, entryInput(nil, 7, zero)))
	}
	dA, dB := sig.Hash([]byte("a")), sig.Hash([]byte("b"))
	v.Entries[8] = ValueEntry{
		Status:       EntryBotEquivocation,
		EquivDigests: [2]sig.Digest{dA, dB},
		EquivSigs: [2]sig.Signature{
			keys[8].Sign(domainDoc, entryInput(nil, 8, dA)),
			keys[8].Sign(domainDoc, entryInput(nil, 8, dB)),
		},
	}
	v.encoded = nil

	b := EncodeValue(v)
	got, err := DecodeValue(b)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Digest() != v.Digest() {
		t.Fatal("digest changed across codec round trip")
	}
	if got.Proposer != v.Proposer || len(got.Entries) != len(v.Entries) {
		t.Fatal("header fields lost")
	}
	for j := range v.Entries {
		a, b := v.Entries[j], got.Entries[j]
		if a.Status != b.Status || a.Digest != b.Digest || a.OwnerSig != b.OwnerSig ||
			len(a.Endorsements) != len(b.Endorsements) ||
			a.EquivDigests != b.EquivDigests || a.EquivSigs != b.EquivSigs {
			t.Fatalf("entry %d mismatch", j)
		}
	}
	// The decoded value still verifies (proofs intact).
	if err := got.Verify(sig.PublicSet(keys), 9, 2); err != nil {
		t.Fatalf("decoded value fails verification: %v", err)
	}
}

func TestValueCodecRejectsGarbage(t *testing.T) {
	if _, err := DecodeValue(nil); err == nil {
		t.Fatal("empty value accepted")
	}
	keys := testkit.Authorities(4, 1)
	b := EncodeValue(buildOKValue(t, keys, 1))
	if _, err := DecodeValue(b[:len(b)/2]); err == nil {
		t.Fatal("truncated value accepted")
	}
	if _, err := DecodeValue(append(append([]byte{}, b...), 9)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func mkDoc(t *testing.T, authority, relays int) (*vote.Document, sig.Signature) {
	t.Helper()
	keys := testkit.Authorities(9, 3)
	d := testkit.Docs(keys, relays, 3, 0)[authority]
	return d, ownerSign(sig.PublicSet(keys), keys[authority], d)
}

func TestMessageCodecRoundTrips(t *testing.T) {
	keys := testkit.Authorities(9, 3)
	doc, ownerSig := mkDoc(t, 2, 12)

	entries := make([]ProposalEntry, 9)
	var zero sig.Digest
	for j := range entries {
		d := sig.Hash([]byte{byte(j)})
		if j%3 == 0 {
			d = zero
		}
		entries[j] = ProposalEntry{
			Digest:   d,
			OwnerSig: keys[j].Sign(domainDoc, entryInput(nil, j, d)),
			Endorse:  keys[1].Sign(domainEndorse, entryInput(nil, j, d)),
		}
	}

	msgs := []struct {
		name string
		m    interface {
			Size() int64
			Kind() string
		}
	}{
		{"document", &MsgDocument{Doc: doc, OwnerSig: ownerSig}},
		{"proposal", &MsgProposal{View: 4, From: 1, Entries: entries}},
		{"fetch", &MsgFetch{Index: 3, WantDigest: sig.Hash([]byte("w"))}},
		{"fetch-resp", &MsgFetchResponse{Doc: doc, OwnerSig: ownerSig}},
		{"conssig", &MsgConsSig{Digest: sig.Hash([]byte("c")), Sig: keys[0].Sign(domainConsensus, nil)}},
	}
	for _, c := range msgs {
		t.Run(c.name, func(t *testing.T) {
			b, err := EncodeMessage(c.m)
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			got, err := DecodeMessage(b)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if got.Kind() != c.m.Kind() {
				t.Fatalf("kind %q -> %q", c.m.Kind(), got.Kind())
			}
			b2, err := EncodeMessage(got)
			if err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			if !bytes.Equal(b, b2) {
				t.Fatal("encoding not stable")
			}
		})
	}
}

func TestDocumentSurvivesCodec(t *testing.T) {
	doc, ownerSig := mkDoc(t, 5, 30)
	b, err := EncodeMessage(&MsgDocument{Doc: doc, OwnerSig: ownerSig})
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeMessage(b)
	if err != nil {
		t.Fatal(err)
	}
	gd := got.(*MsgDocument).Doc
	if gd.Digest() != doc.Digest() {
		t.Fatal("document digest changed")
	}
	if len(gd.Relays.Listings) != len(doc.Relays.Listings) {
		t.Fatal("relays lost")
	}
	// The owner signature still verifies against the decoded digest.
	keys := testkit.Authorities(9, 3)
	if !sig.Verify(sig.PublicSet(keys), domainDoc, entryInput(nil, 5, gd.Digest()), got.(*MsgDocument).OwnerSig) {
		t.Fatal("owner signature broken by codec")
	}
}

func TestDecodeAnyRoutesByTag(t *testing.T) {
	// An ICPS message and an agreement message both decode via DecodeAny.
	b1, err := EncodeMessage(&MsgFetch{Index: 1, WantDigest: sig.Hash([]byte("x"))})
	if err != nil {
		t.Fatal(err)
	}
	if m, err := DecodeAny(b1); err != nil || m.Kind() != "icps/fetch" {
		t.Fatalf("DecodeAny(icps): %v %v", m, err)
	}
	keys := testkit.Authorities(9, 1)
	v := buildOKValue(t, keys, 2)
	b2, err := EncodeMessage(mustHSProposal(v))
	if err != nil {
		t.Fatal(err)
	}
	if m, err := DecodeAny(b2); err != nil || m.Kind() != "hotstuff/proposal" {
		t.Fatalf("DecodeAny(hotstuff): %v %v", m, err)
	}
	if _, err := DecodeAny(nil); err == nil {
		t.Fatal("empty accepted")
	}
}

func TestProposalEntryQuickRoundTrip(t *testing.T) {
	keys := testkit.Authorities(4, 9)
	f := func(view uint8, from uint8, digestSeed []byte) bool {
		d := sig.Hash(digestSeed)
		m := &MsgProposal{
			View: int(view)%100 + 1,
			From: int(from) % 4,
			Entries: []ProposalEntry{{
				Digest:   d,
				OwnerSig: keys[0].Sign(domainDoc, entryInput(nil, 0, d)),
				Endorse:  keys[1].Sign(domainEndorse, entryInput(nil, 0, d)),
			}},
		}
		b, err := EncodeMessage(m)
		if err != nil {
			return false
		}
		got, err := DecodeMessage(b)
		if err != nil {
			return false
		}
		g := got.(*MsgProposal)
		return g.View == m.View && g.From == m.From && g.Entries[0] == m.Entries[0]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
