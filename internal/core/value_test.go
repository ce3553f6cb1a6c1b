package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"partialtor/internal/sig"
	"partialtor/internal/testkit"
)

// buildOKValue constructs a valid AgreementValue over synthetic digests.
func buildOKValue(t *testing.T, keys []*sig.KeyPair, f int) *AgreementValue {
	t.Helper()
	n := len(keys)
	v := &AgreementValue{Proposer: 0, Entries: make([]ValueEntry, n)}
	for j := 0; j < n; j++ {
		d := sig.Hash([]byte{byte(j), 0xAA})
		e := ValueEntry{
			Status:   EntryOK,
			Digest:   d,
			OwnerSig: keys[j].Sign(domainDoc, entryInput(nil, j, d)),
		}
		for k := 0; k < f+1; k++ {
			e.Endorsements = append(e.Endorsements, keys[k].Sign(domainEndorse, entryInput(nil, j, d)))
		}
		v.Entries[j] = e
	}
	return v
}

func TestValueVerifyAccepts(t *testing.T) {
	keys := testkit.Authorities(9, 1)
	pubs := sig.PublicSet(keys)
	v := buildOKValue(t, keys, 2)
	if err := v.Verify(pubs, 9, 2); err != nil {
		t.Fatalf("valid value rejected: %v", err)
	}
	if v.OKCount() != 9 {
		t.Fatalf("OKCount=%d", v.OKCount())
	}
}

func TestValueVerifyRejectsTampering(t *testing.T) {
	keys := testkit.Authorities(9, 1)
	pubs := sig.PublicSet(keys)

	t.Run("wrong length", func(t *testing.T) {
		v := buildOKValue(t, keys, 2)
		v.Entries = v.Entries[:8]
		v.encoded = nil
		if v.Verify(pubs, 9, 2) == nil {
			t.Fatal("short vector accepted")
		}
	})

	t.Run("too few OK entries", func(t *testing.T) {
		v := buildOKValue(t, keys, 2)
		for j := 0; j < 3; j++ {
			var e ValueEntry
			e.Status = EntryBotTimeout
			var zero sig.Digest
			for k := 0; k < 3; k++ {
				e.Endorsements = append(e.Endorsements, keys[k].Sign(domainEndorse, entryInput(nil, j, zero)))
			}
			v.Entries[j] = e
		}
		v.encoded = nil
		if v.Verify(pubs, 9, 2) == nil {
			t.Fatal("6 OK entries accepted with quorum 7")
		}
	})

	t.Run("forged owner signature", func(t *testing.T) {
		v := buildOKValue(t, keys, 2)
		v.Entries[4].OwnerSig = keys[5].Sign(domainDoc, entryInput(nil, 4, v.Entries[4].Digest))
		v.encoded = nil
		if v.Verify(pubs, 9, 2) == nil {
			t.Fatal("owner signature by wrong key accepted")
		}
	})

	t.Run("insufficient endorsements", func(t *testing.T) {
		v := buildOKValue(t, keys, 2)
		v.Entries[2].Endorsements = v.Entries[2].Endorsements[:2]
		v.encoded = nil
		if v.Verify(pubs, 9, 2) == nil {
			t.Fatal("f endorsements accepted, need f+1")
		}
	})

	t.Run("duplicate endorsers", func(t *testing.T) {
		v := buildOKValue(t, keys, 2)
		v.Entries[2].Endorsements[1] = v.Entries[2].Endorsements[0]
		v.encoded = nil
		if v.Verify(pubs, 9, 2) == nil {
			t.Fatal("duplicate endorsers accepted")
		}
	})

	t.Run("endorsement for different digest", func(t *testing.T) {
		v := buildOKValue(t, keys, 2)
		other := sig.Hash([]byte("other"))
		v.Entries[2].Endorsements[0] = keys[0].Sign(domainEndorse, entryInput(nil, 2, other))
		v.encoded = nil
		if v.Verify(pubs, 9, 2) == nil {
			t.Fatal("mismatched endorsement accepted")
		}
	})

	t.Run("zero digest marked OK", func(t *testing.T) {
		v := buildOKValue(t, keys, 2)
		var zero sig.Digest
		v.Entries[2].Digest = zero
		v.encoded = nil
		if v.Verify(pubs, 9, 2) == nil {
			t.Fatal("zero digest accepted as OK")
		}
	})
}

func TestValueVerifyEquivocationProof(t *testing.T) {
	keys := testkit.Authorities(9, 1)
	pubs := sig.PublicSet(keys)
	v := buildOKValue(t, keys, 2)
	dA := sig.Hash([]byte("docA"))
	dB := sig.Hash([]byte("docB"))
	v.Entries[6] = ValueEntry{
		Status:       EntryBotEquivocation,
		EquivDigests: [2]sig.Digest{dA, dB},
		EquivSigs: [2]sig.Signature{
			keys[6].Sign(domainDoc, entryInput(nil, 6, dA)),
			keys[6].Sign(domainDoc, entryInput(nil, 6, dB)),
		},
	}
	v.encoded = nil
	if err := v.Verify(pubs, 9, 2); err != nil {
		t.Fatalf("valid equivocation proof rejected: %v", err)
	}

	// Equal digests are not a proof.
	bad := *v
	bad.Entries = append([]ValueEntry{}, v.Entries...)
	bad.Entries[6].EquivDigests[1] = dA
	bad.encoded = nil
	if bad.Verify(pubs, 9, 2) == nil {
		t.Fatal("equal-digest equivocation proof accepted")
	}

	// A proof signed by a different authority is invalid.
	bad2 := *v
	bad2.Entries = append([]ValueEntry{}, v.Entries...)
	bad2.Entries[6].EquivSigs[0] = keys[5].Sign(domainDoc, entryInput(nil, 6, dA))
	bad2.encoded = nil
	if bad2.Verify(pubs, 9, 2) == nil {
		t.Fatal("equivocation proof by wrong signer accepted")
	}
}

func TestValueVerifyBotTimeout(t *testing.T) {
	keys := testkit.Authorities(9, 1)
	pubs := sig.PublicSet(keys)
	v := buildOKValue(t, keys, 2)
	var zero sig.Digest
	e := ValueEntry{Status: EntryBotTimeout}
	for k := 0; k < 3; k++ {
		e.Endorsements = append(e.Endorsements, keys[k].Sign(domainEndorse, entryInput(nil, 5, zero)))
	}
	v.Entries[5] = e
	v.encoded = nil
	if err := v.Verify(pubs, 9, 2); err != nil {
		t.Fatalf("valid timeout entry rejected: %v", err)
	}
	// ⊥-endorsements for the wrong index fail.
	bad := *v
	bad.Entries = append([]ValueEntry{}, v.Entries...)
	bad.Entries[5].Endorsements = nil
	for k := 0; k < 3; k++ {
		bad.Entries[5].Endorsements = append(bad.Entries[5].Endorsements,
			keys[k].Sign(domainEndorse, entryInput(nil, 4, zero)))
	}
	bad.encoded = nil
	if bad.Verify(pubs, 9, 2) == nil {
		t.Fatal("timeout proof for wrong index accepted")
	}
}

func TestValueDigestStable(t *testing.T) {
	keys := testkit.Authorities(4, 1)
	a := buildOKValue(t, keys, 1)
	b := buildOKValue(t, keys, 1)
	if a.Digest() != b.Digest() {
		t.Fatal("identical values hash differently")
	}
	if a.Size() <= 0 {
		t.Fatal("value has no size")
	}
	c := buildOKValue(t, keys, 1)
	c.Proposer = 2
	if c.Digest() == a.Digest() {
		t.Fatal("different proposers hash equal")
	}
	vec := a.DigestVector()
	if len(vec) != 4 || vec[0].IsZero() {
		t.Fatalf("digest vector %v", vec)
	}
}

func TestEntryStatusString(t *testing.T) {
	if EntryOK.String() != "OK" || EntryStatus(9).String() == "" {
		t.Fatal("status strings broken")
	}
}

// TestEntryInputMatchesFmt pins entryInput byte for byte to the fmt rendering
// "%d|%x" it replaced: every per-entry signature covers these bytes. Built
// into an entryInputCap buffer, it allocates nothing.
func TestEntryInputMatchesFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var random sig.Digest
	rng.Read(random[:])
	var buf [entryInputCap]byte
	for _, j := range []int{0, 8, 10, 123} {
		for _, d := range []sig.Digest{{}, random} {
			if got, want := string(entryInput(buf[:0], j, d)), fmt.Sprintf("%d|%x", j, d[:]); got != want {
				t.Errorf("entryInput(%d, %x) = %q, want %q", j, d[:4], got, want)
			}
		}
	}
	if n := testing.AllocsPerRun(10, func() { entryInput(buf[:0], math.MaxInt, random) }); n != 0 {
		t.Errorf("entryInput into a stack buffer allocated %.0f times, want 0", n)
	}
}
