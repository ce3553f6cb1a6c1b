package core

import (
	"testing"

	"partialtor/internal/sig"
	"partialtor/internal/testkit"
)

// leaderHarness builds an authority and hand-feeds it proposals so the
// classification rules of Figure 9 step 3 can be tested in isolation.
type leaderHarness struct {
	cfg   Config
	keys  []*sig.KeyPair
	auths []*Authority
}

func newLeaderHarness(t *testing.T) *leaderHarness {
	t.Helper()
	keys := testkit.Authorities(9, 1)
	docs := testkit.Docs(keys, 10, 1, 0)
	cfg := Config{Keys: keys, Docs: docs}
	return &leaderHarness{cfg: cfg, keys: keys, auths: NewAuthorities(cfg)}
}

// entryFor builds node `from`'s proposal entry about authority j: either
// the digest d (owner-signed by j) or ⊥ when d is nil.
func (h *leaderHarness) entryFor(from, j int, d *sig.Digest) ProposalEntry {
	var zero sig.Digest
	if d == nil {
		return ProposalEntry{
			Digest:  zero,
			Endorse: h.keys[from].Sign(domainEndorse, entryInput(nil, j, zero)),
		}
	}
	return ProposalEntry{
		Digest:   *d,
		OwnerSig: h.keys[j].Sign(domainDoc, entryInput(nil, j, *d)),
		Endorse:  h.keys[from].Sign(domainEndorse, entryInput(nil, j, *d)),
	}
}

// feed stores a proposal with the leader (authority 0) for view 1,
// bypassing the network. opinion(j) returns the digest node `from` reports
// for j (nil = ⊥).
func (h *leaderHarness) feed(from int, opinion func(j int) *sig.Digest) {
	leader := h.auths[0]
	entries := make([]ProposalEntry, 9)
	for j := range entries {
		entries[j] = h.entryFor(from, j, opinion(j))
	}
	leader.at(1).proposals[from] = entries
}

func digestPtr(s string) *sig.Digest {
	d := sig.Hash([]byte(s))
	return &d
}

func TestBuildValueNeedsQuorumOfProposals(t *testing.T) {
	h := newLeaderHarness(t)
	all := digestPtr("doc")
	for from := 0; from < 6; from++ { // 6 < n-f = 7
		h.feed(from, func(int) *sig.Digest { return all })
	}
	if v := h.auths[0].buildValue(1); v != nil {
		t.Fatal("value built from fewer than n−f proposals")
	}
	h.feed(6, func(int) *sig.Digest { return all })
	v := h.auths[0].buildValue(1)
	if v == nil {
		t.Fatal("value not built from n−f proposals")
	}
	if v.OKCount() != 9 {
		t.Fatalf("OKCount=%d", v.OKCount())
	}
}

func TestBuildValueRuleA_OKWithFPlusOneEndorsements(t *testing.T) {
	h := newLeaderHarness(t)
	d := digestPtr("doc")
	// Exactly f+1 = 3 nodes saw authority 5's document; the rest saw ⊥.
	for from := 0; from < 9; from++ {
		from := from
		h.feed(from, func(j int) *sig.Digest {
			if j == 5 && from >= 3 {
				return nil
			}
			return d
		})
	}
	v := h.auths[0].buildValue(1)
	if v == nil {
		t.Fatal("no value")
	}
	if v.Entries[5].Status != EntryOK {
		t.Fatalf("entry 5 status %v, want OK (3 endorsements ≥ f+1)", v.Entries[5].Status)
	}
	if len(v.Entries[5].Endorsements) != 3 {
		t.Fatalf("entry 5 carries %d endorsements, want exactly f+1=3", len(v.Entries[5].Endorsements))
	}
	// The assembled proof must verify.
	if err := v.Verify(sig.PublicSet(h.keys), 9, 2); err != nil {
		t.Fatalf("built value does not verify: %v", err)
	}
}

func TestBuildValueRuleB_EquivocationWins(t *testing.T) {
	h := newLeaderHarness(t)
	dA, dB := digestPtr("docA"), digestPtr("docB")
	// Authority 4 equivocated: 5 nodes saw A, 4 saw B. Even though A has
	// f+1 endorsements, the equivocation proof must take precedence (rule
	// b before rule a).
	for from := 0; from < 9; from++ {
		from := from
		h.feed(from, func(j int) *sig.Digest {
			if j != 4 {
				return dA
			}
			if from < 5 {
				return dA
			}
			return dB
		})
	}
	v := h.auths[0].buildValue(1)
	if v == nil {
		t.Fatal("no value")
	}
	if v.Entries[4].Status != EntryBotEquivocation {
		t.Fatalf("entry 4 status %v, want ⊥(equivocation)", v.Entries[4].Status)
	}
	if v.Entries[4].EquivDigests[0] == v.Entries[4].EquivDigests[1] {
		t.Fatal("equivocation proof digests equal")
	}
	if err := v.Verify(sig.PublicSet(h.keys), 9, 2); err != nil {
		t.Fatalf("built value does not verify: %v", err)
	}
}

func TestBuildValueRuleC_BotTimeout(t *testing.T) {
	h := newLeaderHarness(t)
	d := digestPtr("doc")
	// Nobody saw authority 7's document.
	for from := 0; from < 9; from++ {
		h.feed(from, func(j int) *sig.Digest {
			if j == 7 {
				return nil
			}
			return d
		})
	}
	v := h.auths[0].buildValue(1)
	if v == nil {
		t.Fatal("no value")
	}
	if v.Entries[7].Status != EntryBotTimeout {
		t.Fatalf("entry 7 status %v, want ⊥(timeout)", v.Entries[7].Status)
	}
	if len(v.Entries[7].Endorsements) != 3 {
		t.Fatalf("⊥ proof carries %d signatures, want f+1=3", len(v.Entries[7].Endorsements))
	}
}

func TestBuildValueUnclassifiableEntryBlocks(t *testing.T) {
	h := newLeaderHarness(t)
	d := digestPtr("doc")
	// Entry 8: only 2 nodes saw the digest (< f+1) and only 2 endorsed ⊥
	// among the 7 proposals received — hold 3 back so neither side has
	// f+1... with 7 proposals over {digest, ⊥} one side always reaches 3,
	// so feed only 7 proposals where entry 8 splits 2 digest / 5 ⊥: ⊥
	// wins. To get a genuinely unclassifiable entry we need fewer views of
	// each kind than f+1 with ≥ n−f proposals — impossible by pigeonhole
	// (the guarantee §5.2.1 relies on). Verify the pigeonhole instead.
	for from := 0; from < 7; from++ {
		from := from
		h.feed(from, func(j int) *sig.Digest {
			if j == 8 && from >= 2 {
				return nil
			}
			return d
		})
	}
	v := h.auths[0].buildValue(1)
	if v == nil {
		t.Fatal("value not built despite classifiable entries")
	}
	if v.Entries[8].Status != EntryBotTimeout {
		t.Fatalf("entry 8 status %v, want ⊥(timeout) with 5 ⊥ opinions", v.Entries[8].Status)
	}
}

func TestBuildValueTooFewOKEntriesWaits(t *testing.T) {
	h := newLeaderHarness(t)
	// Everyone reports ⊥ for 3 authorities: only 6 OK < n−f = 7, so the
	// leader must keep waiting rather than propose an unready H.
	d := digestPtr("doc")
	for from := 0; from < 9; from++ {
		h.feed(from, func(j int) *sig.Digest {
			if j < 3 {
				return nil
			}
			return d
		})
	}
	if v := h.auths[0].buildValue(1); v != nil {
		t.Fatalf("leader proposed an unready H with %d OK entries", v.OKCount())
	}
}

func TestBuildValueInvalidProposalRejected(t *testing.T) {
	h := newLeaderHarness(t)
	// acceptProposal must reject a proposal whose owner signature is
	// forged, so it never reaches buildValue.
	leader := h.auths[0]
	d := sig.Hash([]byte("forged"))
	entries := make([]ProposalEntry, 9)
	for j := range entries {
		entries[j] = ProposalEntry{
			Digest:   d,
			OwnerSig: h.keys[(j+1)%9].Sign(domainDoc, entryInput(nil, j, d)), // wrong signer
			Endorse:  h.keys[1].Sign(domainEndorse, entryInput(nil, j, d)),
		}
	}
	// Feed through the real acceptance path; the forged entry is rejected
	// before any state (or the context) is touched.
	leader.acceptProposal(nil, &MsgProposal{View: 1, From: 1, Entries: entries})
	if len(leader.at(1).proposals) != 0 {
		t.Fatal("forged proposal accepted")
	}
}
