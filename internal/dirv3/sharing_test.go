package dirv3

import (
	"testing"
	"time"

	"partialtor/internal/sig"
	"partialtor/internal/testkit"
	"partialtor/internal/vote"
)

// runShared runs cfg and returns the authorities with the run's one registry,
// after checking that it really is one: a regression that hands each
// authority its own fails here.
func runShared(t *testing.T, cfg Config, shape func(*testkit.Net)) ([]*Authority, *sig.Registry) {
	t.Helper()
	auths, _ := runAuthorities(t, cfg, 250e6, shape)
	for i, a := range auths {
		if a.pubs != auths[0].pubs {
			t.Fatalf("authority %d verifies through its own registry", i)
		}
	}
	return auths, auths[0].pubs
}

// distinctConsensuses counts the different documents the authorities computed,
// by content and by pointer: the votes' memo shares one per vote set, so the
// two agree.
func distinctConsensuses(auths []*Authority) (digests, documents int) {
	byDigest, byPointer := map[sig.Digest]bool{}, map[*vote.Consensus]bool{}
	for _, a := range auths {
		if a.consensus != nil {
			byDigest[a.consDigest], byPointer[a.consensus] = true, true
		}
	}
	return len(byDigest), len(byPointer)
}

func TestHealthyRunSharesOneAggregateAndVerifiesEachSignatureOnce(t *testing.T) {
	auths, pubs := runShared(t, baseConfig(t, 9, 100, -1), nil)
	if res := collect(auths); res.SuccessCount != 9 {
		t.Fatalf("%d of 9 authorities succeeded", res.SuccessCount)
	}
	if _, docs := distinctConsensuses(auths); docs != 1 {
		t.Fatalf("%d documents after a healthy run, want 1: nine authorities hold the same nine votes", docs)
	}
	// Nine vote signatures and nine consensus signatures, each verified by
	// eight peers: the run made all 18, so the registry accepts each as it is
	// signed and runs Ed25519 on none of the 144 verifications.
	if got := pubs.Memoised(); got != 0 {
		t.Fatalf("registry ran Ed25519 on %d signatures, want 0", got)
	}
}

func TestAggregatorHoldsOneEntryPerDistinctVoteSet(t *testing.T) {
	// An equivocator splits the authorities into two camps holding different
	// votes from authority 0: each camp gets its own consensus, not the other's.
	cfg := baseConfig(t, 9, 80, 0)
	cfg.Equivocators = map[int]*vote.Document{0: testkit.Docs(cfg.Keys, 40, 99, 0)[0]}
	auths, _ := runShared(t, cfg, nil)
	if want, docs := distinctConsensuses(auths); want < 2 || docs != want {
		t.Fatalf("%d documents for %d distinct consensuses (want at least 2)", docs, want)
	}

	// Authority 8 can hear but not speak until the votes are counted: it
	// aggregates nine votes, the other eight aggregate the eight they hold.
	cfg = baseConfig(t, 9, 100, -1)
	cfg.Round, cfg.FetchTimeout = 15*time.Second, 3*time.Second
	auths, _ = runShared(t, cfg, func(tn *testkit.Net) {
		tn.Up[8].ThrottleMin(0, 31*time.Second, 0)
	})
	if want, docs := distinctConsensuses(auths); want != 2 || docs != want {
		t.Fatalf("%d documents for %d distinct consensuses under the outage, want 2 and 2", docs, want)
	}
	if auths[0].consensus != auths[1].consensus || auths[0].consensus == auths[8].consensus {
		t.Fatal("authorities 0 and 1 hold the same votes and must share one document; authority 8 must not")
	}
}

// TestEquivocatorMixedSetDigestsHold: the camp holding the equivocator's
// second vote aggregates a mixed set, whose votes come from two memos; both
// camps' documents keep the digests they had before the memo moved from the
// run to the votes.
func TestEquivocatorMixedSetDigestsHold(t *testing.T) {
	cfg := baseConfig(t, 9, 80, 0)
	cfg.Equivocators = map[int]*vote.Document{0: testkit.Docs(cfg.Keys, 40, 99, 0)[0]}
	auths, _ := runShared(t, cfg, nil)
	got := map[string]bool{}
	for _, a := range auths {
		if a.consensus != nil {
			got[a.consDigest.Hex()] = true
		}
	}
	for _, want := range []string{
		"b09e7ab1f50fb482cddf3619b945139c4b434178d78b16c691cb8a63fdef2aec",
		"edee196c9d2828c39c76c9d123c149afc7216276c04ebe0d033933504f53f22d",
	} {
		if !got[want] {
			t.Errorf("no authority computed consensus %s", want)
		}
	}
	if len(got) != 2 {
		t.Errorf("authorities computed %d distinct consensuses, want the two pinned: %v", len(got), got)
	}
}
