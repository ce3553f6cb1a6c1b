package core

import (
	"testing"
	"time"

	"partialtor/internal/sig"
	"partialtor/internal/testkit"
	"partialtor/internal/vote"
)

// sharedMemos returns the run's one registry, after checking that it really
// is one, the embedded agreement replicas included, and the distinct
// documents the authorities hold: a regression that hands each authority its
// own registry or consensus fails here.
func sharedMemos(t *testing.T, auths []*Authority) (*sig.Registry, int) {
	t.Helper()
	docs := map[*vote.Consensus]bool{}
	for i, a := range auths {
		if a.pubs != auths[0].pubs {
			t.Fatalf("authority %d verifies through its own registry", i)
		}
		if a.consensus != nil {
			docs[a.consensus] = true
		}
	}
	return auths[0].pubs, len(docs)
}

func TestHealthyRunSharesOneAggregateAndVerifiesEachSignatureOnce(t *testing.T) {
	cfg := baseConfig(t, 9, 80, 0)
	auths := runScenario(t, cfg, 250e6, 5*time.Minute, nil)
	if res := collect(auths, cfg, nil); res.DoneCount != 9 {
		t.Fatalf("%d of 9 authorities finished", res.DoneCount)
	}
	pubs, docs := sharedMemos(t, auths)
	if docs != 1 {
		t.Fatalf("%d documents after a healthy run, want 1: nine authorities aggregate the one agreed vector", docs)
	}
	// Nine owner signatures, 9×9 endorsements reported to the view-1 leader,
	// nine lock-phase votes, the seven commit-phase votes the leader takes
	// before it decides, nine consensus signatures: the run made every one, so
	// the registry accepts each as it is signed and runs Ed25519 on none.
	if got := pubs.Memoised(); got != 0 {
		t.Fatalf("registry ran Ed25519 on %d signatures, want 0", got)
	}
}

func TestAggregatorHoldsOneEntryPerDistinctVoteSet(t *testing.T) {
	// Agreement comes first, so every authority aggregates the same agreed
	// vector whatever it held during dissemination: one entry with an
	// equivocator (its document is excluded) ...
	cfg := baseConfig(t, 9, 60, 0)
	cfg.Equivocators = map[int]*vote.Document{3: testkit.Docs(cfg.Keys, 30, 77, 0)[3]}
	auths := runScenario(t, cfg, 250e6, 5*time.Minute, nil)
	if _, docs := sharedMemos(t, auths); docs != 1 || auths[0].consensus.NumVotes != 8 {
		t.Fatalf("%d documents with an equivocator, want 1 over 8 votes", docs)
	}
	// ... and one after the five-minute outage (scaled to one minute), when
	// the five silenced authorities catch up and aggregate what the others did.
	cfg = baseConfig(t, 9, 60, 0)
	auths = runScenario(t, cfg, 250e6, 11*time.Minute, func(tn *testkit.Net) {
		for i := 0; i < 5; i++ {
			tn.Throttle(i, 0, time.Minute, 0)
		}
	})
	if _, docs := sharedMemos(t, auths); docs != 1 || auths[0].consensus == nil || auths[0].consensus != auths[8].consensus {
		t.Fatalf("%d documents after the outage, want the one document all authorities share", docs)
	}
}
