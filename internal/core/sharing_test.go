package core

import (
	"reflect"
	"testing"
	"time"

	"partialtor/internal/sig"
	"partialtor/internal/testkit"
	"partialtor/internal/vote"
)

// sharedMemos returns the run's one registry and one aggregator after
// checking that they really are one, the embedded agreement replicas
// included: a regression that hands each authority its own fails here.
func sharedMemos(t *testing.T, auths []*Authority) (*sig.Registry, vote.Aggregator) {
	t.Helper()
	for i, a := range auths {
		if a.pubs != auths[0].pubs {
			t.Fatalf("authority %d verifies through its own registry", i)
		}
		if reflect.ValueOf(a.agg).Pointer() != reflect.ValueOf(auths[0].agg).Pointer() {
			t.Fatalf("authority %d aggregates through its own aggregator", i)
		}
	}
	return auths[0].pubs, auths[0].agg
}

func TestHealthyRunSharesOneAggregateAndVerifiesEachSignatureOnce(t *testing.T) {
	cfg := baseConfig(t, 9, 80, 0)
	auths := runScenario(t, cfg, 250e6, 5*time.Minute, nil)
	if res := Collect(auths, cfg, nil); res.DoneCount != 9 {
		t.Fatalf("%d of 9 authorities finished", res.DoneCount)
	}
	pubs, agg := sharedMemos(t, auths)
	if len(agg) != 1 {
		t.Fatalf("aggregator holds %d entries after a healthy run, want 1: nine authorities aggregate the one agreed vector", len(agg))
	}
	// Nine owner signatures, 9×9 endorsements reported to the view-1 leader,
	// nine lock-phase votes, the seven commit-phase votes the leader takes
	// before it decides, nine consensus signatures.
	if got := pubs.Memoised(); got != 115 {
		t.Fatalf("registry judged %d distinct signatures, want 115", got)
	}
}

func TestAggregatorHoldsOneEntryPerDistinctVoteSet(t *testing.T) {
	// Agreement comes first, so every authority aggregates the same agreed
	// vector whatever it held during dissemination: one entry with an
	// equivocator (its document is excluded) ...
	cfg := baseConfig(t, 9, 60, 0)
	cfg.Equivocators = map[int]*vote.Document{3: testkit.Docs(cfg.Keys, 30, 77, 0)[3]}
	auths := runScenario(t, cfg, 250e6, 5*time.Minute, nil)
	if _, agg := sharedMemos(t, auths); len(agg) != 1 || auths[0].consensus.NumVotes != 8 {
		t.Fatalf("aggregator holds %d entries with an equivocator, want 1 over 8 votes", len(agg))
	}
	// ... and one after the five-minute outage (scaled to one minute), when
	// the five silenced authorities catch up and aggregate what the others did.
	cfg = baseConfig(t, 9, 60, 0)
	auths = runScenario(t, cfg, 250e6, 11*time.Minute, func(tn *testkit.Net) {
		for i := 0; i < 5; i++ {
			tn.Throttle(i, 0, time.Minute, 0)
		}
	})
	if _, agg := sharedMemos(t, auths); len(agg) != 1 || auths[0].consensus == nil || auths[0].consensus != auths[8].consensus {
		t.Fatalf("aggregator holds %d entries after the outage, want the one document all authorities share", len(agg))
	}
}
