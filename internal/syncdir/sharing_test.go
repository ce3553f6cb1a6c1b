package syncdir

import (
	"testing"
	"time"

	"partialtor/internal/sig"
	"partialtor/internal/testkit"
	"partialtor/internal/vote"
)

// runShared runs cfg and returns the authorities with the run's one registry,
// after checking that it really is one, and the distinct documents they hold:
// a regression that hands each authority its own registry or consensus fails
// here.
func runShared(t *testing.T, cfg Config, shape func(*testkit.Net)) ([]*Authority, *sig.Registry, int) {
	t.Helper()
	auths, _ := runAuthorities(t, cfg, 250e6, shape)
	docs := map[*vote.Consensus]bool{}
	for i, a := range auths {
		if a.pubs != auths[0].pubs {
			t.Fatalf("authority %d verifies through its own registry", i)
		}
		if a.consensus != nil {
			docs[a.consensus] = true
		}
	}
	return auths, auths[0].pubs, len(docs)
}

func TestHealthyRunSharesOneAggregateAndVerifiesEachSignatureOnce(t *testing.T) {
	cfg := baseConfig(t, 9, 80, 0)
	cfg.Round = 20 * time.Second
	auths, pubs, docs := runShared(t, cfg, nil)
	if res := collect(auths); res.SuccessCount != 9 {
		t.Fatalf("%d of 9 authorities succeeded", res.SuccessCount)
	}
	if docs != 1 {
		t.Fatalf("%d documents after a healthy run, want 1: nine authorities agreed on one bundle", docs)
	}
	// Nine document signatures, the leader's chain signature plus the eight
	// one-step extensions of it, nine consensus signatures: the run made every
	// one, so the registry accepts each as it is signed and runs Ed25519 on
	// none.
	if got := pubs.Memoised(); got != 0 {
		t.Fatalf("registry ran Ed25519 on %d signatures, want 0", got)
	}
}

func TestAggregatorHoldsOneEntryPerDistinctVoteSet(t *testing.T) {
	// The protocol agrees on one bundle or on none, so there is never more
	// than one vote set to aggregate: none under an equivocating leader ...
	cfg := baseConfig(t, 9, 60, 0)
	cfg.Round, cfg.EquivocateLeader = 10*time.Second, true
	if _, _, docs := runShared(t, cfg, nil); docs != 0 {
		t.Fatalf("%d documents though every honest authority output bottom", docs)
	}
	// ... and one when authority 8 is cut off through the propose round: the
	// leader bundles the eight documents it holds, and all nine authorities
	// aggregate those eight.
	cfg = baseConfig(t, 9, 60, 0)
	cfg.Round = 10 * time.Second
	auths, _, docs := runShared(t, cfg, func(tn *testkit.Net) { tn.Throttle(8, 0, 11*time.Second, 0) })
	if docs != 1 || auths[0].consensus == nil || auths[0].consensus != auths[8].consensus {
		t.Fatalf("%d documents, want the one document all authorities share", docs)
	}
	if got := auths[0].consensus.NumVotes; got != 8 {
		t.Fatalf("consensus aggregates %d votes, want the 8 of the leader's bundle", got)
	}
}
