package dirv3

import (
	"reflect"
	"testing"
	"time"

	"partialtor/internal/sig"
	"partialtor/internal/testkit"
	"partialtor/internal/vote"
)

// runShared runs cfg and returns the authorities with the run's one registry
// and one aggregator, after checking that they really are one: a regression
// that hands each authority its own fails here.
func runShared(t *testing.T, cfg Config, shape func(*testkit.Net)) ([]*Authority, *sig.Registry, vote.Aggregator) {
	t.Helper()
	auths, _ := runAuthorities(t, cfg, 250e6, shape)
	for i, a := range auths {
		if a.pubs != auths[0].pubs {
			t.Fatalf("authority %d verifies through its own registry", i)
		}
		if reflect.ValueOf(a.agg).Pointer() != reflect.ValueOf(auths[0].agg).Pointer() {
			t.Fatalf("authority %d aggregates through its own aggregator", i)
		}
	}
	return auths, auths[0].pubs, auths[0].agg
}

// distinctConsensuses counts the different documents the authorities computed.
func distinctConsensuses(auths []*Authority) int {
	seen := map[sig.Digest]bool{}
	for _, a := range auths {
		if a.computed {
			seen[a.consDigest] = true
		}
	}
	return len(seen)
}

func TestHealthyRunSharesOneAggregateAndVerifiesEachSignatureOnce(t *testing.T) {
	auths, pubs, agg := runShared(t, baseConfig(t, 9, 100, -1), nil)
	if res := Collect(auths, *auths[0].cfg); res.SuccessCount != 9 {
		t.Fatalf("%d of 9 authorities succeeded", res.SuccessCount)
	}
	if len(agg) != 1 {
		t.Fatalf("aggregator holds %d entries after a healthy run, want 1: nine authorities hold the same nine votes", len(agg))
	}
	// Nine vote signatures and nine consensus signatures, each verified by
	// eight peers: 18 distinct signatures, not 144 verifications.
	if got := pubs.Memoised(); got != 18 {
		t.Fatalf("registry judged %d distinct signatures, want 18", got)
	}
}

func TestAggregatorHoldsOneEntryPerDistinctVoteSet(t *testing.T) {
	// An equivocator splits the authorities into two camps holding different
	// votes from authority 0: each camp gets its own consensus, not the other's.
	cfg := baseConfig(t, 9, 80, 0)
	cfg.Equivocators = map[int]*vote.Document{0: testkit.Docs(cfg.Keys, 40, 99, 0)[0]}
	auths, _, agg := runShared(t, cfg, nil)
	if want := distinctConsensuses(auths); want < 2 || len(agg) != want {
		t.Fatalf("aggregator holds %d entries for %d distinct consensuses (want at least 2)", len(agg), want)
	}

	// Authority 8 can hear but not speak until the votes are counted: it
	// aggregates nine votes, the other eight aggregate the eight they hold.
	cfg = baseConfig(t, 9, 100, -1)
	cfg.Round, cfg.FetchTimeout = 15*time.Second, 3*time.Second
	auths, _, agg = runShared(t, cfg, func(tn *testkit.Net) {
		tn.Up[8].ThrottleMin(0, 31*time.Second, 0)
	})
	if want := distinctConsensuses(auths); want != 2 || len(agg) != want {
		t.Fatalf("aggregator holds %d entries for %d distinct consensuses under the outage, want 2 and 2", len(agg), want)
	}
	if auths[0].consensus != auths[1].consensus || auths[0].consensus == auths[8].consensus {
		t.Fatal("authorities 0 and 1 hold the same votes and must share one document; authority 8 must not")
	}
}
