package dircache

import (
	"testing"
	"time"

	"partialtor/internal/attack"
	"partialtor/internal/faults"
	"partialtor/internal/gossip"
	"partialtor/internal/obs"
	"partialtor/internal/simnet"
)

// floodSpec is smallSpec under a full-window authority flood: no cache ever
// acquires the consensus, so every fleet fetch NACKs and the retry machinery
// runs for the whole window.
func floodSpec() Spec {
	s := smallSpec()
	s.FetchWindow = 6 * time.Minute
	s.Attacks = []attack.Plan{{
		Tier:     attack.TierAuthority,
		Targets:  attack.FirstTargets(9),
		Start:    0,
		End:      2 * time.Hour,
		Residual: 0,
	}}
	return s
}

// retryInstantsByFleet runs s with a recorder sized to hold the whole run and
// returns its result and each fleet's EvRetry fire times, keyed by the
// fleet's node id. A recording that dropped events fails the test: the
// instants must be every burst's, not the last few the ring kept.
func retryInstantsByFleet(t *testing.T, s Spec) (*Result, map[int][]time.Duration) {
	t.Helper()
	rec := obs.NewRecorder(1 << 17)
	s.Tracer = rec
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Dropped() != 0 {
		t.Fatalf("recorder dropped %d events: size it to the run", rec.Dropped())
	}
	out := map[int][]time.Duration{}
	for _, e := range rec.Events() {
		if e.Type == obs.EvRetry {
			out[e.Node] = append(out[e.Node], e.At)
		}
	}
	if len(out) != s.Fleets {
		t.Fatalf("retry events from %d fleets, want %d", len(out), s.Fleets)
	}
	return res, out
}

// TestBackoffDesynchronizesFleetRetries is the retry-burst regression test:
// under the legacy fixed delay every fleet re-arms on the same period — the
// synchronized spike that re-floods a recovering tier — while the seeded-
// jitter backoff pulls the two fleets' retry instants apart and grows the
// gaps between bursts.
func TestBackoffDesynchronizesFleetRetries(t *testing.T) {
	lres, lfleets := retryInstantsByFleet(t, floodSpec())
	if lres.RetryBursts == 0 {
		t.Fatal("flooded legacy run fired no retry bursts")
	}
	if lres.RetryDropped != 0 {
		t.Fatalf("legacy run shed %d fetches without a budget", lres.RetryDropped)
	}
	// Legacy re-arms retryDelay after the first refusal that follows a burst
	// comes back, so consecutive bursts of one fleet sit one delay plus a
	// request-and-refusal round trip apart: more than retryDelay, by less
	// than a second.
	for node, instants := range lfleets {
		if len(instants) < 2 {
			t.Fatalf("fleet %d fired %d legacy bursts: no gap to check", node, len(instants))
		}
		for i := 1; i < len(instants); i++ {
			if gap := instants[i] - instants[i-1]; gap <= retryDelay || gap >= retryDelay+time.Second {
				t.Fatalf("fleet %d legacy retry gap %v, want in (%v, %v)", node, gap, retryDelay, retryDelay+time.Second)
			}
		}
	}
	// And both fleets, refused together, keep bursting together: the same
	// number of bursts, each within a second of the other fleet's.
	var lnodes []int
	for n := range lfleets {
		lnodes = append(lnodes, n)
	}
	la, lb := lfleets[lnodes[0]], lfleets[lnodes[1]]
	if len(la) != len(lb) {
		t.Fatalf("legacy fleets fired %d and %d bursts, want one synchronized schedule", len(la), len(lb))
	}
	for i := range la {
		if d := la[i] - lb[i]; d <= -time.Second || d >= time.Second {
			t.Fatalf("legacy burst %d at %v and %v: the fleets drifted apart", i, la[i], lb[i])
		}
	}

	jittered := floodSpec()
	jittered.Backoff = &faults.Backoff{Base: 30 * time.Second, Cap: 2 * time.Minute, Jitter: 0.5}
	jres, jfleets := retryInstantsByFleet(t, jittered)
	if jres.RetryBursts == 0 {
		t.Fatal("flooded backoff run fired no retry bursts")
	}
	// The two fleets draw independent jitter: their retry instants must
	// diverge rather than land as one synchronized burst.
	var nodes []int
	for n := range jfleets {
		nodes = append(nodes, n)
	}
	a, b := jfleets[nodes[0]], jfleets[nodes[1]]
	same := len(a) == len(b)
	if same {
		for i := range a {
			if a[i] != b[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatalf("jittered fleets retry in lockstep: %v", a)
	}
	// And the grown delays must show: some within-fleet gap beyond the base.
	grew := false
	for _, instants := range jfleets {
		for i := 1; i < len(instants); i++ {
			if instants[i]-instants[i-1] > jittered.Backoff.Base {
				grew = true
			}
		}
	}
	if !grew {
		t.Fatal("backoff never grew past its base delay under a full-window flood")
	}
}

// TestBackoffBudgetShedsRetries: once a fleet's run-total burst budget is
// spent, refused fetches are shed into RetryDropped instead of re-flooding
// the tier forever.
func TestBackoffBudgetShedsRetries(t *testing.T) {
	s := floodSpec()
	s.Backoff = &faults.Backoff{Base: 20 * time.Second, Cap: time.Minute, Budget: 3}
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.RetryBursts > s.Fleets*3 {
		t.Fatalf("%d bursts fired over a %d-per-fleet budget", res.RetryBursts, 3)
	}
	if res.RetryDropped == 0 {
		t.Fatal("exhausted budget shed nothing")
	}
}

// chaosSpec is the in-package compound scenario: flooded authorities, one
// seeded mirror, a mesh, jittered backoff, and a fault plan whose crash and
// churn windows all clear well before the fetch window ends.
func chaosSpec(seed int64) Spec {
	s := smallSpec()
	s.Seed = seed
	s.Caches = 12
	s.FetchWindow = 10 * time.Minute
	s.Gossip = &gossip.Config{Fanout: 3, Seeds: []int{0}}
	s.Backoff = &faults.Backoff{Base: 15 * time.Second, Cap: time.Minute, Jitter: 0.5}
	s.Attacks = []attack.Plan{{
		Tier:     attack.TierAuthority,
		Targets:  attack.FirstTargets(9),
		Start:    0,
		End:      2 * time.Hour,
		Residual: 0,
	}}
	s.Faults = &faults.Plan{Faults: []faults.Fault{
		{
			Kind:    faults.Crash,
			Tier:    attack.TierCache,
			Targets: faults.SpreadTargets(1, 12, 4),
			Start:   time.Minute,
			End:     2 * time.Minute,
		},
		{
			Kind:    faults.Churn,
			Tier:    attack.TierCache,
			Targets: faults.SpreadTargets(2, 12, 3),
			Start:   90 * time.Second,
			End:     3 * time.Minute,
		},
	}}
	return s
}

// TestChurnConvergence is the churn-convergence property: for any plan whose
// faults all clear before the window ends, the meshed, backoff-equipped tier
// still converges — every cache holds the document and the fleet reaches
// target coverage — across seeds.
func TestChurnConvergence(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 5, 11} {
		res, err := Run(chaosSpec(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.TimeToTarget == simnet.Never {
			t.Errorf("seed %d: compound-faulted mesh never reached target coverage", seed)
		}
		if res.Coverage() < res.Spec.TargetCoverage {
			t.Errorf("seed %d: covered %.1f%%, target %.0f%%", seed, 100*res.Coverage(), 100*res.Spec.TargetCoverage)
		}
		if res.CachesWithDoc != res.Spec.Caches {
			t.Errorf("seed %d: %d/%d caches converged", seed, res.CachesWithDoc, res.Spec.Caches)
		}
		if res.FaultEvents != 7 {
			t.Errorf("seed %d: FaultEvents = %d, want 7", seed, res.FaultEvents)
		}
		if w := faults.WorstMTTR(res.Recoveries); w == simnet.Never {
			t.Errorf("seed %d: a cleared fault never recovered", seed)
		}
	}
}

// TestCrashDuringRace: a racing fleet with an outstanding wave against a
// cache that crashes mid-race must fail over to the other racers without
// double-counting coverage.
func TestCrashDuringRace(t *testing.T) {
	s := smallSpec()
	s.FetchWindow = 6 * time.Minute
	s.RaceK = 2
	// Two mirrors die with waves outstanding against them; the racing
	// fleets must fail over to the six survivors. The stalled responses
	// drain when the crash lifts and land as racing waste, never coverage.
	s.Faults = &faults.Plan{Faults: []faults.Fault{{
		Kind:    faults.Crash,
		Tier:    attack.TierCache,
		Targets: []int{1, 4},
		Start:   30 * time.Second,
		End:     90 * time.Second,
	}}}
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.RaceTimeouts == 0 {
		t.Fatal("no race timeouts despite two caches crashing with waves outstanding")
	}
	if res.Covered > res.TotalClients {
		t.Fatalf("failover double-covered: %d of %d clients", res.Covered, res.TotalClients)
	}
	if res.TimeToTarget == simnet.Never {
		t.Fatal("racing fleet never recovered after the crash window cleared")
	}
	last := 0
	for _, p := range res.Points {
		if p.Count < last {
			t.Fatalf("coverage curve went backwards at %v: %d after %d", p.At, p.Count, last)
		}
		last = p.Count
	}
}

// TestDegradeSlowsButCovers: a degraded (not dead) tier still converges,
// just later than the healthy run — and a slowed link is a flood plan with a
// residual, there is no fault kind for it. The window spans the whole run so
// the residual — 5% of 200 Mb/s per mirror, well under the population's
// aggregate demand — is binding when the tail of the fleet arrives.
func TestDegradeSlowsButCovers(t *testing.T) {
	healthy, err := Run(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	s := smallSpec()
	s.Attacks = []attack.Plan{{
		Tier:     attack.TierCache,
		Targets:  attack.FirstTargets(8),
		End:      40 * time.Minute, // the spec's default RunLimit
		Residual: 0.05 * cacheBandwidth,
	}}
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.TimeToTarget == simnet.Never {
		t.Fatal("degraded tier never converged")
	}
	if res.TimeToTarget <= healthy.TimeToTarget {
		t.Fatalf("degrading every cache to 5%% made convergence faster: %v vs %v",
			res.TimeToTarget, healthy.TimeToTarget)
	}
}
