package dircache

import (
	"maps"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"partialtor/internal/attack"
	"partialtor/internal/simnet"
	"partialtor/internal/topo"
)

// testSpecs are the package's test specs by name: one per client path, the
// regional racing client at K=2 and K=3, and a verifying fleet against a
// mirror majority.
func testSpecs() map[string]Spec {
	specs := map[string]Spec{
		"healthy":     smallSpec(),
		"flood":       floodSpec(),
		"failover":    raceSpec(1),
		"racing":      raceSpec(2),
		"gossip":      gossipOutageSpec(3),
		"chaos":       chaosSpec(1),
		"stale":       compromiseSpec(attack.CompromiseStale, 3, true),
		"equivocate":  compromiseSpec(attack.CompromiseEquivocate, 2, true),
		"unverifying": compromiseSpec(attack.CompromiseEquivocate, 2, false),
	}
	for name, k := range map[string]int{"regional": 2, "regional-k3": 3} {
		spec := raceSpec(k)
		spec.Topology = topo.Continents()
		specs[name] = spec
	}
	// Five equivocating caches out of eight win the corroboration vote, so
	// a verifying fleet first covered by an honest cache retracts it. Not
	// every seed's draws put an honest cache first; seed 2's do.
	majority := compromiseSpec(attack.CompromiseEquivocate, 5, true)
	majority.Topology = topo.Continents()
	majority.Seed = 2
	specs["mirror-majority"] = majority
	return specs
}

// specRun is a test spec run twice. Each is run once per test binary, by the
// first law test that walks it, and shared by the others.
type specRun struct {
	once   sync.Once
	spec   Spec
	res    *Result
	again  *Result
	runErr error
}

var specRuns = func() map[string]*specRun {
	runs := map[string]*specRun{}
	for name, spec := range testSpecs() {
		runs[name] = &specRun{spec: spec}
	}
	return runs
}()

// walkSpecs holds every test spec's two runs to check, in a parallel subtest
// named after the spec.
func walkSpecs(t *testing.T, check func(t *testing.T, name string, spec Spec, res, again *Result)) {
	for _, name := range slices.Sorted(maps.Keys(specRuns)) {
		r := specRuns[name]
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			r.once.Do(func() {
				if r.res, r.runErr = Run(r.spec); r.runErr == nil {
					r.again, r.runErr = Run(r.spec)
				}
			})
			if r.runErr != nil {
				t.Fatal(r.runErr)
			}
			check(t, name, r.spec, r.res, r.again)
		})
	}
}

// stepAt is a cumulative curve's value at instant at: the last point's count
// at or before it, 0 before the first.
func stepAt(points []CoveragePoint, at time.Duration) int {
	i := sort.Search(len(points), func(i int) bool { return points[i].At > at })
	if i == 0 {
		return 0
	}
	return points[i-1].Count
}

// offLeavesZero fails t if a feature that is off left one of its counters
// non-zero.
func offLeavesZero(t *testing.T, res *Result, feature string, on bool, counters ...int64) {
	t.Helper()
	for i, n := range counters {
		if !on && n != 0 {
			t.Errorf("%s is off, yet its counter %d reads %d: %s", feature, i, n, res.Summary())
		}
	}
}

// TestDistributionLaws holds every test spec's outcome to the laws of the
// distribution tier not named by a test of their own:
//   - the network delays and never drops (partial synchrony);
//   - Regions is present exactly under a topology and sums to the curve at
//     every point;
//   - no client is both covered and misled;
//   - racing off leaves the racing counters at zero, and neither compromise
//     nor verification leaves the verification counters at zero.
//
// The mirror-majority run's curve falls once: a verifying fleet retracts.
func TestDistributionLaws(t *testing.T) {
	walkSpecs(t, func(t *testing.T, name string, spec Spec, res, _ *Result) {
		if st := res.Stats; st.MessagesDropped != 0 {
			t.Errorf("%d of %d messages dropped", st.MessagesDropped, st.MessagesSent)
		}
		if (spec.Topology != nil) != (res.Regions != nil) {
			t.Errorf("%d regions under topology %v", len(res.Regions), spec.Topology)
		}
		falls := false
		for i, p := range res.Points {
			falls = falls || i > 0 && p.Count < res.Points[i-1].Count
			sum := 0
			for _, rc := range res.Regions {
				sum += stepAt(rc.Points, p.At)
			}
			if res.Regions != nil && sum != p.Count {
				t.Errorf("%d covered at %v, the regions sum to %d", p.Count, p.At, sum)
			}
		}
		if name == "mirror-majority" && !falls {
			t.Error("the curve never falls, so no coverage change was negative")
		}
		if res.Covered+res.Misled > res.TotalClients {
			t.Errorf("%d covered + %d misled of %d clients", res.Covered, res.Misled, res.TotalClients)
		}
		offLeavesZero(t, res, "RaceK", spec.RaceK >= 1, res.RaceWasteBytes, int64(res.RaceLaggards), int64(res.RaceTimeouts))
		offLeavesZero(t, res, "Compromise and VerifyClients", spec.Compromise != nil || spec.VerifyClients, int64(res.Misled),
			res.StaleRejections, res.ExtraFetches, int64(len(res.ForkDetections)), int64(len(res.DistrustedCaches)))
	})
}

// TestDistributionDeterministic: the same spec gives the same Result, field
// for field, and another seed changes the healthy run.
func TestDistributionDeterministic(t *testing.T) {
	walkSpecs(t, func(t *testing.T, name string, spec Spec, res, again *Result) {
		if !reflect.DeepEqual(res, again) {
			t.Errorf("the same spec diverged:\n%s\n%s", res.Summary(), again.Summary())
		}
		if name != "healthy" {
			return
		}
		spec.Seed++
		other, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		if other.CacheEgress == res.CacheEgress && other.TimeToTarget == res.TimeToTarget {
			t.Error("another seed produced an identical run (suspicious)")
		}
	})
}

// TestCoverageCurveMonotonic: the coverage curve has one point per instant,
// strictly later in time, ending at Covered, with nothing covered at t=0 and
// CoverageAt of the run limit equal to Coverage. Its count falls only where
// clients verify (a retraction).
func TestCoverageCurveMonotonic(t *testing.T) {
	walkSpecs(t, func(t *testing.T, _ string, spec Spec, res, _ *Result) {
		pts := res.Points
		for i := 1; i < len(pts); i++ {
			if pts[i].At <= pts[i-1].At {
				t.Errorf("point %d at %v after %v", i, pts[i].At, pts[i-1].At)
			}
			if pts[i].Count <= pts[i-1].Count && !spec.VerifyClients {
				t.Errorf("the count went %d → %d at %v without verifying clients to retract", pts[i-1].Count, pts[i].Count, pts[i].At)
			}
		}
		if last := stepAt(pts, simnet.Never); last != res.Covered {
			t.Errorf("the curve ends at %d, covered %d", last, res.Covered)
		}
		if res.CoverageAt(0) != 0 {
			t.Errorf("coverage %.3f at t=0", res.CoverageAt(0))
		}
		if got := res.CoverageAt(res.Spec.RunLimit()); got != res.Coverage() {
			t.Errorf("CoverageAt(run limit) = %.3f, Coverage() = %.3f", got, res.Coverage())
		}
	})
}

// TestNilFaultsLeavesRunUntouched: a spec without a fault plan or backoff
// leaves every chaos counter at zero; the feature gates cleanly.
func TestNilFaultsLeavesRunUntouched(t *testing.T) {
	walkSpecs(t, func(t *testing.T, _ string, spec Spec, res, _ *Result) {
		offLeavesZero(t, res, "Faults", spec.Faults != nil, int64(res.FaultEvents), int64(res.TimeBelowTarget), int64(len(res.Recoveries)))
		offLeavesZero(t, res, "Backoff", spec.Backoff != nil, res.RetryDropped)
	})
}

// TestNilGossipLeavesRunUntouched: a spec without a mesh reports every
// gossip counter, and every byte of the mesh's wire kinds, at zero.
func TestNilGossipLeavesRunUntouched(t *testing.T) {
	walkSpecs(t, func(t *testing.T, _ string, spec Spec, res, _ *Result) {
		offLeavesZero(t, res, "Gossip", spec.Gossip != nil, int64(res.GossipPushes), int64(res.GossipPulls), int64(res.GossipServes),
			int64(res.GossipRounds), int64(res.CachesFromPeers), res.GossipBytes)
		for _, kind := range gossipKinds {
			offLeavesZero(t, res, "Gossip", spec.Gossip != nil, res.Stats.KindBytes[kind])
		}
	})
}
