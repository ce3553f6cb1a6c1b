package dircache

import (
	"math"
	"testing"
	"time"

	"partialtor/internal/attack"
	"partialtor/internal/client"
	"partialtor/internal/simnet"
)

// smallSpec is a fast spec for unit tests: 50k clients, 8 caches, 10-minute
// fetch window.
func smallSpec() Spec {
	return Spec{
		Clients:     50_000,
		Caches:      8,
		Fleets:      2,
		FetchWindow: 10 * time.Minute,
		Seed:        7,
	}
}

func TestHealthyDistributionCoversPopulation(t *testing.T) {
	res, err := Run(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalClients != 50_000 {
		t.Fatalf("total clients %d", res.TotalClients)
	}
	if res.Coverage() < 0.999 {
		t.Fatalf("healthy tier covered only %.1f%%", 100*res.Coverage())
	}
	if res.TimeToTarget == simnet.Never {
		t.Fatal("never reached target coverage")
	}
	if res.TimeToTarget > res.Spec.FetchWindow+tick {
		t.Fatalf("t95 %v beyond the fetch window", res.TimeToTarget)
	}
	if res.CachesWithDoc != res.Spec.Caches {
		t.Fatalf("%d/%d caches got the consensus", res.CachesWithDoc, res.Spec.Caches)
	}
	if res.AuthorityEgress <= 0 || res.CacheEgress <= 0 || res.FleetEgress <= 0 {
		t.Fatalf("egress not accounted: auth=%d cache=%d fleet=%d",
			res.AuthorityEgress, res.CacheEgress, res.FleetEgress)
	}
	// The caches must move roughly the population's worth of documents.
	expect := int64(float64(res.TotalClients) * (0.2*float64(res.Spec.DocBytes) + 0.8*float64(res.Spec.DiffBytes())))
	if res.CacheEgress < expect/2 || res.CacheEgress > 2*expect {
		t.Fatalf("cache egress %d, expected near %d", res.CacheEgress, expect)
	}
}

func TestCacheAttackDegradesCoverage(t *testing.T) {
	healthy, err := Run(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	spec := smallSpec()
	spec.Attacks = []attack.Plan{{
		Tier:     attack.TierCache,
		Targets:  attack.MajorityTargets(spec.Caches),
		Start:    0,
		End:      spec.FetchWindow + 30*time.Minute,
		Residual: 0,
	}}
	attacked, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if attacked.Coverage() > healthy.Coverage()-0.2 {
		t.Fatalf("cache DDoS barely moved coverage: healthy %.2f, attacked %.2f",
			healthy.Coverage(), attacked.Coverage())
	}
	if attacked.TimeToTarget != simnet.Never {
		t.Fatalf("attacked tier still reached target at %v", attacked.TimeToTarget)
	}
}

func TestAuthorityTierAttackDelaysCaches(t *testing.T) {
	// Knock out every authority except the last for the whole run: caches
	// must fall back until they find the survivor.
	spec := smallSpec()
	spec.Authorities = 3
	spec.Attacks = []attack.Plan{{
		Tier:     attack.TierAuthority,
		Targets:  []int{0, 1},
		Start:    0,
		End:      spec.FetchWindow + 30*time.Minute,
		Residual: 0,
	}}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.CachesWithDoc != spec.Caches {
		t.Fatalf("caches never found the surviving authority: %d/%d", res.CachesWithDoc, spec.Caches)
	}
	if res.CacheFallbacks == 0 {
		t.Fatal("no fallback attempts recorded despite two dead authorities")
	}
	if res.Coverage() < 0.99 {
		t.Fatalf("population not served via surviving authority: %.2f", res.Coverage())
	}
}

func TestNoConsensusNeverCovers(t *testing.T) {
	spec := smallSpec()
	spec.PublishAt = simnet.Never
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Covered != 0 {
		t.Fatalf("covered %d clients without a consensus", res.Covered)
	}
	if res.FailedFetches == 0 {
		t.Fatal("no failed fetches recorded")
	}
	if res.CachesWithDoc != 0 {
		t.Fatal("a cache claims to hold a consensus that never existed")
	}
	if res.FleetRun(0).Success {
		t.Fatal("fleet run reported success")
	}
}

func TestLatePublishDelaysCoverage(t *testing.T) {
	early, err := Run(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	spec := smallSpec()
	spec.PublishAt = 5 * time.Minute
	late, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if late.TimeToTarget <= early.TimeToTarget {
		t.Fatalf("late publish (%v) did not delay t95: %v vs %v",
			spec.PublishAt, late.TimeToTarget, early.TimeToTarget)
	}
	if late.FailedFetches == 0 {
		t.Fatal("fetches before publication should have been refused")
	}
	if late.Coverage() < 0.99 {
		t.Fatalf("retries did not recover the refused clients: %.2f", late.Coverage())
	}
}

// TestDiffServingShrinksEgress: four clients in five hold the previous
// consensus (diffFraction), so the caches serve about that share of their
// downloads as diffs and move a fraction of what a full document for every
// download would cost.
func TestDiffServingShrinksEgress(t *testing.T) {
	res, err := Run(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	served := res.FullDocsServed + res.DiffsServed
	if share := float64(res.DiffsServed) / float64(served); math.Abs(share-diffFraction) > 0.02 {
		t.Fatalf("%.3f of %d downloads were diffs, want about %.2f", share, served, diffFraction)
	}
	// At 0.8 diffs the egress is about a fifth of all-full serving.
	if full := int64(served) * res.Spec.DocBytes; res.CacheEgress*3 > full {
		t.Fatalf("cache egress %d not well below the %d full documents would cost", res.CacheEgress, full)
	}
	if res.Coverage() < 0.999 {
		t.Fatal("coverage regressed")
	}
}

// TestWeightedCacheSelection: a flat tier's fleets weigh every cache alike
// (uniformWeights), so each cache carries its share of the population and the
// per-cache loads add up to the covered clients.
func TestWeightedCacheSelection(t *testing.T) {
	spec := smallSpec()
	spec.Caches = 4
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Coverage() < 0.999 {
		t.Fatalf("coverage %.2f", res.Coverage())
	}
	served := res.CacheServed
	if len(served) != 4 {
		t.Fatalf("per-cache load for %d caches", len(served))
	}
	total := 0
	for i, n := range served {
		if share := float64(n) / float64(res.Covered); share < 0.2 || share > 0.3 {
			t.Fatalf("cache %d served %.1f%% of the clients, want about a quarter: %v", i, 100*share, served)
		}
		total += n
	}
	if total != res.Covered {
		t.Fatalf("per-cache loads sum to %d, covered %d", total, res.Covered)
	}
}

func TestFleetTimelineTiesIntoClientModel(t *testing.T) {
	policy := client.DefaultPolicy()
	good, err := Run(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	bad := smallSpec()
	bad.PublishAt = simnet.Never
	failed, err := Run(bad)
	if err != nil {
		t.Fatal(err)
	}
	// Periods: good, then three failed ones — the population loses its
	// consensus exactly ValidFor after the good period's coverage instant.
	tl := FleetTimeline(policy, []*Result{good, failed, failed, failed})
	outs := tl.Outages()
	if len(outs) != 2 {
		t.Fatalf("outage windows %v, want warmup + post-validity", outs)
	}
	// Warmup: nobody has a consensus until the first period's coverage
	// instant; then the network dies exactly ValidFor later.
	if outs[0].From != 0 || outs[0].To != good.TimeToTarget {
		t.Fatalf("warmup window %v, want [0, %v)", outs[0], good.TimeToTarget)
	}
	if want := good.TimeToTarget + policy.ValidFor; outs[1].From != want {
		t.Fatalf("outage at %v, want coverage instant + validity = %v", outs[1].From, want)
	}
	if tl.Availability() >= 1 {
		t.Fatal("availability should dip below 1 with three failed periods")
	}
}

func TestSpecValidate(t *testing.T) {
	bad := []Spec{
		{Clients: -1},
		{Fleets: 10, Clients: 5},
		{TargetCoverage: 2},
		{TargetCoverage: math.NaN()},
		{Attacks: []attack.Plan{{Start: time.Minute, End: 0}}},
		// Targets beyond the tier would silently under-throttle.
		{Caches: 10, Attacks: []attack.Plan{{Tier: attack.TierCache, Targets: attack.MajorityTargets(20), End: time.Hour}}},
		{Authorities: 5, Attacks: []attack.Plan{{Targets: []int{5}, End: time.Hour}}},
		{Attacks: []attack.Plan{{Tier: attack.Tier(3), Targets: []int{0}, End: time.Hour}}},
		{DocBytes: -1},
	}
	for i, s := range bad {
		if _, err := Run(s); err == nil {
			t.Fatalf("case %d: invalid spec %+v accepted", i, s)
		}
	}
	if err := (Spec{}).Validate(); err != nil {
		t.Fatalf("default spec rejected: %v", err)
	}
}

// TestConcurrentRunsSharedAttacks pins the compile-on-private-copy rule: two
// Runs whose specs share one Attacks backing array must not race on the
// plans' lazily compiled target sets (run under -race).
func TestConcurrentRunsSharedAttacks(t *testing.T) {
	shared := []attack.Plan{{
		Tier:     attack.TierCache,
		Targets:  attack.MajorityTargets(8),
		End:      time.Hour,
		Residual: 0,
	}}
	done := make(chan *Result, 2)
	for g := 0; g < 2; g++ {
		go func() {
			s := smallSpec()
			s.Attacks = shared
			r, err := Run(s)
			if err != nil {
				t.Error(err)
			}
			done <- r
		}()
	}
	a, b := <-done, <-done
	if a == nil || b == nil {
		t.Fatal("run failed")
	}
	if a.Covered != b.Covered {
		t.Fatalf("identical specs diverged: %d vs %d covered", a.Covered, b.Covered)
	}
}

// TestFinalTickSpanShortened pins the fleet tick geometry: when tick does
// not divide FetchWindow the final tick covers only the clamped remainder,
// and the Poisson rate must scale with that shortened span — not a full
// tick's worth of arrivals squeezed into the remainder.
func TestFinalTickSpanShortened(t *testing.T) {
	spec := (&Spec{FetchWindow: 25 * time.Second}).withDefaults()
	f := &fleetNode{spec: &spec}
	if n := f.spec.numTicks(); n != 3 {
		t.Fatalf("numTicks=%d, want 3", n)
	}
	for k, want := range map[int][2]time.Duration{
		1: {0, 10 * time.Second},
		2: {10 * time.Second, 20 * time.Second},
		3: {20 * time.Second, 25 * time.Second}, // clamped: 5s, not 10s
	} {
		start, end := f.tickSpan(k)
		if start != want[0] || end != want[1] {
			t.Fatalf("tickSpan(%d) = (%v, %v), want (%v, %v)", k, start, end, want[0], want[1])
		}
	}
	// An exactly dividing window has no shortened tick.
	even := (&Spec{FetchWindow: 30 * time.Second}).withDefaults()
	f2 := &fleetNode{spec: &even}
	if n := f2.spec.numTicks(); n != 3 {
		t.Fatalf("even numTicks=%d, want 3", n)
	}
	if start, end := f2.tickSpan(3); start != 20*time.Second || end != 30*time.Second {
		t.Fatalf("even final span (%v, %v)", start, end)
	}
}

// TestNonDividingTickWindowStillCoversEveryone runs a whole distribution
// whose FetchWindow the tick does not divide: every client must still issue
// its first fetch inside the window and the population must end covered.
func TestNonDividingTickWindowStillCoversEveryone(t *testing.T) {
	spec := smallSpec()
	spec.FetchWindow += 5 * time.Second // 605s window: 60 full ticks + a 5s remainder
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Coverage() < 0.999 {
		t.Fatalf("coverage %.3f with a non-dividing tick", res.Coverage())
	}
	if res.TimeToTarget == simnet.Never || res.TimeToTarget > res.Spec.FetchWindow+tick {
		t.Fatalf("t95 %v beyond the fetch window", res.TimeToTarget)
	}
	// No coverage point may land beyond the run limit, and the curve must
	// account for every covered client exactly once.
	last := res.Points[len(res.Points)-1]
	if last.Count != res.Covered {
		t.Fatalf("curve ends at %d, covered %d", last.Count, res.Covered)
	}
}
