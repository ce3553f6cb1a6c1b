package dircache

import (
	"runtime"
	"testing"
	"time"

	"partialtor/internal/attack"
	"partialtor/internal/faults"
	"partialtor/internal/gossip"
	"partialtor/internal/simnet"
	"partialtor/internal/topo"
)

// benchSpec is the distribution tier at paper scale: a million aggregated
// clients over 24 caches.
func benchSpec() Spec {
	return Spec{
		Clients:     1_000_000,
		Caches:      24,
		Fleets:      4,
		FetchWindow: 30 * time.Minute,
		PublishAt:   90 * time.Second,
		Seed:        1,
	}
}

// BenchmarkDistributionMillionClients runs one healthy distribution phase —
// the fleet tier's per-tick draw machinery is the hot path.
func BenchmarkDistributionMillionClients(b *testing.B) {
	benchRun(b, benchSpec())
}

// BenchmarkDistributionCacheFlood runs the same phase under a cache-tier
// DDoS window: half the caches throttled while the fleets fetch, which is
// the congested-pipe regime the kernel's slow paths serve.
func BenchmarkDistributionCacheFlood(b *testing.B) {
	spec := benchSpec()
	spec.Attacks = []attack.Plan{{
		Tier:     attack.TierCache,
		Targets:  attack.FirstTargets(12),
		Start:    0,
		End:      10 * time.Minute,
		Residual: 2e6,
	}}
	benchRun(b, spec)
}

// BenchmarkDistributionFanIn runs the benchmark's fanin op: two million
// clients over 32 caches while half the caches and a majority of the
// authorities are flooded — the only shape that queues hundreds of batches
// on one pipe, where the finish-tag heap and the wakeups moved in place work
// (both judged at small scale by simnet's TestKernelMatchesReference).
func BenchmarkDistributionFanIn(b *testing.B) {
	benchRun(b, Spec{
		Clients: 2_000_000, Caches: 32, Fleets: 8, Seed: 1,
		Attacks: []attack.Plan{
			{Tier: attack.TierCache, Targets: attack.FirstTargets(16), End: 10 * time.Minute, Residual: 1e6},
			{Tier: attack.TierAuthority, Targets: attack.MajorityTargets(9), End: 5 * time.Minute, Residual: 0.5e6},
		},
	})
}

// race2Spec is the benchmark's race2 op: 50 k racing clients (K = 2) over
// the continental placement while every eu cache is flooded to zero until
// the run's limit, so each fetch sent there parks on a dead downlink.
func race2Spec() Spec {
	window := 20 * time.Minute
	return Spec{
		Clients: 50_000, Caches: 12, Fleets: 6, Seed: 1,
		Topology: topo.Continents(), RaceK: 2, FetchWindow: window,
		Attacks: []attack.Plan{{Tier: attack.TierCache, TargetRegion: "eu", End: window + 30*time.Minute}},
	}
}

// BenchmarkDistributionRace runs the race2 op: the racing client's waves,
// failover timers and laggard accounting, against pipes dead to the end.
func BenchmarkDistributionRace(b *testing.B) {
	benchRun(b, race2Spec())
}

// benchChaosSpec is the benchmark's chaos op at seed 1: every authority
// flooded out, a fanout-3 mesh from one seeded mirror, jittered backoff, and
// 30 % of the 50 mirrors crashed while a further 20 % churn away and back.
func benchChaosSpec() Spec {
	const caches = 50
	return Spec{
		Clients: 1_000_000, Caches: caches, Seed: 1,
		TargetCoverage: 0.9,
		Attacks: []attack.Plan{{
			Tier: attack.TierAuthority, Targets: attack.FirstTargets(9),
			End: 90 * time.Minute, Residual: 0,
		}},
		Gossip:  &gossip.Config{Fanout: 3, Seeds: []int{0}},
		Backoff: &faults.Backoff{Base: 10 * time.Second, Cap: time.Minute, Jitter: 0.5},
		Faults: &faults.Plan{Faults: []faults.Fault{
			{
				Kind: faults.Crash, Tier: attack.TierCache,
				Targets: faults.SpreadTargets(1, caches, caches*3/10),
				Start:   5 * time.Minute, End: 10 * time.Minute,
			},
			{
				Kind: faults.Churn, Tier: attack.TierCache,
				Targets: faults.SpreadTargets(2, caches, caches*2/10),
				Start:   6 * time.Minute, End: 12 * time.Minute,
			},
		}},
	}
}

// BenchmarkDistributionChaos runs the chaos op: the gossip push, pull and
// anti-entropy timers, the fault windows and the backoff bursts.
func BenchmarkDistributionChaos(b *testing.B) {
	benchRun(b, benchChaosSpec())
}

// BenchmarkDistributionVerify runs the benchmark's verify op at seed 1:
// chain-verifying fleets against four equivocating caches of twenty.
func BenchmarkDistributionVerify(b *testing.B) {
	benchRun(b, Spec{
		Clients: 200_000, Caches: 20, Seed: 1,
		VerifyClients: true,
		Compromise: &attack.CompromisePlan{
			Targets: attack.FirstTargets(4), Mode: attack.CompromiseEquivocate,
		},
	})
}

// benchRun runs spec b.N times and reports the clients it covered.
func benchRun(b *testing.B, spec Spec) {
	var covered int
	for i := 0; i < b.N; i++ {
		res, err := Run(spec)
		if err != nil {
			b.Fatal(err)
		}
		covered = res.Covered
	}
	b.ReportMetric(float64(covered), "covered")
}

// runAllocs is the allocation count and bytes of one Run of spec.
func runAllocs(t *testing.T, spec Spec) (allocs float64, bytes uint64) {
	t.Helper()
	run := func() {
		if _, err := Run(spec); err != nil {
			t.Fatal(err)
		}
	}
	allocs = testing.AllocsPerRun(1, run)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	return allocs, after.TotalAlloc - before.TotalAlloc
}

func TestLegacyLoopAllocatesNoMessage(t *testing.T) {
	// Every tick each fleet sends one fetch to each cache and gets one batch
	// back: 2 × 24 × 4 = 192 messages. Recycled, the 300 ticks a one-hour
	// window adds over a ten-minute one must cost fewer allocations than
	// one per fleet per tick (without the message pool they added about 58 500).
	short, long := benchSpec(), benchSpec()
	short.FetchWindow = 10 * time.Minute
	long.FetchWindow = time.Hour
	a10, _ := runAllocs(t, short)
	a60, _ := runAllocs(t, long)
	if extra, limit := a60-a10, float64(300*long.Fleets); extra >= limit {
		t.Errorf("300 extra ticks allocated %.0f times (%.0f → %.0f), want fewer than %.0f", extra, a10, a60, limit)
	}
}

func TestHealthyRunAllocationCeiling(t *testing.T) {
	// benchSpec's healthy run: about 1 590 allocations and 0.46 MB (3 840
	// and 1.5 MB before its curve was reserved once and its ticks bound);
	// the code before the message pool and curve merge made about 37 430
	// and 3.2 MB.
	allocs, bytes := runAllocs(t, benchSpec())
	if allocs > 5_000 {
		t.Errorf("healthy run allocated %.0f times, want at most 5 000", allocs)
	}
	if bytes > 2<<20 {
		t.Errorf("healthy run allocated %d bytes, want at most 2 MiB", bytes)
	}
}

func TestRacingRunAllocationCeiling(t *testing.T) {
	// race2Spec's run: about 1 790 allocations and 0.49 MB. A race retires
	// the moment it settles, and a fetch parked on a dead eu downlink comes
	// back to the run's pool. While a settled race waited for every answer,
	// and a parked fetch was lost, it made about 20 050 and 1.44 MB; before
	// a network knew its end, and before races and wave timers were
	// recycled, about 49 320 and 8.1 MB.
	allocs, bytes := runAllocs(t, race2Spec())
	if allocs > 2_200 {
		t.Errorf("racing run allocated %.0f times, want at most 2 200", allocs)
	}
	if bytes > 600<<10 {
		t.Errorf("racing run allocated %d bytes, want at most 600 KiB", bytes)
	}
}

func TestChaosRunAllocationCeiling(t *testing.T) {
	// benchChaosSpec's run: about 10 620 allocations and 1.90 MB. Its
	// mesh messages come from the run's pool, a vector reusing its entry
	// slice, and go back when the receiving cache's Deliver returns. With a
	// new message (and a new vector entry) a mesh send it made about 17 070
	// and 2.05 MB.
	allocs, bytes := runAllocs(t, benchChaosSpec())
	if allocs > 13_000 {
		t.Errorf("chaos run allocated %.0f times, want at most 13 000", allocs)
	}
	if bytes > 2304<<10 {
		t.Errorf("chaos run allocated %d bytes, want at most 2.25 MiB", bytes)
	}
}

func TestCoverageCurveReservedOnce(t *testing.T) {
	// Every fleet's clients outnumber its caches × ticks here, so each curve
	// is reserved at one point per fleet, cache and tick plus an eighth; a
	// capacity equal to that reservation means the curve was allocated once
	// and never grown.
	spec := benchSpec()
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	slots := res.Spec.Fleets * res.Spec.Caches * res.Spec.numTicks()
	if want := slots + slots/8; cap(res.Points) != want || len(res.Points) == 0 {
		t.Errorf("healthy curve holds %d points in %d, want it reserved once at %d", len(res.Points), cap(res.Points), want)
	}

	race := race2Spec()
	res, err = Run(race)
	if err != nil {
		t.Fatal(err)
	}
	regions := race.Topology.NumRegions()
	if race.Fleets%regions != 0 {
		t.Fatalf("%d fleets do not split evenly over %d regions", race.Fleets, regions)
	}
	slots = race.Fleets / regions * res.Spec.Caches * res.Spec.numTicks()
	for _, rc := range res.Regions {
		if want := slots + slots/8; cap(rc.Points) != want || len(rc.Points) == 0 {
			t.Errorf("region %s curve holds %d points in %d, want it reserved once at %d", rc.Name, len(rc.Points), cap(rc.Points), want)
		}
	}

	// A consensus that is never published covers nobody: no curve at all.
	never := benchSpec()
	never.PublishAt = simnet.Never
	res, err = Run(never)
	if err != nil {
		t.Fatal(err)
	}
	if res.Points != nil {
		t.Errorf("unpublished run allocated a curve of %d points", cap(res.Points))
	}
}

func TestSteadyStateTimersAllocateNothing(t *testing.T) {
	// Two runs of one shape, the second twenty minutes longer: its 240 extra
	// fleet ticks, and, with every authority flooded out for good, its 40
	// extra retry bursts and 640 extra cache fetch timeouts, must allocate
	// nothing. Ticks and bursts re-arm bound callbacks, cache timers and
	// nacks come back to the run's pool, and the curve is reserved once.
	// With a closure per timer and a nack per refusal, the flooded pair's
	// longer run made about 6 000 more allocations.
	shape := func(window time.Duration, flooded bool) Spec {
		s := Spec{Clients: 200_000, Caches: 8, Fleets: 2, FetchWindow: window, Seed: 3}
		if flooded {
			s.Attacks = []attack.Plan{{Tier: attack.TierAuthority, Targets: attack.FirstTargets(9), End: 24 * time.Hour}}
		}
		return s
	}
	for _, flooded := range []bool{false, true} {
		short, long := shape(10*time.Minute, flooded), shape(30*time.Minute, flooded)
		a10, _ := runAllocs(t, short)
		a30, _ := runAllocs(t, long)
		if extra := a30 - a10; extra > 16 {
			t.Errorf("flooded=%v: twenty more minutes allocated %.0f times (%.0f → %.0f), want none", flooded, extra, a10, a30)
		}
		if !flooded {
			continue
		}
		r10, err := Run(short)
		if err != nil {
			t.Fatal(err)
		}
		r30, err := Run(long)
		if err != nil {
			t.Fatal(err)
		}
		if r30.RetryBursts <= r10.RetryBursts || r30.CacheFallbacks <= r10.CacheFallbacks {
			t.Errorf("the longer flood fired no extra bursts (%d → %d) or timeouts (%d → %d)",
				r10.RetryBursts, r30.RetryBursts, r10.CacheFallbacks, r30.CacheFallbacks)
		}
	}
}
