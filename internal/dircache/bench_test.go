package dircache

import (
	"runtime"
	"testing"
	"time"

	"partialtor/internal/attack"
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
		Tick:        10 * time.Second,
		PublishAt:   90 * time.Second,
		Seed:        1,
	}
}

// BenchmarkDistributionMillionClients runs one healthy distribution phase —
// the fleet tier's per-tick draw machinery is the hot path.
func BenchmarkDistributionMillionClients(b *testing.B) {
	spec := benchSpec()
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

// BenchmarkDistributionFanIn runs the benchmark's fanin op: two million
// clients over 32 caches while half the caches and a majority of the
// authorities are flooded — the only shape that queues hundreds of batches
// on one pipe, where the finish-tag heap and the wakeups moved in place work
// (both judged at small scale by simnet's TestKernelMatchesReference).
func BenchmarkDistributionFanIn(b *testing.B) {
	spec := Spec{
		Clients: 2_000_000, Caches: 32, Fleets: 8, Seed: 1,
		Attacks: []attack.Plan{
			{Tier: attack.TierCache, Targets: attack.FirstTargets(16), End: 10 * time.Minute, Residual: 1e6},
			{Tier: attack.TierAuthority, Targets: attack.MajorityTargets(9), End: 5 * time.Minute, Residual: 0.5e6},
		},
	}
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
	spec := race2Spec()
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
	// benchSpec's healthy run: about 3 840 allocations and 1.5 MB; the
	// code before the message pool and curve merge made about 37 430 and 3.2 MB.
	allocs, bytes := runAllocs(t, benchSpec())
	if allocs > 5_000 {
		t.Errorf("healthy run allocated %.0f times, want at most 5 000", allocs)
	}
	if bytes > 2<<20 {
		t.Errorf("healthy run allocated %d bytes, want at most 2 MiB", bytes)
	}
}

func TestRacingRunAllocationCeiling(t *testing.T) {
	// race2Spec's run: about 23 060 allocations and 2.0 MB. Before a network
	// knew its end, and before races and wave timers were recycled, it made
	// about 49 320 and 8.1 MB: every fetch parked on a dead eu downlink was
	// stored, re-shared and re-planned.
	allocs, bytes := runAllocs(t, race2Spec())
	if allocs > 30_000 {
		t.Errorf("racing run allocated %.0f times, want at most 30 000", allocs)
	}
	if bytes > 3<<20 {
		t.Errorf("racing run allocated %d bytes, want at most 3 MiB", bytes)
	}
}
