package dircache

import (
	"testing"
	"time"

	"partialtor/internal/attack"
	"partialtor/internal/simnet"
	"partialtor/internal/topo"
)

// raceSpec is smallSpec with the racing client switched on.
func raceSpec(k int) Spec {
	s := smallSpec()
	s.RaceK = k
	return s
}

func TestRacingFastestWinsOnce(t *testing.T) {
	res, err := Run(raceSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	// Every batch was raced against two caches, but each client may only be
	// covered by the race's first response: coverage must stay a population
	// count, never a download count.
	if res.Covered > res.TotalClients {
		t.Fatalf("racing double-covered: %d covered of %d clients", res.Covered, res.TotalClients)
	}
	if res.Coverage() < 0.999 {
		t.Fatalf("racing tier covered only %.1f%%", 100*res.Coverage())
	}
	if res.RaceLaggards == 0 {
		t.Fatal("parallel racing against a healthy tier produced no laggards")
	}
}

func TestRacingLaggardsAccountedAsWaste(t *testing.T) {
	single, err := Run(raceSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	raced, err := Run(raceSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	// K=1 is a failover client: healthy caches answer the first request, so
	// no duplicate downloads exist to discard.
	if single.RaceLaggards != 0 || single.RaceWasteBytes != 0 {
		t.Fatalf("failover client recorded waste: %d laggards, %d bytes",
			single.RaceLaggards, single.RaceWasteBytes)
	}
	// K=2 downloads (almost) everything twice; the losing copies must be
	// charged as waste, and that waste must show up as real cache egress.
	if raced.RaceWasteBytes == 0 {
		t.Fatal("racing waste not accounted")
	}
	if raced.CacheEgress <= single.CacheEgress {
		t.Fatalf("laggard downloads missing from egress: K=2 %d <= K=1 %d",
			raced.CacheEgress, single.CacheEgress)
	}
	if raced.RaceWasteBytes > raced.CacheEgress {
		t.Fatalf("waste %d exceeds total cache egress %d", raced.RaceWasteBytes, raced.CacheEgress)
	}
}

func TestRacingTimeoutFailsOver(t *testing.T) {
	// Flood all but the last two caches for the whole run. Races landing on
	// flooded caches get no answer (the response stalls in the throttled
	// uplink), so only the wave timer can save those clients.
	spec := raceSpec(1)
	spec.Attacks = []attack.Plan{{
		Tier:     attack.TierCache,
		Targets:  []int{0, 1, 2, 3, 4, 5},
		End:      spec.FetchWindow + 30*time.Minute,
		Residual: 0,
	}}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.RaceTimeouts == 0 {
		t.Fatal("stalled caches produced no wave timeouts")
	}
	if res.Coverage() < 0.9 {
		t.Fatalf("failover left coverage at %.1f%%", 100*res.Coverage())
	}

	// The legacy client has no failover: batches sent to flooded caches
	// just hang, so the same attack must hurt it much more.
	legacy := spec
	legacy.RaceK = 0
	legacyRes, err := Run(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if legacyRes.Coverage() >= res.Coverage() {
		t.Fatalf("failover client no better than legacy under flood: %.3f vs %.3f",
			res.Coverage(), legacyRes.Coverage())
	}
}

// TestRacingBeforePublication races against a tier that has nothing to serve
// for the first three minutes: every answer is a nack, so races are abandoned
// into the retry pool, a wave can find no cache left to ask, and the pool
// re-races once it fires. Every client still ends up covered exactly once.
func TestRacingBeforePublication(t *testing.T) {
	s := smallSpec()
	s.RaceK = 2
	s.PublishAt = 3 * time.Minute
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Covered != res.TotalClients {
		t.Fatalf("covered %d of %d clients", res.Covered, res.TotalClients)
	}
	last := 0
	for _, p := range res.Points {
		if p.Count < last || p.Count > res.TotalClients {
			t.Fatalf("coverage curve at %v reads %d after %d, of %d clients", p.At, p.Count, last, res.TotalClients)
		}
		last = p.Count
	}
	if res.FailedFetches == 0 || res.RetryBursts == 0 || res.RaceTimeouts == 0 {
		t.Fatalf("%d failed fetches, %d retry bursts, %d race timeouts: want all positive",
			res.FailedFetches, res.RetryBursts, res.RaceTimeouts)
	}
}

func TestRegionalBreakdown(t *testing.T) {
	spec := smallSpec()
	spec.Topology = topo.Continents()
	spec.Fleets = 2 * spec.Topology.NumRegions()
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Regions) != spec.Topology.NumRegions() {
		t.Fatalf("%d region rows, want %d", len(res.Regions), spec.Topology.NumRegions())
	}
	clients, covered := 0, 0
	for r, rc := range res.Regions {
		if rc.Name != spec.Topology.RegionName(topo.Region(r)) {
			t.Fatalf("region %d named %q", r, rc.Name)
		}
		if rc.Clients == 0 {
			t.Fatalf("region %s got no clients", rc.Name)
		}
		if rc.P50 == simnet.Never || rc.P99 == simnet.Never {
			t.Fatalf("region %s missing latency marks: p50 %v p99 %v", rc.Name, rc.P50, rc.P99)
		}
		if rc.P99 < rc.P50 {
			t.Fatalf("region %s p99 %v before p50 %v", rc.Name, rc.P99, rc.P50)
		}
		clients += rc.Clients
		covered += rc.Covered
	}
	if clients != res.TotalClients || covered != res.Covered {
		t.Fatalf("region rows sum to %d/%d, result says %d/%d",
			covered, clients, res.Covered, res.TotalClients)
	}
}

func TestFlatRunHasNoRegions(t *testing.T) {
	res, err := Run(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	if res.Regions != nil {
		t.Fatalf("flat run produced a region breakdown: %v", res.Regions)
	}
}

func TestRegionalFloodHurtsTheRegion(t *testing.T) {
	spec := smallSpec()
	spec.Topology = topo.Continents()
	spec.Attacks = []attack.Plan{{
		Tier:         attack.TierCache,
		TargetRegion: "eu",
		End:          spec.FetchWindow + 30*time.Minute,
		Residual:     0,
	}}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	var eu, na RegionCoverage
	for _, rc := range res.Regions {
		switch rc.Name {
		case "eu":
			eu = rc
		case "na":
			na = rc
		}
	}
	// EU fleets prefer EU caches, and every EU cache is flooded: the
	// region's coverage must fall well behind an untouched one.
	if eu.Coverage() >= na.Coverage() {
		t.Fatalf("EU mirror flood left EU (%.2f) >= NA (%.2f)", eu.Coverage(), na.Coverage())
	}
}

func TestRacingBeatsFailoverUnderRegionalFlood(t *testing.T) {
	// The acceptance scenario: a regional mirror flood, failover client
	// versus true racing. Racing widens each wave, so clients behind dead
	// local mirrors find a live foreign one in fewer timeouts.
	run := func(k int) *Result {
		spec := raceSpec(k)
		spec.Topology = topo.Continents()
		spec.Attacks = []attack.Plan{{
			Tier:         attack.TierCache,
			TargetRegion: "eu",
			End:          spec.FetchWindow + 30*time.Minute,
			Residual:     0,
		}}
		res, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	failover, racing := run(1), run(2)
	// Both clients eventually escape to foreign mirrors — racing's win is
	// how fast. A K=2 wave reaches a live cache in fewer timeouts, so the
	// population is further along at the end of the fetch window and the
	// 99% mark arrives earlier.
	w := failover.Spec.FetchWindow
	if racing.CoverageAt(w) <= failover.CoverageAt(w) {
		t.Fatalf("racing K=2 (%.4f) did not beat failover K=1 (%.4f) at the window under the EU flood",
			racing.CoverageAt(w), failover.CoverageAt(w))
	}
	if racing.TimeToCoverage(0.99) >= failover.TimeToCoverage(0.99) {
		t.Fatalf("racing K=2 t99 %v not ahead of failover K=1 %v",
			racing.TimeToCoverage(0.99), failover.TimeToCoverage(0.99))
	}
	euP99 := func(r *Result) time.Duration {
		for _, rc := range r.Regions {
			if rc.Name == "eu" {
				return rc.P99
			}
		}
		t.Fatal("no EU row")
		return 0
	}
	if euP99(racing) >= euP99(failover) {
		t.Fatalf("racing EU p99 %v not ahead of failover %v", euP99(racing), euP99(failover))
	}
}

func TestRegionFloodRequiresTopology(t *testing.T) {
	spec := smallSpec()
	spec.Attacks = []attack.Plan{{
		Tier:         attack.TierCache,
		TargetRegion: "eu",
		End:          time.Hour,
	}}
	if _, err := Run(spec); err == nil {
		t.Fatal("regional flood accepted without a topology")
	}
}

func TestSplitClientsFollowsRegionShares(t *testing.T) {
	tp := topo.Continents()
	fleets := 2 * tp.NumRegions()
	regions := make([]topo.Region, fleets)
	for i := range regions {
		regions[i] = topo.Region(i % tp.NumRegions())
	}
	got := splitClients(tp, regions, fleets, 100_000)
	sum := 0
	perRegion := make([]int, tp.NumRegions())
	for i, n := range got {
		sum += n
		perRegion[regions[i]] += n
	}
	if sum != 100_000 {
		t.Fatalf("split leaks clients: %d", sum)
	}
	// EU holds the largest share (0.40), AF the smallest (0.04).
	if perRegion[topo.EU] <= perRegion[topo.AF] {
		t.Fatalf("EU (%d) not above AF (%d)", perRegion[topo.EU], perRegion[topo.AF])
	}
	if perRegion[topo.EU] < 35_000 || perRegion[topo.EU] > 45_000 {
		t.Fatalf("EU got %d clients, want ~40000", perRegion[topo.EU])
	}
}

func TestBiasWeightsPreferLocalCaches(t *testing.T) {
	tp := topo.Continents()
	cacheRegions := topo.PlaceTier(tp, 10)
	uniform := make([]float64, 10)
	for i := range uniform {
		uniform[i] = 0.1
	}
	biased := biasWeights(tp, topo.EU, cacheRegions, uniform)
	total := 0.0
	var bestLocal, bestForeign float64
	for i, w := range biased {
		total += w
		if cacheRegions[i] == topo.EU {
			if w > bestLocal {
				bestLocal = w
			}
		} else if w > bestForeign {
			bestForeign = w
		}
	}
	if total < 0.999 || total > 1.001 {
		t.Fatalf("biased weights sum to %f", total)
	}
	if bestLocal <= bestForeign {
		t.Fatalf("EU fleet prefers foreign cache: local %f, foreign %f", bestLocal, bestForeign)
	}
}
