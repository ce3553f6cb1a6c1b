// Cache distribution demo: the layer the paper's availability story rests
// on (§2.1, §3.1). Generating a consensus is only half of "Tor is up" — a
// million clients still have to fetch it through the directory-cache tier.
// This example distributes one consensus to 1,000,000 modelled clients over
// 24 caches, then repeats the experiment with a DDoS-for-hire flood aimed at
// the caches instead of the authorities ("flood the mirrors"), then with a
// quarter of the caches *compromised* — equivocating mirrors serving an
// adversary-signed fork — with and without proposal-239 chain-verifying
// clients, then moves the tier onto the builtin continental topology and
// floods one region's mirrors to show racing clients (K parallel fetches,
// first response wins) riding out a regional flood that strands legacy
// clients, and finally composes the full pipeline — consensus generation,
// cache distribution, population-level availability — as one declarative
// Experiment (Generate → Distribute → Avail).
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"partialtor"
)

func spec() partialtor.DistributionSpec {
	return partialtor.DistributionSpec{
		Clients: 1_000_000,
		Caches:  24,
		Fleets:  4,
		Seed:    42,
	}
}

func report(name string, r *partialtor.DistributionResult) {
	fmt.Printf("%s:\n", name)
	fmt.Printf("  covered:            %d/%d clients (%.1f%%)\n", r.Covered, r.TotalClients, 100*r.Coverage())
	if r.Misled > 0 || r.StaleRejections > 0 || len(r.ForkDetections) > 0 {
		fmt.Printf("  misled:             %d clients (naive coverage %.1f%%)\n", r.Misled, 100*r.NaiveCoverage())
		fmt.Printf("  detections:         %d forks, %d stale rejections, %d extra fetches\n",
			len(r.ForkDetections), r.StaleRejections, r.ExtraFetches)
		for _, det := range r.ForkDetections {
			fmt.Printf("  fork proof:         caches %v, culprit authorities %v (at %v)\n",
				det.Caches, det.Proof.Culprits(), det.At.Round(time.Second))
		}
	}
	if r.TimeToTarget == partialtor.Never {
		fmt.Printf("  time to %.0f%%:        never\n", 100*r.Spec.TargetCoverage)
	} else {
		fmt.Printf("  time to %.0f%%:        %v\n", 100*r.Spec.TargetCoverage, r.TimeToTarget.Round(time.Second))
	}
	fmt.Printf("  authority egress:   %.1f MB\n", float64(r.AuthorityEgress)/1e6)
	fmt.Printf("  cache egress:       %.1f GB\n", float64(r.CacheEgress)/1e9)
	fmt.Printf("  fleet egress:       %.1f MB\n", float64(r.FleetEgress)/1e6)
	fmt.Printf("  caches serving:     %d/%d (%d authority fallbacks)\n",
		r.CachesWithDoc, r.Spec.Caches, r.CacheFallbacks)
	fmt.Printf("  failed fetches:     %d\n", r.FailedFetches)
	if r.Spec.RaceK >= 1 {
		fmt.Printf("  racing:             K=%d, %d laggards (%.1f MB wasted), %d wave timeouts\n",
			r.Spec.RaceK, r.RaceLaggards, float64(r.RaceWasteBytes)/1e6, r.RaceTimeouts)
	}
	for _, rc := range r.Regions {
		p99 := "never"
		if rc.P99 != partialtor.Never {
			p99 = rc.P99.Round(time.Second).String()
		}
		fmt.Printf("  region %-4s         %d clients, %.1f%% covered, p99 %s\n",
			rc.Name, rc.Clients, 100*rc.Coverage(), p99)
	}
	fmt.Println()
}

func main() {
	ctx := context.Background()
	start := time.Now()
	fmt.Println("== distributing one consensus to 1,000,000 clients over 24 caches ==")
	fmt.Println()

	healthy, err := partialtor.RunDistribution(spec())
	if err != nil {
		log.Fatalf("cachedistribution: %v", err)
	}
	report("healthy tier", healthy)

	// The same stressor budget the paper prices against authorities, aimed
	// at the majority of the caches for the whole fetch window.
	s := spec()
	cachePlan := partialtor.AttackPlan{
		Tier:     partialtor.TierCache,
		Targets:  partialtor.MajorityTargets(s.Caches),
		Start:    0,
		End:      time.Hour,
		Residual: partialtor.ResidualUnderDDoS,
	}
	s.Attacks = []partialtor.AttackPlan{cachePlan}
	attacked, err := partialtor.RunDistribution(s)
	if err != nil {
		log.Fatalf("cachedistribution: %v", err)
	}
	report(fmt.Sprintf("flooding %d of %d caches (0.5 Mbit/s residual)",
		len(cachePlan.Targets), s.Caches), attacked)

	// Compromised mirrors: the adversary does not flood the caches, it owns
	// a quarter of them (TorMult-style mirror inflation) and serves an
	// adversary-signed fork to half the fleets. Chain-blind clients swallow
	// it — naive coverage looks perfect while a chunk of the population is
	// on the wrong consensus. Chain-verifying clients (proposal 239) catch
	// the fork, prove it, distrust the equivocators and still reach target
	// coverage through the honest mirrors.
	fmt.Println("== a quarter of the mirrors compromised (equivocating) ==")
	fmt.Println()
	comp := partialtor.CompromisePlan{
		Targets: partialtor.FirstTargets(6),
		Mode:    partialtor.CompromiseEquivocate,
	}
	rent := partialtor.DefaultCostModel().CompromiseCostPerMonth(comp)
	for _, verify := range []bool{false, true} {
		s := spec()
		s.Compromise = &comp
		s.VerifyClients = verify
		r, err := partialtor.RunDistribution(s)
		if err != nil {
			log.Fatalf("cachedistribution: %v", err)
		}
		name := "chain-blind clients"
		if verify {
			name = "chain-verifying clients"
		}
		report(fmt.Sprintf("%s (6/24 mirrors equivocating, $%.0f/month)", name, rent), r)
	}

	// Planet-scale: the same tier on the builtin continental topology, the
	// flood aimed at one region's mirrors ("flood the EU mirrors" — the plan
	// names the region, the run resolves it against the placement). A legacy
	// client pinned to a flooded mirror waits out the window; a racing client
	// (K=2) races every fetch against two caches and takes the first
	// response, riding out the flood at the price of duplicate egress.
	fmt.Println("== regional flood: EU mirrors offline, legacy vs racing clients ==")
	fmt.Println()
	for _, k := range []int{0, 2} {
		s := spec()
		s.Clients = 200_000
		s.Topology = partialtor.Continents()
		s.Fleets = 12 // two fleets per continent
		s.RaceK = k
		plan := partialtor.AttackPlan{
			Tier:         partialtor.TierCache,
			TargetRegion: "eu",
			Start:        0,
			End:          time.Hour,
			Residual:     0,
		}
		if err := plan.ResolveRegion(s.Topology, s.Caches); err != nil {
			log.Fatalf("cachedistribution: %v", err)
		}
		cost := partialtor.DefaultCostModel().PlanCost(plan)
		s.Attacks = []partialtor.AttackPlan{plan}
		r, err := partialtor.RunDistribution(s)
		if err != nil {
			log.Fatalf("cachedistribution: %v", err)
		}
		name := "legacy clients"
		if k >= 2 {
			name = fmt.Sprintf("racing clients (K=%d)", k)
		}
		report(fmt.Sprintf("%s, %d EU mirrors offline ($%.2f)", name, len(plan.Targets), cost), r)
	}

	// End to end: run the actual directory protocol (scaled), then
	// distribute whatever it produced. Under the authority-tier five-minute
	// attack the current protocol generates nothing, so the tier has
	// nothing to serve and coverage is zero.
	fmt.Println("== end to end: protocol run + distribution (scaled, 300 relays) ==")
	fmt.Println()
	dist := spec()
	dist.Clients = 200_000
	authPlan := partialtor.AttackPlan{
		Targets:  partialtor.MajorityTargets(9),
		Start:    0,
		End:      40 * time.Second, // covers both scaled vote rounds
		Residual: 0,
	}
	for _, tc := range []struct {
		name   string
		attack *partialtor.AttackPlan
	}{
		{"no attack", nil},
		{"five-minute authority attack", &authPlan},
	} {
		res, err := partialtor.RunE(ctx, partialtor.Scenario{
			Protocol:     partialtor.Current,
			Relays:       300,
			EntryPadding: -1,
			Round:        15 * time.Second,
			Attack:       tc.attack,
			Distribution: &dist,
			Seed:         3,
		})
		if err != nil {
			log.Fatalf("cachedistribution: %v", err)
		}
		fmt.Printf("%s: consensus success=%v\n", tc.name, res.Success)
		report("  distribution", res.Distribution)
	}

	// The full pipeline as one declarative experiment: four hourly periods
	// distributing to the million-client tier, the caches flooded from
	// hour 1. Each period runs the protocol and distributes the consensus it
	// produced (hours 1–3 are the same attacked scenario, so the experiment
	// simulates it once and reuses the run), and the availability phase
	// starts every validity window when the document actually reached 95% of
	// clients — not when the authorities signed it.
	fmt.Println("== experiment: four hourly periods, caches flooded from hour 1 ==")
	fmt.Println()
	exp, err := partialtor.NewExperiment(
		partialtor.WithScenario(partialtor.Scenario{
			Protocol:     partialtor.Current,
			Relays:       300,
			EntryPadding: -1,
			Round:        15 * time.Second,
			Seed:         3,
		}),
		partialtor.WithPeriods(4),
		partialtor.WithDistribution(spec()),
		partialtor.WithAttack(cachePlan),
		partialtor.WithAttackSchedule(func(i int) bool { return i > 0 }),
	)
	if err != nil {
		log.Fatalf("cachedistribution: %v", err)
	}
	fmt.Printf("phases: %v\n", exp.Phases())
	er, err := exp.Run(ctx)
	if err != nil {
		log.Fatalf("cachedistribution: %v", err)
	}
	for i, d := range er.Distributions {
		fmt.Printf("period %d: consensus=%v coverage=%.1f%%\n", i, er.Outcomes[i], 100*d.Coverage())
	}
	fmt.Printf("availability: %.1f%%\n", 100*er.Availability)
	for _, w := range er.Timeline.Outages() {
		fmt.Printf("population-level outage: %v (%v)\n", w, w.Duration().Round(time.Second))
	}
	fmt.Println()
	fmt.Printf("total wall-clock: %v\n", time.Since(start).Round(time.Millisecond))
}
