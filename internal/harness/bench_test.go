package harness

import (
	"fmt"
	"runtime"
	"testing"

	"partialtor/internal/attack"
	"partialtor/internal/client"
	"partialtor/internal/dircache"
	"partialtor/internal/sig"
	"partialtor/internal/vote"
)

// BenchmarkExperimentCampaign runs one three-period campaign against the
// current protocol under the five-minute outage in every period, at the
// size of one campaign-sweep cell: 60 relays, 200 000 clients over 10
// caches, the hash chain and the availability model on. Every period shares
// one attack flag, so the experiment simulates a single run.
func BenchmarkExperimentCampaign(b *testing.B) {
	exp, err := NewExperiment(
		WithScenario(Scenario{Protocol: Current, Relays: 60, EntryPadding: -1, Seed: 1}),
		WithPeriods(3),
		WithDistribution(dircache.Spec{Clients: 200_000, Caches: 10, Fleets: 2}),
		WithChain(),
		WithAvailability(client.DefaultPolicy()),
		WithAttack(attack.FiveMinuteOutage(attack.MajorityTargets(9))),
	)
	if err != nil {
		b.Fatal(err)
	}
	var availability float64
	for b.Loop() {
		res, err := exp.Run(bg)
		if err != nil {
			b.Fatal(err)
		}
		availability = res.Availability
	}
	b.ReportMetric(availability, "availability")
}

// BenchmarkInputs times building one scenario's inputs at a consensus
// workload's size and at the paper's: the population's roster and nine views,
// nine keys, and nine votes sealed over the views. Every iteration asks an
// emptied cache for a fresh seed, so the cache never serves it. It reports
// what one entry keeps (retained-B/entry): the live heap after a collection
// with a fresh entry held, less the live heap before it was built. The
// padding sub-case seals nine more votes over a warm population's views,
// which is all another entry padding costs.
func BenchmarkInputs(b *testing.B) {
	for _, relays := range []int{300, 8000} {
		b.Run(fmt.Sprintf("relays=%d", relays), func(b *testing.B) {
			b.ReportAllocs()
			clearInputs()
			seed := int64(1_000_000)
			for b.Loop() {
				seed++
				Inputs(Scenario{Relays: relays, EntryPadding: -1, Seed: seed})
			}
			s := Scenario{Relays: relays, EntryPadding: -1, Seed: seed + 1}.withDefaults()
			b.ReportMetric(float64(retainedBytes(func() any {
				keys := sig.Authorities(s.Seed, s.N)
				return []any{keys, vote.Votes(keys, vote.Views(s.N, s.Relays, s.Seed), s.EntryPadding)}
			})), "retained-B/entry")
		})
		b.Run(fmt.Sprintf("relays=%d/padding", relays), func(b *testing.B) {
			b.ReportAllocs()
			warm := inputsFor(Scenario{Relays: relays, EntryPadding: -1, Seed: 1}.withDefaults())
			views := warm.views()
			for b.Loop() {
				vote.Votes(warm.keys, views, 0)
			}
		})
	}
}

// retainedBytes is how much of the heap what build returns keeps live.
func retainedBytes(build func() any) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	kept := build()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(kept)
	return after.HeapAlloc - before.HeapAlloc
}
