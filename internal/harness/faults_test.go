package harness

import (
	"testing"
	"time"

	"partialtor/internal/attack"
	"partialtor/internal/dircache"
	"partialtor/internal/faults"
	"partialtor/internal/gossip"
)

// TestFaultsCompoundRecovery holds every faults corpus cell to its kind's
// claim: under every authority flooded for the whole run, 30% of mirrors
// crashed mid-run and 20% of the mesh membership churned, the jittered-backoff
// + gossip fleet recovers to the 90% coverage target after the faults clear,
// while the legacy fixed-retry star baseline strands for the whole window.
func TestFaultsCompoundRecovery(t *testing.T) { walkClaim(t, "faults") }

// TestExperimentWithFaults checks the experiment end to end: a fault plan,
// a gossip mesh and a backoff on the distribution spec run in every period
// and leave their graceful-degradation accounting on the period's result.
func TestExperimentWithFaults(t *testing.T) {
	exp, err := NewExperiment(
		WithScenario(Scenario{Protocol: Current, Relays: 60, Round: 15 * time.Second, Seed: 7}),
		WithDistribution(dircache.Spec{
			Clients:        5_000,
			Caches:         10,
			Fleets:         2,
			FetchWindow:    4 * time.Minute,
			TargetCoverage: 0.9,
			Gossip:         &gossip.Config{Fanout: 2, Seeds: []int{0}},
			Backoff:        &faults.Backoff{Base: 5 * time.Second, Cap: 30 * time.Second},
			Faults: &faults.Plan{Faults: []faults.Fault{{
				Kind:    faults.Crash,
				Tier:    attack.TierCache,
				Targets: faults.SpreadTargets(1, 10, 3),
				Start:   30 * time.Second,
				End:     90 * time.Second,
			}}},
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := exp.Run(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Distributions) != 1 || res.Distributions[0].RetryBursts < 0 {
		t.Fatalf("distribution results missing: %+v", res.Distributions)
	}
	if got := res.Distributions[0].FaultEvents; got != 3 {
		t.Fatalf("FaultEvents = %d, want 3 (one crash over three mirrors)", got)
	}
}

// TestScenarioDistributionFaults checks the one way a bare scenario names a
// fault plan: on its distribution spec, which RunE runs as given.
func TestScenarioDistributionFaults(t *testing.T) {
	plan := &faults.Plan{Faults: []faults.Fault{{
		Kind:    faults.Crash,
		Tier:    attack.TierCache,
		Targets: []int{0, 1},
		Start:   time.Minute,
		End:     2 * time.Minute,
	}}}
	s := Scenario{
		Protocol: Current,
		Relays:   60,
		Round:    15 * time.Second,
		Seed:     3,
		Distribution: &dircache.Spec{
			Clients:     2_000,
			Caches:      6,
			Fleets:      1,
			FetchWindow: 3 * time.Minute,
			Faults:      plan,
		},
	}
	res, err := RunE(t.Context(), s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Distribution.FaultEvents != 2 {
		t.Fatalf("FaultEvents = %d, want 2 (the spec's plan did not run)", res.Distribution.FaultEvents)
	}
}
