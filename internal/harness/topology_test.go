package harness

import (
	"context"
	"testing"
	"time"

	"partialtor/internal/dircache"
	"partialtor/internal/topo"
)

// TestScenarioTopologyThreadsThroughPhases runs a small ICPS scenario on the
// continental map and checks the topology reached both phases: the protocol
// still concludes, and the distribution result carries the region breakdown.
func TestScenarioTopologyThreadsThroughPhases(t *testing.T) {
	s := Scenario{
		Protocol:     ICPS,
		Relays:       150,
		EntryPadding: 0,
		Seed:         3,
		Topology:     topo.Continents(),
		Distribution: &dircache.Spec{
			Clients:     10_000,
			Caches:      6,
			Fleets:      6,
			FetchWindow: 5 * time.Minute,
		},
	}
	res, err := RunE(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success {
		t.Fatal("regional protocol run failed")
	}
	if res.Distribution == nil || len(res.Distribution.Regions) != 6 {
		t.Fatalf("distribution missing region breakdown: %+v", res.Distribution)
	}
	// The scenario topology must have carried into the distribution spec.
	if res.Distribution.Spec.Topology == nil {
		t.Fatal("topology did not carry over into the distribution phase")
	}
}

// TestExperimentTopology checks the base scenario's topology reaches every
// period's distribution phase.
func TestExperimentTopology(t *testing.T) {
	exp, err := NewExperiment(
		WithScenario(Scenario{Protocol: Current, Relays: 150, EntryPadding: 0,
			Round: 15 * time.Second, Seed: 5, Topology: topo.Continents()}),
		WithDistribution(dircache.Spec{
			Clients:     10_000,
			Caches:      6,
			Fleets:      6,
			FetchWindow: 5 * time.Minute,
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := exp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Distributions) == 0 || len(res.Distributions[0].Regions) != 6 {
		t.Fatal("experiment distribution missing region breakdown")
	}
}
