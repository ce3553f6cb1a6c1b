package harness

import (
	"testing"
	"time"

	"partialtor/internal/attack"
	"partialtor/internal/dircache"
	"partialtor/internal/faults"
	"partialtor/internal/gossip"
	"partialtor/internal/simnet"
)

// TestFaultsCompoundRecovery is the PR's acceptance drill run as an
// assertion rather than a digest: under the compound scenario — every
// authority flooded for the whole run, 30% of mirrors crashed mid-run, 20%
// of the mesh membership churned — the jittered-backoff + gossip fleet
// recovers to the 90% coverage target after the faults clear, while the
// legacy fixed-retry star baseline strands for the whole window.
func TestFaultsCompoundRecovery(t *testing.T) {
	s := goldenFaults(Current, 1)
	res, err := RunE(t.Context(), s)
	if err != nil {
		t.Fatal(err)
	}
	d := res.Distribution
	if d == nil {
		t.Fatal("faults scenario produced no distribution phase")
	}
	need := int(0.9 * float64(d.TotalClients))
	if d.Covered < need {
		t.Fatalf("chaos fleet stranded: covered %d of %d (need %d)", d.Covered, d.TotalClients, need)
	}
	if d.TimeToTarget == simnet.Never {
		t.Fatal("chaos fleet never reached target coverage")
	}
	if d.FaultEvents == 0 {
		t.Fatal("no fault events scheduled — the plan did not reach the tier")
	}
	if d.TimeBelowTarget <= 0 {
		t.Fatal("TimeBelowTarget is zero under a full-window authority flood")
	}
	if w := faults.WorstMTTR(d.Recoveries); w == simnet.Never {
		t.Fatal("a fault never recovered (worst MTTR = Never)")
	}

	base := goldenFaults(Current, 1)
	base.Distribution.Gossip = nil
	base.Distribution.Backoff = nil
	base.Distribution.Faults = nil
	bres, err := RunE(t.Context(), base)
	if err != nil {
		t.Fatal(err)
	}
	bd := bres.Distribution
	if bd.TimeToTarget != simnet.Never {
		t.Fatalf("legacy baseline unexpectedly reached target at %v; the counterfactual no longer separates", bd.TimeToTarget)
	}
	if bd.Covered >= need {
		t.Fatalf("legacy baseline covered %d of %d — flood no longer strands it", bd.Covered, bd.TotalClients)
	}
}

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
			Tick:           5 * time.Second,
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
			Tick:        5 * time.Second,
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
