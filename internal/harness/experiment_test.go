package harness

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"partialtor/internal/attack"
	"partialtor/internal/dircache"
)

func TestExperimentPhases(t *testing.T) {
	single, err := NewExperiment(WithScenario(Scenario{Relays: 100}))
	if err != nil {
		t.Fatal(err)
	}
	if got := single.Phases(); len(got) != 1 || got[0] != PhaseGenerate {
		t.Fatalf("single-run phases %v", got)
	}
	// WithPeriods enables the Avail phase even for one period: asking for
	// periods is asking for the period timeline.
	onePeriod, err := NewExperiment(WithScenario(Scenario{Relays: 100}), WithPeriods(1))
	if err != nil {
		t.Fatal(err)
	}
	if got := onePeriod.Phases(); len(got) != 2 || got[1] != PhaseAvail {
		t.Fatalf("WithPeriods(1) phases %v, want Avail enabled", got)
	}
	full, err := NewExperiment(
		WithScenario(Scenario{Relays: 100}),
		WithPeriods(3),
		WithDistribution(*testDistSpec()),
	)
	if err != nil {
		t.Fatal(err)
	}
	want := []Phase{PhaseGenerate, PhaseDistribute, PhaseAvail}
	got := full.Phases()
	if len(got) != len(want) {
		t.Fatalf("phases %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("phases %v, want %v", got, want)
		}
	}
	if full.periods != 3 {
		t.Fatalf("periods %d", full.periods)
	}
}

// TestExperimentDistributionPhase: with a Distribute phase the per-period
// distribution results feed a fleet-level timeline whose validity windows
// start at actual coverage, and a cache-tier attack plan routes into the
// distribution phase of attacked periods only.
func TestExperimentDistributionPhase(t *testing.T) {
	spec := *testDistSpec()
	exp, err := NewExperiment(
		WithScenario(Scenario{Protocol: Current, Relays: 150, EntryPadding: -1, Round: 15 * time.Second, Seed: 3}),
		WithPeriods(2),
		WithDistribution(spec),
		WithAttack(attack.Plan{
			Tier:     attack.TierCache,
			Targets:  attack.MajorityTargets(spec.Caches),
			End:      time.Hour,
			Residual: 0,
		}),
		WithAttackSchedule(func(i int) bool { return i == 1 }),
	)
	if err != nil {
		t.Fatal(err)
	}
	er, err := exp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(er.Distributions) != 2 || er.Distributions[0] == nil || er.Distributions[1] == nil {
		t.Fatalf("distributions %v", er.Distributions)
	}
	if n := len(er.Distributions[0].Spec.Attacks); n != 0 {
		t.Fatalf("healthy period carries %d attacks", n)
	}
	if n := len(er.Distributions[1].Spec.Attacks); n != 1 {
		t.Fatalf("attacked period carries %d attacks, want 1", n)
	}
	// Flooding the majority of a 5-cache tier to zero must hurt coverage.
	if er.Distributions[1].Coverage() >= er.Distributions[0].Coverage() {
		t.Fatalf("cache flood did not reduce coverage: %.3f vs %.3f",
			er.Distributions[1].Coverage(), er.Distributions[0].Coverage())
	}
	if er.Timeline == nil {
		t.Fatal("multi-period experiment produced no timeline")
	}
}

// TestExperimentAdoptsScenarioDistribution: a Distribution spec riding in
// on the base scenario becomes the Distribute phase — phase accounting,
// Distributions and the fleet-level timeline all see it; setting it both
// ways is rejected as ambiguous.
func TestExperimentAdoptsScenarioDistribution(t *testing.T) {
	base := Scenario{Protocol: Current, Relays: 150, EntryPadding: -1,
		Round: 15 * time.Second, Seed: 3, Distribution: testDistSpec()}
	exp, err := NewExperiment(WithScenario(base), WithPeriods(2))
	if err != nil {
		t.Fatal(err)
	}
	if got := exp.Phases(); len(got) != 3 || got[1] != PhaseDistribute {
		t.Fatalf("phases %v, want the scenario's distribution adopted", got)
	}
	er, err := exp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(er.Distributions) != 2 || er.Distributions[0] == nil {
		t.Fatalf("distributions %v", er.Distributions)
	}
	if er.Timeline == nil {
		t.Fatal("no fleet timeline")
	}

	if _, err := NewExperiment(
		WithScenario(base),
		WithDistribution(*testDistSpec()),
	); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("ambiguous distribution error %v", err)
	}
}

// TestExperimentAdoptsScenarioAttack: an Attack on the base scenario is
// governed by the experiment's schedule instead of silently hitting every
// period; setting it both ways is rejected.
func TestExperimentAdoptsScenarioAttack(t *testing.T) {
	plan := attack.Plan{Targets: attack.MajorityTargets(9), End: 30 * time.Second, Residual: 0}
	base := Scenario{Protocol: Current, Relays: 150, EntryPadding: -1,
		Round: 15 * time.Second, Seed: 1, Attack: &plan}
	exp, err := NewExperiment(
		WithScenario(base),
		WithPeriods(2),
		WithAttackSchedule(func(i int) bool { return i == 1 }),
	)
	if err != nil {
		t.Fatal(err)
	}
	er, err := exp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !er.Outcomes[0] {
		t.Fatal("unscheduled period 0 ran under the base scenario's attack")
	}
	if er.Outcomes[1] {
		t.Fatal("scheduled period 1 escaped the adopted attack")
	}

	if _, err := NewExperiment(
		WithScenario(base),
		WithAttack(plan),
	); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("ambiguous attack error %v", err)
	}
}

func TestExperimentValidationErrors(t *testing.T) {
	cases := []struct {
		name string
		opts []ExperimentOption
		want string
	}{
		{"zero periods", []ExperimentOption{WithPeriods(0)}, "at least one period"},
		{"cache attack without distribution", []ExperimentOption{
			WithAttack(attack.Plan{Tier: attack.TierCache, Targets: []int{0}, End: time.Minute}),
		}, "needs a distribution phase"},
		{"invalid attack window", []ExperimentOption{
			WithAttack(attack.Plan{Targets: []int{0}, Start: time.Minute, End: time.Second}),
		}, "window"},
		{"attack beyond authorities", []ExperimentOption{
			WithAttack(attack.Plan{Targets: []int{11}, End: time.Minute}),
		}, "beyond the 9-node authority tier"},
		{"invalid distribution spec", []ExperimentOption{
			WithDistribution(dircache.Spec{TargetCoverage: 2}),
		}, "target coverage"},
		{"unknown protocol", []ExperimentOption{WithScenario(Scenario{Protocol: Protocol(555)})}, "no driver"},
		{"negative bandwidth", []ExperimentOption{WithScenario(Scenario{Bandwidth: -5e6})}, "bandwidth"},
		{"NaN bandwidth", []ExperimentOption{WithScenario(Scenario{Bandwidth: math.NaN()})}, "bandwidth"},
	}
	for _, tc := range cases {
		if _, err := NewExperiment(tc.opts...); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want %q", tc.name, err, tc.want)
		}
	}
}

func TestExperimentCancellation(t *testing.T) {
	exp, err := NewExperiment(WithScenario(Scenario{Relays: 100}), WithPeriods(3))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := exp.Run(ctx); err == nil || !strings.Contains(err.Error(), "cancelled") {
		t.Fatalf("cancelled experiment error %v", err)
	}
}
