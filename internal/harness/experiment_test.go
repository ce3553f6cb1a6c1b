package harness

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"partialtor/internal/attack"
	"partialtor/internal/dircache"
	"partialtor/internal/sig"
	"partialtor/internal/vote"
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

// countingDriver is the Current driver, counting its builds and calling
// afterCollect (when set) once each run's outcome is collected.
type countingDriver struct {
	Driver
	builds       int
	afterCollect func()
}

func (d *countingDriver) Build(s Scenario, keys []*sig.KeyPair, docs []*vote.Document) (ProtocolRun, error) {
	d.builds++
	pr, err := d.Driver.Build(s, keys, docs)
	if err != nil || d.afterCollect == nil {
		return pr, err
	}
	collect := pr.Collect
	pr.Collect = func() Outcome {
		out := collect()
		d.afterCollect()
		return out
	}
	return pr, nil
}

// runDigest folds everything a period reports into one digest: success,
// latency, DoneAt, the consensus digest, the network's stats and logs, and
// the distribution curve and counters.
func runDigest(r *RunResult) [sha256.Size]byte {
	h := sha256.New()
	hashRun(h, r)
	hashDistribution(h, r.Distribution)
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// TestExperimentRunsEachScenarioOnce: a period's scenario is fixed by its
// attack flag, so Run builds the protocol once per distinct flag, every
// period still reports exactly what a fresh run of its scenario does, and a
// cancelled context still stops Run before a period that would only have
// reused a run.
func TestExperimentRunsEachScenarioOnce(t *testing.T) {
	inner, err := DriverFor(Current)
	if err != nil {
		t.Fatal(err)
	}
	drv := &countingDriver{Driver: inner}
	base := Scenario{Protocol: NewProtocol(drv), Relays: 100, EntryPadding: -1, Round: 15 * time.Second, Seed: 1}
	schedules := []struct {
		name     string
		attacked func(int) bool // nil = no attack at all
	}{
		{"none", nil},
		{"all", func(int) bool { return true }},
		{"after-first", afterFirst},
		{"odd", func(i int) bool { return i%2 == 1 }},
	}
	// A fresh run per attack flag: the schedules differ only in which
	// periods carry which flag, so every experiment's scenarioFor(flag) is
	// the same scenario.
	want := map[bool][sha256.Size]byte{}
	for _, sc := range schedules {
		for _, periods := range []int{1, 3, 5} {
			t.Run(fmt.Sprintf("%s/%d", sc.name, periods), func(t *testing.T) {
				opts := []ExperimentOption{
					WithScenario(base),
					WithPeriods(periods),
					WithDistribution(*testDistSpec()),
					WithChain(),
				}
				if sc.attacked != nil {
					opts = append(opts,
						WithAttack(attack.Plan{Targets: attack.MajorityTargets(9), End: 30 * time.Second, Residual: 5e3}),
						WithAttackSchedule(sc.attacked))
				}
				exp, err := NewExperiment(opts...)
				if err != nil {
					t.Fatal(err)
				}
				drv.builds = 0
				er, err := exp.Run(bg)
				if err != nil {
					t.Fatal(err)
				}
				builds := drv.builds
				flags := map[bool]bool{}
				for i := 0; i < periods; i++ {
					flag := exp.attacked(i)
					flags[flag] = true
					if _, ok := want[flag]; !ok {
						want[flag] = runDigest(mustRun(t, exp.scenarioFor(flag)))
					}
				}
				if builds != len(flags) {
					t.Errorf("%d builds for %d distinct scenarios", builds, len(flags))
				}
				successes := 0
				for i, run := range er.Runs {
					if runDigest(run) != want[exp.attacked(i)] {
						t.Errorf("period %d differs from a fresh run of its scenario", i)
					}
					if er.Outcomes[i] != run.Success || er.Distributions[i] != run.Distribution {
						t.Errorf("period %d: outcome or distribution is not its run's", i)
					}
					if run.Success {
						successes++
					}
				}
				if len(er.Runs) != periods || er.Successes != successes || er.Chain.Len() != successes {
					t.Errorf("%d runs, %d successes, chain %d; want %d, %d, %d",
						len(er.Runs), er.Successes, er.Chain.Len(), periods, successes, successes)
				}
				if err := er.Chain.Verify(); err != nil {
					t.Errorf("chain: %v", err)
				}
			})
		}
	}

	t.Run("cancelled-after-period-0", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		drv.builds, drv.afterCollect = 0, cancel
		exp, err := NewExperiment(WithScenario(base), WithPeriods(3))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := exp.Run(ctx); err == nil || !strings.Contains(err.Error(), "cancelled before period 1") {
			t.Fatalf("error %v, want the experiment cancelled before period 1", err)
		}
		if drv.builds != 1 {
			t.Fatalf("%d builds, want period 0's one", drv.builds)
		}
	})
}
