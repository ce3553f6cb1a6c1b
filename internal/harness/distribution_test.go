package harness

import (
	"context"
	"strings"
	"testing"
	"time"

	"partialtor/internal/attack"
	"partialtor/internal/dircache"
	"partialtor/internal/simnet"
)

func testDistSpec() *dircache.Spec {
	return &dircache.Spec{
		Clients:     20_000,
		Caches:      5,
		Fleets:      2,
		FetchWindow: 10 * time.Minute,
	}
}

func TestScenarioWithDistribution(t *testing.T) {
	res := mustRun(t, Scenario{
		Protocol:     Current,
		Relays:       300,
		EntryPadding: -1,
		Round:        15 * time.Second,
		Distribution: testDistSpec(),
		Seed:         3,
	})
	if !res.Success {
		t.Fatal("healthy scaled run failed")
	}
	d := res.Distribution
	if d == nil {
		t.Fatal("no distribution result despite Distribution spec")
	}
	if d.Spec.PublishAt != res.Latency {
		t.Fatalf("publish at %v, want protocol latency %v", d.Spec.PublishAt, res.Latency)
	}
	c := res.Consensus()
	if c == nil || d.Spec.DocBytes != c.EncodedSize() {
		t.Fatalf("distributed doc size %d, want measured consensus size", d.Spec.DocBytes)
	}
	if d.Coverage() < 0.99 {
		t.Fatalf("population coverage %.2f after a successful run", d.Coverage())
	}
	if d.TimeToTarget == simnet.Never || d.TimeToTarget < res.Latency {
		t.Fatalf("target coverage at %v, must follow publication at %v", d.TimeToTarget, res.Latency)
	}
}

// TestAuthorityAttackStarvesDistribution checks the end-to-end story: the
// seed's authority-tier five-minute attack still breaks consensus generation
// exactly as before, and the new distribution phase then shows the
// population-level consequence — nothing to distribute, zero coverage.
func TestAuthorityAttackStarvesDistribution(t *testing.T) {
	plan := attack.Plan{
		Targets:  attack.MajorityTargets(9),
		Start:    0,
		End:      40 * time.Second, // covers both scaled vote rounds
		Residual: 0,
	}
	res := mustRun(t, Scenario{
		Protocol:     Current,
		Relays:       300,
		EntryPadding: -1,
		Round:        15 * time.Second,
		Attack:       &plan,
		Distribution: testDistSpec(),
		Seed:         3,
	})
	if res.Success {
		t.Fatal("five-minute attack no longer breaks the current protocol")
	}
	d := res.Distribution
	if d == nil {
		t.Fatal("no distribution result")
	}
	if d.Spec.PublishAt != simnet.Never {
		t.Fatalf("failed run must never publish, got %v", d.Spec.PublishAt)
	}
	// The authority flood must carry over into the distribution phase:
	// the caches fetch from the same throttled authorities.
	carried := false
	for i := range d.Spec.Attacks {
		if d.Spec.Attacks[i].Tier == attack.TierAuthority {
			carried = true
		}
	}
	if !carried {
		t.Fatal("authority-tier Scenario.Attack not propagated into the distribution spec")
	}
	if d.Covered != 0 {
		t.Fatalf("covered %d clients without a consensus", d.Covered)
	}
	if d.FailedFetches == 0 {
		t.Fatal("clients should have been refused all period")
	}
}

// TestInvalidScenarioReturnsError pins the error contract: every
// configuration bug comes back as an error from RunE — a cache-tier plan on
// Scenario.Attack, a malformed window, a target beyond the authority set, an
// unregistered protocol — so one bad cell costs one row of a sweep, never
// the sweep.
func TestInvalidScenarioReturnsError(t *testing.T) {
	scen := func(plan attack.Plan) Scenario {
		return Scenario{
			Protocol:     Current,
			Relays:       300,
			EntryPadding: -1,
			Round:        15 * time.Second,
			Attack:       &plan,
			Seed:         3,
		}
	}
	cases := []struct {
		name string
		s    Scenario
		want string
	}{
		{"cache tier", scen(attack.Plan{
			Tier:     attack.TierCache,
			Targets:  attack.MajorityTargets(9),
			End:      40 * time.Second,
			Residual: 0,
		}), "authority-tier"},
		{"inverted window", scen(attack.Plan{
			Targets: attack.MajorityTargets(9),
			Start:   time.Minute,
			End:     30 * time.Second,
		}), "window"},
		{"target beyond tier", scen(attack.Plan{
			Targets: []int{12},
			End:     30 * time.Second,
		}), "beyond the 9-node authority tier"},
		{"unregistered protocol", Scenario{Protocol: Protocol(987), Relays: 100}, "no driver registered"},
	}
	for _, tc := range cases {
		res, err := RunE(context.Background(), tc.s)
		if err == nil {
			t.Errorf("%s: RunE accepted the scenario", tc.name)
			continue
		}
		if res != nil {
			t.Errorf("%s: error with non-nil result", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q missing %q", tc.name, err, tc.want)
		}
	}
}

// --- effectiveDistribution edge cases -------------------------------------

// TestEffectiveDistributionDefaults: a spec that leaves Seed and Authorities
// zero inherits them from the scenario, and the original spec is never
// mutated — scenarios may share one spec value across sweep cells.
func TestEffectiveDistributionDefaults(t *testing.T) {
	orig := testDistSpec()
	s := Scenario{Relays: 100, Seed: 7, N: 5, Distribution: orig}.withDefaults()
	spec, err := effectiveDistribution(s)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Seed != 7 {
		t.Fatalf("seed %d, want the scenario's 7", spec.Seed)
	}
	if spec.Authorities != 5 {
		t.Fatalf("authorities %d, want the scenario's 5", spec.Authorities)
	}
	if orig.Seed != 0 || orig.Authorities != 0 {
		t.Fatalf("caller's spec mutated: seed=%d authorities=%d", orig.Seed, orig.Authorities)
	}

	// Pinned values win over the scenario's.
	pinned := testDistSpec()
	pinned.Seed, pinned.Authorities = 99, 3
	s.Distribution = pinned
	spec, err = effectiveDistribution(s)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Seed != 99 || spec.Authorities != 3 {
		t.Fatalf("pinned spec overridden: seed=%d authorities=%d", spec.Seed, spec.Authorities)
	}
}

// TestEffectiveDistributionAttackCarryOver: Scenario.Attack rides into the
// spec's Attacks — unless the spec already brings its own authority-tier
// plan, in which case the spec's plan wins and nothing is appended.
func TestEffectiveDistributionAttackCarryOver(t *testing.T) {
	plan := attack.Plan{Targets: attack.MajorityTargets(9), End: time.Minute, Residual: 0}
	s := Scenario{Relays: 100, Distribution: testDistSpec(), Attack: &plan}.withDefaults()
	spec, err := effectiveDistribution(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Attacks) != 1 || spec.Attacks[0].Tier != attack.TierAuthority {
		t.Fatalf("attack not carried over: %+v", spec.Attacks)
	}

	// An authority plan already present suppresses the carry-over.
	own := testDistSpec()
	ownPlan := attack.Plan{Targets: []int{0}, End: 2 * time.Minute}
	own.Attacks = []attack.Plan{ownPlan}
	s.Distribution = own
	spec, err = effectiveDistribution(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Attacks) != 1 || spec.Attacks[0].End != 2*time.Minute {
		t.Fatalf("explicit authority plan not preserved verbatim: %+v", spec.Attacks)
	}

	// A cache-tier plan does not count as an authority plan: the scenario
	// attack still carries over alongside it.
	mixed := testDistSpec()
	mixed.Attacks = []attack.Plan{{Tier: attack.TierCache, Targets: []int{0}, End: time.Minute}}
	s.Distribution = mixed
	spec, err = effectiveDistribution(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Attacks) != 2 {
		t.Fatalf("carry-over skipped despite no authority plan: %+v", spec.Attacks)
	}
}

// TestEffectiveDistributionErrors: an unsatisfiable spec or a carried-over
// attack aimed beyond the distribution tier's authorities is an error (the
// old code panicked here).
func TestEffectiveDistributionErrors(t *testing.T) {
	bad := testDistSpec()
	bad.TargetCoverage = 1.5
	s := Scenario{Relays: 100, Distribution: bad}.withDefaults()
	if _, err := effectiveDistribution(s); err == nil || !strings.Contains(err.Error(), "target coverage") {
		t.Fatalf("invalid spec error %v", err)
	}
	res, err := RunE(context.Background(), s)
	if err == nil || res != nil {
		t.Fatalf("RunE accepted an invalid distribution spec: res=%v err=%v", res, err)
	}

	// The distribution tier is sized smaller than the attacked authorities.
	small := testDistSpec()
	small.Authorities = 3
	plan := attack.Plan{Targets: attack.MajorityTargets(9), End: time.Minute}
	s = Scenario{Relays: 100, Distribution: small, Attack: &plan}.withDefaults()
	if _, err := effectiveDistribution(s); err == nil ||
		!strings.Contains(err.Error(), "size Distribution.Authorities") {
		t.Fatalf("oversized targets error %v", err)
	}
}
