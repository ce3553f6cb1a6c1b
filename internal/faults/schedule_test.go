package faults

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"partialtor/internal/attack"
	"partialtor/internal/obs"
	"partialtor/internal/simnet"
	"partialtor/internal/topo"
)

// TestFaultThrottle: a crash takes exactly its targets offline, both
// directions, over [Start, End), and composes with a flood on the same node
// as the lower of the two capacities.
func TestFaultThrottle(t *testing.T) {
	plan := &Plan{Faults: []Fault{{Kind: Crash, Tier: attack.TierCache, Targets: []int{0}, Start: 2 * time.Second, End: 6 * time.Second}}}
	flood := attack.Plan{Tier: attack.TierCache, Targets: []int{0}, End: 4 * time.Second, Residual: 500}
	sched, err := Compile(nil, [2]int{9, 10}, []attack.Plan{flood}, plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	up, down := simnet.NewProfile(1000), simnet.NewProfile(1000)
	sched.Throttle(attack.TierCache, 0, up, down)
	for _, c := range []struct {
		at   time.Duration
		rate float64
	}{
		{time.Second, 500}, {2 * time.Second, 0}, {5 * time.Second, 0}, {6 * time.Second, 1000},
	} {
		if r := up.RateAt(c.at); r != c.rate {
			t.Errorf("uplink rate at %v = %g, want %g", c.at, r, c.rate)
		}
		if r := down.RateAt(c.at); r != c.rate {
			t.Errorf("downlink rate at %v = %g, want %g", c.at, r, c.rate)
		}
	}
	// Non-targets, and the other tier's node of the same index, keep full
	// capacity.
	for _, n := range []struct {
		tier attack.Tier
		i    int
	}{{attack.TierCache, 1}, {attack.TierAuthority, 0}} {
		spare := simnet.NewProfile(1000)
		sched.Throttle(n.tier, n.i, spare, spare)
		if r := spare.RateAt(3 * time.Second); r != 1000 {
			t.Errorf("%v node %d throttled to %g", n.tier, n.i, r)
		}
	}
}

// TestPlanHelpers: a churn fault holds its caches out of the mesh over the
// half-open window, a crash holds nobody out, and the mesh changes at each
// churn fault's boundaries in plan order.
func TestPlanHelpers(t *testing.T) {
	p := &Plan{Faults: []Fault{
		{Kind: Churn, Tier: attack.TierCache, Targets: []int{2}, Start: 90 * time.Second, End: 3 * time.Minute},
		{Kind: Crash, Tier: attack.TierCache, Targets: []int{1, 4}, Start: time.Minute, End: 2 * time.Minute},
		{Kind: Churn, Tier: attack.TierCache, Targets: []int{5}, Start: 10 * time.Second, End: time.Minute},
	}}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	sched, err := Compile(nil, [2]int{9, 10}, nil, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		cache int
		at    time.Duration
		away  bool
	}{
		{2, time.Minute, false},      // not yet churned
		{2, 90 * time.Second, true},  // away from Start
		{2, 3*time.Minute - 1, true}, // still away
		{2, 3 * time.Minute, false},  // back at End
		{5, 30 * time.Second, true},  // the other churn fault
		{5, 90 * time.Second, false}, // another cache's window
		{1, 90 * time.Second, false}, // a crash is not a membership fault
		{3, 2 * time.Minute, false},  // never faulted
	} {
		if got := sched.AwayAt(c.cache, c.at); got != c.away {
			t.Errorf("AwayAt(%d, %v) = %v, want %v", c.cache, c.at, got, c.away)
		}
	}
	want := []time.Duration{90 * time.Second, 3 * time.Minute, 10 * time.Second, time.Minute}
	if got := sched.ChurnBoundaries(); !slices.Equal(got, want) {
		t.Errorf("ChurnBoundaries() = %v, want %v", got, want)
	}
}

// TestScheduleFilesEachTargetOnce: a window lands under exactly the nodes its
// plan names, once even for a target listed twice, and a node's windows keep
// the order a runner throttles and arms them in — floods, then faults, each
// in plan order. The ground truth still has one on/off pair per listed
// target.
func TestScheduleFilesEachTargetOnce(t *testing.T) {
	floods := []attack.Plan{
		{Tier: attack.TierCache, Targets: []int{2, 4, 6, 4}, Start: time.Minute, End: 2 * time.Minute, Residual: 5e3},
		{Tier: attack.TierAuthority, Targets: []int{4}, End: time.Minute},
	}
	plan := &Plan{Faults: []Fault{
		{Kind: Crash, Tier: attack.TierCache, Targets: []int{4, 1, 1}, Start: 30 * time.Second, End: time.Minute},
	}}
	rec := obs.NewRecorder(64)
	sched, err := Compile(nil, [2]int{9, 8}, floods, plan, rec)
	if err != nil {
		t.Fatal(err)
	}
	flood := Window{Start: time.Minute, End: 2 * time.Minute, Residual: 5e3}
	crash := Window{Start: 30 * time.Second, End: time.Minute, Fault: &plan.Faults[0]}
	want := map[int][]Window{1: {crash}, 2: {flood}, 4: {flood, crash}, 6: {flood}}
	for i := 0; i < 8; i++ {
		if got := sched.Windows(attack.TierCache, i); !reflect.DeepEqual(got, want[i]) {
			t.Errorf("cache %d windows %+v, want %+v", i, got, want[i])
		}
	}
	if got := sched.Windows(attack.TierAuthority, 4); len(got) != 1 || got[0].Fault != nil {
		t.Errorf("authority 4 windows %+v, want the one authority flood", got)
	}
	counts := map[obs.EventType]int{}
	for _, ev := range rec.Events() {
		counts[ev.Type]++
	}
	if counts[obs.EvAttackOn] != 5 || counts[obs.EvAttackOff] != 5 || counts[obs.EvFaultOn] != 3 || counts[obs.EvFaultOff] != 3 {
		t.Errorf("traced %v, want 5 flood and 3 fault on/off pairs: one per listed target", counts)
	}
}

// TestCompileTracesGroundTruth pins the stream a detector is scored against:
// floods first, then faults, each plan in order with one on/off pair per
// target, and a region flood traced under the indices it resolved to.
func TestCompileTracesGroundTruth(t *testing.T) {
	continents := topo.Continents()
	eu, err := topo.RegionByName(continents, "eu")
	if err != nil {
		t.Fatal(err)
	}
	floods := []attack.Plan{
		{Tier: attack.TierCache, TargetRegion: "eu", Start: time.Minute, End: 5 * time.Minute, Residual: 1e6},
		{Tier: attack.TierAuthority, Targets: []int{0}, End: 2 * time.Minute},
	}
	plan := &Plan{Faults: []Fault{
		{Kind: Churn, Tier: attack.TierCache, Targets: []int{3}, Start: time.Minute, End: 3 * time.Minute},
		{Kind: Crash, Targets: []int{1}, Start: 2 * time.Minute, End: 4 * time.Minute},
	}}
	rec := obs.NewRecorder(64)
	if _, err := Compile(continents, [2]int{9, 12}, floods, plan, rec); err != nil {
		t.Fatal(err)
	}
	var want []obs.Event
	for _, x := range topo.RegionTargets(continents, eu, 12) {
		want = append(want,
			obs.Event{Type: obs.EvAttackOn, At: time.Minute, Node: x, F: 1e6, Label: "cache"},
			obs.Event{Type: obs.EvAttackOff, At: 5 * time.Minute, Node: x, F: 1e6, Label: "cache"})
	}
	want = append(want,
		obs.Event{Type: obs.EvAttackOn, At: 0, Node: 0, Label: "authority"},
		obs.Event{Type: obs.EvAttackOff, At: 2 * time.Minute, Node: 0, Label: "authority"},
		obs.Event{Type: obs.EvFaultOn, At: time.Minute, Node: 3, A: 0, B: int64(attack.TierCache), Label: "churn"},
		obs.Event{Type: obs.EvFaultOff, At: 3 * time.Minute, Node: 3, A: 0, B: int64(attack.TierCache), Label: "churn"},
		obs.Event{Type: obs.EvFaultOn, At: 2 * time.Minute, Node: 1, A: 1, B: int64(attack.TierAuthority), Label: "crash"},
		obs.Event{Type: obs.EvFaultOff, At: 4 * time.Minute, Node: 1, A: 1, B: int64(attack.TierAuthority), Label: "crash"})
	if got := rec.Events(); !reflect.DeepEqual(got, want) {
		t.Errorf("traced\n%+v\nwant\n%+v", got, want)
	}
}

// TestCompileLeavesPlansUntouched: resolving a region flood and filing the
// faults happens on the schedule, never in the caller's plans, so one spec
// can be shared by concurrently running sweeps.
func TestCompileLeavesPlansUntouched(t *testing.T) {
	floods := []attack.Plan{
		{Tier: attack.TierCache, TargetRegion: "eu", End: 5 * time.Minute},
		{Tier: attack.TierAuthority, Targets: []int{0, 2}, End: 5 * time.Minute},
	}
	plan := &Plan{Faults: []Fault{{Kind: Crash, Tier: attack.TierCache, Targets: []int{1, 2}, End: time.Minute}}}
	floodsBefore := []attack.Plan{floods[0], floods[1]}
	floodsBefore[1].Targets = slices.Clone(floods[1].Targets)
	planBefore := &Plan{Faults: []Fault{plan.Faults[0]}}
	planBefore.Faults[0].Targets = slices.Clone(plan.Faults[0].Targets)
	if _, err := Compile(topo.Continents(), [2]int{9, 20}, floods, plan, nil); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(floods, floodsBefore) || !reflect.DeepEqual(plan, planBefore) {
		t.Fatalf("Compile mutated its input: floods %+v, plan %+v", floods, plan)
	}
	// A nil plan is a run without faults.
	sched, err := Compile(nil, [2]int{9, 20}, nil, nil, nil)
	if err != nil || len(sched.ChurnBoundaries()) != 0 || len(sched.Windows(attack.TierCache, 1)) != 0 {
		t.Fatalf("nil plan compiled to %+v, %v", sched, err)
	}
}
