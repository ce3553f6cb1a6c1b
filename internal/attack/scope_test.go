package attack_test

import (
	"slices"
	"testing"
	"time"

	"partialtor/internal/attack"
	"partialtor/internal/faults"
	"partialtor/internal/simnet"
	"partialtor/internal/topo"
)

// TestTargetScope runs the shared scope rules through the schedule for both
// perturbation types: what one rejects or resolves, the other must too. A
// flood may name a region; a fault names its targets by index only.
func TestTargetScope(t *testing.T) {
	continents := topo.Continents()
	eu, err := topo.RegionByName(continents, "eu")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name     string
		targets  []int
		region   string
		topo     topo.Topology
		tierSize int
		invalid  bool  // Validate must refuse
		stranded bool  // resolution must refuse
		want     []int // resolved targets otherwise
	}{
		{name: "index scope on the flat model", targets: []int{1, 2}, tierSize: 20, want: []int{1, 2}},
		{name: "region scope", region: "eu", topo: continents, tierSize: 20, want: topo.RegionTargets(continents, eu, 20)},
		{name: "both set", targets: []int{0}, region: "eu", topo: continents, tierSize: 20, invalid: true, stranded: true},
		{name: "negative index", targets: []int{0, -3}, tierSize: 20, invalid: true},
		{name: "region on the flat model", region: "eu", tierSize: 20, stranded: true},
		{name: "unknown region", region: "atlantis", topo: continents, tierSize: 20, stranded: true},
		// Continents places a 1-node tier entirely in the largest region.
		{name: "empty region", region: "oc", topo: continents, tierSize: 1, stranded: true},
	}
	for _, kind := range []string{"plan", "fault"} {
		for _, tc := range cases {
			if kind == "fault" && tc.region != "" {
				continue
			}
			t.Run(kind+"/"+tc.name, func(t *testing.T) {
				var floods []attack.Plan
				var plan *faults.Plan
				var validate func() error
				if kind == "plan" {
					floods = []attack.Plan{{Tier: attack.TierCache, Targets: slices.Clone(tc.targets), TargetRegion: tc.region, End: time.Minute}}
					validate = floods[0].Validate
				} else {
					plan = &faults.Plan{Faults: []faults.Fault{{Kind: faults.Crash, Tier: attack.TierCache, Targets: slices.Clone(tc.targets), End: time.Minute}}}
					validate = plan.Validate
				}
				if err := validate(); (err != nil) != tc.invalid {
					t.Fatalf("Validate error %v, want refusal %v", err, tc.invalid)
				}
				if tc.invalid && !tc.stranded {
					return
				}
				sched, err := faults.Compile(tc.topo, [2]int{9, tc.tierSize}, floods, plan, nil)
				if (err != nil) != tc.stranded {
					t.Fatalf("Compile error %v, want refusal %v", err, tc.stranded)
				}
				if tc.stranded {
					return
				}
				for i := 0; i < tc.tierSize; i++ {
					if hit := len(sched.Windows(attack.TierCache, i)) > 0; hit != slices.Contains(tc.want, i) {
						t.Fatalf("node %d has a window: %v, with targets %v", i, hit, tc.want)
					}
				}
				if kind == "fault" {
					return
				}
				// Resolving the plan itself — a caller that prices it first,
				// then the runner — twice changes nothing, even without the
				// topology the second time.
				p := floods[0]
				if p.TargetRegion != tc.region {
					t.Fatalf("Compile cleared the caller's region %q", tc.region)
				}
				for _, tp := range []topo.Topology{tc.topo, nil} {
					if err := p.ResolveRegion(tp, tc.tierSize); err != nil {
						t.Fatalf("resolve: %v", err)
					}
				}
				if !slices.Equal(p.Targets, tc.want) || p.TargetRegion != "" {
					t.Fatalf("resolved to targets %v region %q, want %v and no region", p.Targets, p.TargetRegion, tc.want)
				}
			})
		}
	}
}

// TestPlanThrottle: a flood caps its targets' pipes, both directions, to its
// residual inside its window, and nothing else.
func TestPlanThrottle(t *testing.T) {
	p := attack.Plan{Targets: []int{1, 3}, Start: time.Minute, End: 6 * time.Minute, Residual: attack.ResidualUnderDDoS}
	sched, err := faults.Compile(nil, [2]int{4}, []attack.Plan{p}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		up, down := simnet.NewProfile(250e6), simnet.NewProfile(250e6)
		sched.Throttle(attack.TierAuthority, i, up, down)
		for _, at := range []time.Duration{30 * time.Second, time.Minute, 2 * time.Minute, 6 * time.Minute, 7 * time.Minute} {
			want := 250e6
			if (i == 1 || i == 3) && at >= p.Start && at < p.End {
				want = attack.ResidualUnderDDoS
			}
			if up.RateAt(at) != want || down.RateAt(at) != want {
				t.Errorf("node %d at %v: up %g down %g, want %g", i, at, up.RateAt(at), down.RateAt(at), want)
			}
		}
	}
}

// TestCheckScope pins the two run-relative rules every runner checks through
// one function: an index beyond the tier, and a region without a topology.
func TestCheckScope(t *testing.T) {
	continents := topo.Continents()
	cases := []struct {
		name    string
		targets []int
		region  string
		topo    topo.Topology
		ok      bool
	}{
		{"inside the tier", []int{0, 8}, "", nil, true},
		{"beyond the tier", []int{9}, "", nil, false},
		{"region with a topology", nil, "eu", continents, true},
		{"region on the flat model", nil, "eu", nil, false},
		{"negative index", []int{-1}, "", nil, false},
	}
	for _, tc := range cases {
		if err := attack.CheckScope(attack.TierAuthority, tc.targets, tc.region, 9, tc.topo); (err == nil) != tc.ok {
			t.Errorf("%s: error %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}
