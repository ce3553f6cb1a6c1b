package attack_test

import (
	"slices"
	"testing"
	"time"

	"partialtor/internal/attack"
	"partialtor/internal/faults"
	"partialtor/internal/topo"
)

// perturbation is what the target-scope rules are reached through on either
// type that can name a region: a flood plan and a fault.
type perturbation interface {
	Validate() error
	resolve(t topo.Topology, tierSize int) error
	scope() (targets []int, region string)
	isTarget(i int) bool
}

type floodPlan struct{ attack.Plan }

func (p *floodPlan) resolve(t topo.Topology, n int) error { return p.ResolveRegion(t, n) }
func (p *floodPlan) scope() ([]int, string)               { return p.Targets, p.TargetRegion }
func (p *floodPlan) isTarget(i int) bool                  { return p.IsTarget(i) }

type faultPlan struct{ faults.Plan }

func (p *faultPlan) resolve(t topo.Topology, n int) error { return p.Resolve(t, 9, n) }
func (p *faultPlan) scope() ([]int, string)               { return p.Faults[0].Targets, p.Faults[0].TargetRegion }
func (p *faultPlan) isTarget(i int) bool                  { return p.Faults[0].IsTarget(i) }

// TestTargetScope runs the shared scope rules through both types: what one
// rejects or resolves, the other must too.
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
	kinds := map[string]func(targets []int, region string) perturbation{
		"plan": func(targets []int, region string) perturbation {
			return &floodPlan{attack.Plan{Tier: attack.TierCache, Targets: targets, TargetRegion: region, End: time.Minute}}
		},
		"fault": func(targets []int, region string) perturbation {
			return &faultPlan{faults.Plan{Faults: []faults.Fault{{
				Kind: faults.Crash, Tier: attack.TierCache, Targets: targets, TargetRegion: region, End: time.Minute,
			}}}}
		},
	}
	for kind, build := range kinds {
		for _, tc := range cases {
			t.Run(kind+"/"+tc.name, func(t *testing.T) {
				p := build(slices.Clone(tc.targets), tc.region)
				if err := p.Validate(); (err != nil) != tc.invalid {
					t.Fatalf("Validate error %v, want refusal %v", err, tc.invalid)
				}
				if tc.invalid && !tc.stranded {
					return
				}
				err := p.resolve(tc.topo, tc.tierSize)
				if (err != nil) != tc.stranded {
					t.Fatalf("resolve error %v, want refusal %v", err, tc.stranded)
				}
				if tc.stranded {
					return
				}
				// Resolving again — a caller that priced the plan first, then
				// the runner — changes nothing, even without the topology.
				if err := p.resolve(nil, tc.tierSize); err != nil {
					t.Fatalf("second resolve: %v", err)
				}
				targets, region := p.scope()
				if !slices.Equal(targets, tc.want) || region != "" {
					t.Fatalf("resolved to targets %v region %q, want %v and no region", targets, region, tc.want)
				}
				for i := 0; i < tc.tierSize; i++ {
					if p.isTarget(i) != slices.Contains(tc.want, i) {
						t.Fatalf("IsTarget(%d) = %v with targets %v", i, p.isTarget(i), tc.want)
					}
				}
			})
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
