package attack

import (
	"testing"
	"time"

	"partialtor/internal/topo"
)

func TestResolveRegionFillsTargetsFromPlacement(t *testing.T) {
	c := topo.Continents()
	p := Plan{Tier: TierCache, TargetRegion: "eu", End: 5 * time.Minute}
	if err := p.ResolveRegion(c, 20); err != nil {
		t.Fatal(err)
	}
	if len(p.Targets) == 0 {
		t.Fatal("resolution produced no targets")
	}
	eu, _ := topo.RegionByName(c, "eu")
	want := topo.RegionTargets(c, eu, 20)
	if len(p.Targets) != len(want) {
		t.Fatalf("targets %v, want %v", p.Targets, want)
	}
	for i := range want {
		if p.Targets[i] != want[i] {
			t.Fatalf("targets %v, want %v", p.Targets, want)
		}
	}
	// A resolved plan prices like any explicit-target plan.
	m := DefaultCostModel()
	if got := m.PlanCost(p); got <= 0 {
		t.Fatalf("resolved region flood priced at $%.2f", got)
	}
	if got, per := m.PlanCost(p), m.PlanCost(Plan{Tier: TierCache, Targets: []int{0}, End: 5 * time.Minute}); got != per*float64(len(p.Targets)) {
		t.Fatalf("region flood cost %.4f, want %d x %.4f", got, len(p.Targets), per)
	}
}
