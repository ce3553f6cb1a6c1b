package attack

import (
	"math"
	"slices"
	"testing"
	"time"
)

func TestCostModelReproducesPaperNumbers(t *testing.T) {
	m := DefaultCostModel()
	if m.FloodMbit() != 240 {
		t.Fatalf("flood traffic %.0f Mbit/s, want 240", m.FloodMbit())
	}
	inst := m.CostPerInstance(5, 5*time.Minute)
	if math.Abs(inst-0.074) > 0.0005 {
		t.Fatalf("cost per instance $%.4f, paper says $0.074", inst)
	}
	month := m.CostPerMonth(5, 5*time.Minute)
	if math.Abs(month-53.28) > 0.01 {
		t.Fatalf("cost per month $%.2f, paper says $53.28", month)
	}
}

func TestCostScalesLinearly(t *testing.T) {
	m := DefaultCostModel()
	one := m.CostPerInstance(1, 5*time.Minute)
	five := m.CostPerInstance(5, 5*time.Minute)
	if math.Abs(five-5*one) > 1e-9 {
		t.Fatal("cost not linear in targets")
	}
	long := m.CostPerInstance(5, 10*time.Minute)
	if math.Abs(long-2*five) > 1e-9 {
		t.Fatal("cost not linear in duration")
	}
}

func TestMajorityTargets(t *testing.T) {
	got := MajorityTargets(9)
	if len(got) != 5 {
		t.Fatalf("targets=%v, want 5 of 9", got)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("targets=%v, want 0..4", got)
		}
	}
	if len(MajorityTargets(4)) != 3 {
		t.Fatal("majority of 4 should be 3")
	}
}

func TestPlanValidate(t *testing.T) {
	good := Plan{Targets: []int{0, 1}, Start: time.Minute, End: 2 * time.Minute, Residual: 5e3}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	// Unlike a fault, a flood may have an empty window: it floods nobody.
	if err := (&Plan{Targets: []int{0}, Start: time.Minute, End: time.Minute}).Validate(); err != nil {
		t.Fatalf("empty-window plan rejected: %v", err)
	}
	cases := []Plan{
		{Start: 2 * time.Minute, End: time.Minute}, // inverted window
		{Start: -time.Second, End: time.Minute},    // negative start
		{End: time.Minute, Residual: -1},           // negative residual
		{End: time.Minute, Residual: math.NaN()},   // NaN residual
		{End: time.Minute, Targets: []int{0, -3}},  // negative target
		{End: time.Minute, Tier: Tier(7)},          // unknown tier
	}
	for i, p := range cases {
		if err := p.Validate(); err == nil {
			t.Fatalf("case %d: malformed plan %+v accepted", i, p)
		}
	}
}

func TestTierDefaultsToAuthority(t *testing.T) {
	var p Plan
	if p.Tier != TierAuthority {
		t.Fatal("zero-value plan is not an authority plan")
	}
	if TierAuthority.String() != "authority" || TierCache.String() != "cache" {
		t.Fatal("tier labels wrong")
	}
}

func TestFiveMinuteOutage(t *testing.T) {
	p := FiveMinuteOutage(MajorityTargets(9))
	if p.Start != 0 || p.Duration() != 5*time.Minute || p.Residual != 0 || p.Tier != TierAuthority {
		t.Fatalf("outage plan %+v", p)
	}
	if !slices.Equal(p.Targets, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("outage targets %v, want the majority 0..4", p.Targets)
	}
}

func TestMajorityTargetsOfEmptyTier(t *testing.T) {
	// n <= 0 has no majority: the old [0] result was a phantom target that
	// poisoned plans built from an empty authority set.
	for _, n := range []int{0, -1, -9} {
		if got := MajorityTargets(n); len(got) != 0 {
			t.Fatalf("MajorityTargets(%d) = %v, want empty", n, got)
		}
	}
	if got := MajorityTargets(1); len(got) != 1 || got[0] != 0 {
		t.Fatalf("MajorityTargets(1) = %v, want [0]", got)
	}
}

func TestTierAwareLinkCapacity(t *testing.T) {
	m := DefaultCostModel()
	if m.LinkMbit(TierAuthority) != 250 {
		t.Fatalf("authority link %.0f, want 250", m.LinkMbit(TierAuthority))
	}
	if m.LinkMbit(TierCache) != 200 {
		t.Fatalf("cache link %.0f, want 200 (dircache's cache bandwidth)", m.LinkMbit(TierCache))
	}
}

func TestPlanCostPricesCacheTier(t *testing.T) {
	m := DefaultCostModel()
	// Knocking 1000 mirrors offline for one hour: 1000 × 200 Mbit/s ×
	// $0.00074 = $148 per instance.
	flood := Plan{
		Tier:    TierCache,
		Targets: MajorityTargets(1999), // 1000 of 1999 mirrors
		End:     time.Hour,
	}
	got := m.PlanCost(flood)
	if math.Abs(got-148) > 1e-9 {
		t.Fatalf("cache flood cost $%.3f, want $148", got)
	}
	if month := m.PerMonth(got); math.Abs(month-148*720) > 1e-6 {
		t.Fatalf("monthly cache flood $%.2f, want $%.2f", month, 148*720.0)
	}
	// A residual-bandwidth stressor buys less traffic: leaving each mirror
	// 100 Mbit/s halves the per-target flood.
	flood.Residual = 100e6
	if got := m.PlanCost(flood); math.Abs(got-74) > 1e-9 {
		t.Fatalf("residual flood cost $%.3f, want $74", got)
	}
	// A residual above the link costs nothing: there is nothing to flood.
	flood.Residual = 300e6
	if got := m.PlanCost(flood); got != 0 {
		t.Fatalf("super-link residual cost $%.3f, want $0", got)
	}
}

func TestMeshPartitionCost(t *testing.T) {
	m := DefaultCostModel()
	window := time.Hour
	// Cutting one mirror out of a degree-4 mesh means flooding it and its
	// four neighbours: 5 targets × 200 Mbit/s × 1 h × $0.00074 = $0.74.
	if got := m.MeshPartitionCost(4, window, 0); math.Abs(got-0.74) > 1e-9 {
		t.Fatalf("degree-4 partition cost $%.4f, want $0.74", got)
	}
	// The price grows linearly with the mesh degree — the knob the defender
	// turns — and a negative degree clamps to the single-node flood.
	prev := 0.0
	for degree := 0; degree <= 8; degree++ {
		c := m.MeshPartitionCost(degree, window, 0)
		if c <= prev {
			t.Fatalf("degree %d partition cost $%.4f not above degree %d's $%.4f", degree, c, degree-1, prev)
		}
		prev = c
	}
	if got, want := m.MeshPartitionCost(-3, window, 0), m.MeshPartitionCost(0, window, 0); got != want {
		t.Fatalf("negative degree priced $%.4f, want the single-node flood $%.4f", got, want)
	}
	// Residual bandwidth discounts it exactly like any cache flood.
	half := m.MeshPartitionCost(4, window, 100e6)
	if math.Abs(half-0.37) > 1e-9 {
		t.Fatalf("residual partition cost $%.4f, want $0.37", half)
	}
}

func TestCacheTierFloodCostsMoreThanAuthorities(t *testing.T) {
	// The over-provisioning defense economics: the paper's five-minute
	// authority attack costs cents, but the same stressor pricing against a
	// wide mirror tier for a whole fetch window costs orders of magnitude
	// more — the reason distribution survives on cache count.
	m := DefaultCostModel()
	authorities := FiveMinuteOutage(MajorityTargets(9))
	mirrors := Plan{
		Tier:    TierCache,
		Targets: MajorityTargets(4000),
		End:     time.Hour,
	}
	authCost := m.PlanCost(authorities)
	mirrorCost := m.PlanCost(mirrors)
	if authCost <= 0 || mirrorCost <= 0 {
		t.Fatalf("degenerate costs: auth $%.4f mirrors $%.4f", authCost, mirrorCost)
	}
	if mirrorCost < 1000*authCost {
		t.Fatalf("mirror flood $%.2f not ≫ authority flood $%.4f", mirrorCost, authCost)
	}
}

func TestFirstTargets(t *testing.T) {
	if got := FirstTargets(3); len(got) != 3 || got[0] != 0 || got[2] != 2 {
		t.Fatalf("FirstTargets(3) = %v", got)
	}
	for _, n := range []int{0, -2} {
		if got := FirstTargets(n); len(got) != 0 {
			t.Fatalf("FirstTargets(%d) = %v, want empty", n, got)
		}
	}
}

// TestCostPathsAgree pins that the paper's per-instance accounting and the
// plan-level pricing are one formula: CostPerInstance(n, d) must equal the
// PlanCost of flooding n authorities down to the protocol requirement —
// including under hostile parameters, where both clamp at $0 instead of
// going negative.
func TestCostPathsAgree(t *testing.T) {
	models := []CostModel{
		DefaultCostModel(),
		{PricePerMbitHour: 0.001, AuthorityLinkMbit: 250, RequiredMbit: 300, CacheLinkMbit: 200},
	}
	for _, m := range models {
		plan := Plan{
			Tier:     TierAuthority,
			Targets:  FirstTargets(5),
			End:      5 * time.Minute,
			Residual: m.RequiredMbit * 1e6,
		}
		inst := m.CostPerInstance(5, 5*time.Minute)
		if pc := m.PlanCost(plan); math.Abs(inst-pc) > 1e-12 {
			t.Fatalf("pricing paths diverge: CostPerInstance %.6f, PlanCost %.6f", inst, pc)
		}
		if inst < 0 || m.FloodMbit() < 0 {
			t.Fatalf("negative pricing: instance %.6f, flood %.2f", inst, m.FloodMbit())
		}
	}
}

func TestCompromisePlanValidate(t *testing.T) {
	good := CompromisePlan{Targets: []int{0, 3}, Mode: CompromiseEquivocate}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	bad := []CompromisePlan{
		{Mode: CompromiseMode(7)},
		{Mode: CompromiseStale, Targets: []int{-2}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Fatalf("case %d: invalid plan %+v accepted", i, p)
		}
	}
}

func TestCompromisePricing(t *testing.T) {
	m := DefaultCostModel()
	p := CompromisePlan{Targets: []int{0, 1, 2}, Mode: CompromiseEquivocate}
	if got := m.CompromiseCostPerMonth(p); got != 3*m.CachePerMonth {
		t.Fatalf("compromise cost %.2f, want %.2f", got, 3*m.CachePerMonth)
	}
	// Sanity of the defense economics: subverting a quarter of a 2000-mirror
	// tier must cost far more than the paper's $53.28/month authority flood.
	wide := CompromisePlan{Targets: FirstTargets(500), Mode: CompromiseStale}
	if got := m.CompromiseCostPerMonth(wide); got <= m.CostPerMonth(5, 5*time.Minute) {
		t.Fatalf("500-cache compromise ($%.2f/mo) priced below the authority flood", got)
	}
}

func TestCompromiseModeString(t *testing.T) {
	if CompromiseStale.String() != "stale" || CompromiseEquivocate.String() != "equivocate" {
		t.Fatalf("mode names %v/%v", CompromiseStale, CompromiseEquivocate)
	}
	if s := CompromiseMode(9).String(); s != "CompromiseMode(9)" {
		t.Fatalf("unknown mode renders %q", s)
	}
}
