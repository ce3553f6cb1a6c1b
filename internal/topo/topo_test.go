package topo

import (
	"testing"
)

func TestContinentsMatrixSymmetricPositive(t *testing.T) {
	c := Continents()
	k := c.NumRegions()
	if k != 6 {
		t.Fatalf("continents has %d regions", k)
	}
	for a := 0; a < k; a++ {
		for b := 0; b < k; b++ {
			ra, rb := Region(a), Region(b)
			if got, want := c.BaseLatency(ra, rb), c.BaseLatency(rb, ra); got != want {
				t.Errorf("latency asymmetric: %s->%s %v vs %v", c.RegionName(ra), c.RegionName(rb), got, want)
			}
			if c.BaseLatency(ra, rb) <= 0 {
				t.Errorf("non-positive latency %s->%s", c.RegionName(ra), c.RegionName(rb))
			}
			if c.Jitter(ra, rb) <= 0 {
				t.Errorf("non-positive jitter %s->%s", c.RegionName(ra), c.RegionName(rb))
			}
		}
		// Intra-region must not beat leaving the region.
		for b := 0; b < k; b++ {
			if a != b && c.BaseLatency(Region(a), Region(b)) < c.BaseLatency(Region(a), Region(a)) {
				t.Errorf("inter-region %d->%d below the intra floor", a, b)
			}
		}
	}
}

func TestPlaceApportionsShares(t *testing.T) {
	c := Continents()
	for _, n := range []int{1, 6, 20, 97, 1000} {
		counts := make([]int, c.NumRegions())
		for i, r := range PlaceTier(c, n) {
			if r < 0 || int(r) >= c.NumRegions() {
				t.Fatalf("PlaceTier(%d)[%d] = %d out of range", n, i, r)
			}
			counts[r]++
		}
		total := 0
		for _, cnt := range counts {
			total += cnt
		}
		if total != n {
			t.Fatalf("n=%d: placed %d nodes", n, total)
		}
		// Largest-remainder apportionment keeps each region within one node
		// of its exact share.
		shareSum := 0.0
		for _, s := range c.Share {
			shareSum += s
		}
		for r, cnt := range counts {
			exact := float64(n) * c.Share[r] / shareSum
			if d := float64(cnt) - exact; d > 1 || d < -1 {
				t.Errorf("n=%d region %s: %d nodes for exact share %.2f", n, c.Names[r], cnt, exact)
			}
		}
	}
}

func TestPlaceIsContiguous(t *testing.T) {
	c := Continents()
	prev := Region(0)
	for i, r := range PlaceTier(c, 40) {
		if r < prev {
			t.Fatalf("placement not contiguous: node %d in region %d after region %d", i, r, prev)
		}
		prev = r
	}
}

func TestRegionTargetsMatchPlacement(t *testing.T) {
	c := Continents()
	n := 20
	eu, err := RegionByName(c, "EU")
	if err != nil {
		t.Fatal(err)
	}
	targets := RegionTargets(c, eu, n)
	if len(targets) == 0 {
		t.Fatal("no EU targets in a 20-node tier")
	}
	placed := PlaceTier(c, n)
	for _, i := range targets {
		if placed[i] != eu {
			t.Errorf("target %d not placed in eu", i)
		}
	}
	// Contiguous placement means the targets are a contiguous range.
	for k := 1; k < len(targets); k++ {
		if targets[k] != targets[k-1]+1 {
			t.Errorf("EU targets not contiguous: %v", targets)
		}
	}
}

func TestRegionByNameUnknown(t *testing.T) {
	if _, err := RegionByName(Continents(), "atlantis"); err == nil {
		t.Fatal("unknown region name accepted")
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"", "flat", "Flat"} {
		tp, err := ByName(name)
		if err != nil || tp != nil {
			t.Fatalf("ByName(%q) = %v, %v; want nil, nil", name, tp, err)
		}
	}
	tp, err := ByName("continents")
	if err != nil || tp == nil {
		t.Fatalf("ByName(continents) = %v, %v", tp, err)
	}
	if _, err := ByName("mars"); err == nil {
		t.Fatal("unknown topology name accepted")
	}
}

func TestMapZeroValueDefaults(t *testing.T) {
	m := &Map{Names: []string{"solo"}}
	if PlaceTier(m, 10)[3] != 0 {
		t.Error("nil shares should place everything in region 0")
	}
	if got := m.Bandwidth(0, 5e6); got != 5e6 {
		t.Errorf("nil scale changed bandwidth: %g", got)
	}
	if m.Jitter(0, 0) != intraJitter {
		t.Errorf("intra jitter %v", m.Jitter(0, 0))
	}
}

func TestContinentsBandwidthTiers(t *testing.T) {
	c := Continents()
	if got := c.Bandwidth(NA, 200e6); got != 200e6 {
		t.Errorf("NA tier scaled the nominal figure: %g", got)
	}
	if got := c.Bandwidth(AF, 200e6); got >= 200e6 {
		t.Errorf("AF tier did not thin bandwidth: %g", got)
	}
}

func TestPlaceTierDeterministic(t *testing.T) {
	c := Continents()
	a := PlaceTier(c, 33)
	b := PlaceTier(c, 33)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("placement nondeterministic at %d", i)
		}
	}
	if len(a) != 33 {
		t.Fatalf("placed %d of 33", len(a))
	}
}
