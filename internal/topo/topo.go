// Package topo is the planet-scale topology layer: it models WHERE the
// directory system's nodes sit and what the network between those places
// looks like — coarse geographic regions, a region-pair latency matrix and
// per-region access-bandwidth tiers.
//
// # Role in the pipeline
//
// The simulation kernel (internal/simnet) historically modelled a flat
// network: one seeded latency function over node pairs and one uniform
// uplink/downlink profile per node. Real directory traffic crosses
// continents — inter-region latency structure dominates what clients
// experience — so the runners (internal/harness for the consensus phase,
// internal/dircache for the distribution tier) now place their nodes in a
// Topology's regions: simnet derives pair latencies from the region pair
// plus deterministic per-pair jitter, and the runners scale each node's
// nominal bandwidth by its region's tier. A Topology is a *Map — there is
// one implementation, so no interface stands between it and its callers.
//
// # The zero value is the flat model
//
// A nil Topology everywhere (simnet.Config.Topology, dircache.Spec.Topology,
// harness.Scenario.Topology) selects the historical flat model untouched:
// simnet's flat per-pair latency sample and the caller's nominal bandwidth
// for every node. Every pre-topology scenario is byte-identical under a nil
// Topology — the golden determinism corpus (internal/harness golden tests)
// pins that equivalence.
//
// # Determinism
//
// Everything here is a pure function of its inputs: placement depends only
// on (region shares, tier size, index), latency only on the region pair, and
// the per-pair jitter is hashed in the kernel from (seed, node pair), never
// drawn from an RNG stream. Installing a topology therefore perturbs no RNG
// draw order, and two runs of the same spec remain bit-identical.
package topo

import (
	"fmt"
	"strings"
	"time"
)

// Region is an index into a Topology's region set. Regions are small dense
// integers so per-node placement can be stored in plain slices.
type Region int

// Topology is the planet-scale structure a simulation runs on, or nil for
// the flat model. There is one implementation, so it is an alias rather than
// an interface: a nil *Map is a nil Topology, with no typed-nil trap.
//
// A Map is never written after construction, so it is safe to share across
// concurrently running simulations.
type Topology = *Map

// Map models planet-scale structure over named regions: deterministic
// placement of a tier's nodes into them by share, a symmetric region-pair
// latency matrix under two fixed jitter spans, and per-region bandwidth
// scales. The builtin maps (Continents) are Maps; tests and callers can
// assemble their own.
type Map struct {
	// Names are the region names; len(Names) is the region count.
	Names []string
	// Share is each region's fraction of any tier's nodes; it need not be
	// normalized. Nil places every node in region 0.
	Share []float64
	// Lat is the symmetric one-way base-latency matrix, indexed [a][b].
	Lat [][]time.Duration
	// Scale is each region's bandwidth multiplier; nil means 1 everywhere.
	Scale []float64
}

// NumRegions returns the number of regions.
func (m *Map) NumRegions() int { return len(m.Names) }

// RegionName returns region r's short name (e.g. "eu").
func (m *Map) RegionName(r Region) string {
	if r < 0 || int(r) >= len(m.Names) {
		return fmt.Sprintf("region%d", int(r))
	}
	return m.Names[r]
}

// RegionCounts apportions an n-node tier over the regions by largest
// remainder of the shares: element r is how many nodes region r gets. The
// tier is laid out as contiguous per-region blocks in region order
// (PlaceTier), so a tier's region populations are within one node of
// proportional and a region's nodes form an index range — which is what
// makes "flood the EU mirrors" a contiguous target set. Tiers are placed
// independently: callers pass tier-local sizes (9 authorities, 20 caches).
func (m *Map) RegionCounts(n int) []int {
	k := m.NumRegions()
	counts := make([]int, k)
	if k == 0 {
		return counts
	}
	total := 0.0
	for r := 0; r < k; r++ {
		total += m.share(r)
	}
	if total <= 0 {
		counts[0] = n
		return counts
	}
	// Floor pass, then hand the leftover to the largest fractional parts
	// (ties broken by region index, so the split is deterministic).
	used := 0
	fracs := make([]float64, k)
	for r := 0; r < k; r++ {
		exact := float64(n) * m.share(r) / total
		counts[r] = int(exact)
		fracs[r] = exact - float64(counts[r])
		used += counts[r]
	}
	for used < n {
		best := 0
		for r := 1; r < k; r++ {
			if fracs[r] > fracs[best] {
				best = r
			}
		}
		counts[best]++
		fracs[best] = -1
		used++
	}
	return counts
}

func (m *Map) share(r int) float64 {
	if m.Share == nil {
		if r == 0 {
			return 1
		}
		return 0
	}
	if s := m.Share[r]; s > 0 {
		return s
	}
	return 0
}

// BaseLatency is the one-way propagation floor between two regions (a == b
// gives the intra-region floor). Symmetric.
func (m *Map) BaseLatency(a, b Region) time.Duration {
	if int(a) >= len(m.Lat) || int(b) >= len(m.Lat[a]) || a < 0 || b < 0 {
		return 0
	}
	return m.Lat[a][b]
}

// The jitter spans: per-pair latency varies within this much of the regional
// floor.
const (
	intraJitter = 15 * time.Millisecond
	interJitter = 35 * time.Millisecond
)

// Jitter is the span of per-pair latency variation stacked on top of
// BaseLatency: a concrete node pair's one-way delay is sampled
// deterministically from [BaseLatency, BaseLatency+Jitter). Symmetric.
func (m *Map) Jitter(a, b Region) time.Duration {
	if a == b {
		return intraJitter
	}
	return interJitter
}

// Bandwidth maps a node's nominal access bandwidth (bits/s) to what the
// node actually gets in region r — regional access tiers scale the flat
// model's uniform figure.
func (m *Map) Bandwidth(r Region, nominal float64) float64 {
	if m.Scale == nil || int(r) >= len(m.Scale) || r < 0 {
		return nominal
	}
	return nominal * m.Scale[r]
}

// RegionByName resolves a region name (case-insensitive) against a
// topology's region set.
func RegionByName(t Topology, name string) (Region, error) {
	for r := 0; r < t.NumRegions(); r++ {
		if strings.EqualFold(t.RegionName(Region(r)), name) {
			return Region(r), nil
		}
	}
	return 0, fmt.Errorf("topo: unknown region %q (have %s)", name, strings.Join(RegionNames(t), ", "))
}

// RegionNames lists a topology's region names in region order.
func RegionNames(t Topology) []string {
	out := make([]string, t.NumRegions())
	for r := range out {
		out[r] = t.RegionName(Region(r))
	}
	return out
}

// PlaceTier places an n-node tier: element i is node i's region.
func PlaceTier(t Topology, n int) []Region {
	out := make([]Region, n)
	i := 0
	for r, c := range t.RegionCounts(n) {
		for ; c > 0; c-- {
			out[i] = Region(r)
			i++
		}
	}
	return out
}

// RegionTargets returns the indices of an n-node tier that the topology
// places in region r — the target set of a region-scoped flood.
func RegionTargets(t Topology, r Region, n int) []int {
	counts := t.RegionCounts(n)
	if r < 0 || int(r) >= len(counts) {
		return nil
	}
	first := 0
	for _, c := range counts[:r] {
		first += c
	}
	var out []int
	for i := first; i < first+counts[r]; i++ {
		out = append(out, i)
	}
	return out
}

// ByName resolves a topology by name: "" and "flat" select the flat model
// (a nil Topology), "continents" the builtin continent map. This is the
// single parser behind every -topology command-line flag.
func ByName(name string) (Topology, error) {
	switch strings.ToLower(name) {
	case "", "flat":
		return nil, nil
	case "continents":
		return Continents(), nil
	}
	return nil, fmt.Errorf("topo: unknown topology %q (want flat or continents)", name)
}
