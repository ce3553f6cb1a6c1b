package dircache

import (
	"fmt"
	"sort"

	"partialtor/internal/attack"
	"partialtor/internal/faults"
	"partialtor/internal/obs"
	"partialtor/internal/simnet"
	"partialtor/internal/topo"
)

// Run simulates one distribution phase: authority stubs publish at
// Spec.PublishAt, caches fetch with fallback, fleets drain the client
// population through the caches. It is deterministic for a fixed Spec.
func Run(spec Spec) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	spec = spec.withDefaults()

	net := simnet.New(simnet.Config{Seed: spec.Seed, Overhead: 64, Topology: spec.Topology})
	tracer := obs.WithLayer(spec.Tracer, "dist")
	net.SetObs(tracer)

	// Regional placement (all nil/0 under the flat model): infrastructure
	// tiers land in contiguous per-region blocks sized by the region
	// shares; fleets cycle through the regions and carry their region's
	// share of the client population.
	tp := spec.Topology
	var authRegions, cacheRegions, fleetRegions []topo.Region
	if tp != nil {
		authRegions = topo.PlaceTier(tp, spec.Authorities)
		cacheRegions = topo.PlaceTier(tp, spec.Caches)
		fleetRegions = make([]topo.Region, spec.Fleets)
		for i := range fleetRegions {
			fleetRegions[i] = topo.Region(i % tp.NumRegions())
		}
	}

	// One schedule holds every flood and fault window of the run, resolved
	// against this placement, so "flood the EU mirrors" turns into the EU
	// block's indices here and nowhere else. The caller's plans are only read:
	// a spec shared across concurrently running sweeps is never mutated.
	sched, err := faults.Compile(tp, [2]int{spec.Authorities, spec.Caches}, spec.Attacks, spec.Faults, tracer)
	if err != nil {
		return nil, fmt.Errorf("dircache: %w", err)
	}

	// Node layout: [0, A) authorities, [A, A+C) caches, [A+C, A+C+F) fleets.
	authIDs := make([]simnet.NodeID, spec.Authorities)
	for i := range authIDs {
		stub := &authorityStub{spec: &spec, publishAt: spec.PublishAt}
		region, bw := nodePlacement(tp, authRegions, i, authorityBandwidth)
		up := simnet.NewProfile(bw)
		down := simnet.NewProfile(bw)
		// An authority stub is stateless, so its crash is fully captured by
		// the zero-rate window: nothing reaches it and nothing leaves until
		// the restart.
		sched.Throttle(attack.TierAuthority, i, up, down)
		authIDs[i] = net.AddNodeIn(stub, up, down, region)
	}

	// A message parked on a link dead to the end comes back to the pool.
	pool := &msgPool{}
	net.SetHandBack(pool.reclaim)
	roles := cacheRoles(spec.Compromise, spec.Caches)
	caches := make([]*cacheNode, spec.Caches)
	cacheIDs := make([]simnet.NodeID, spec.Caches)
	// The mesh and per-cache engines exist only when the spec asks for
	// gossip: a nil Spec.Gossip run touches no gossip code path, draws no
	// extra randomness, and stays byte-identical to pre-mesh runs.
	var mesh [][]int
	if spec.Gossip != nil {
		mesh = buildGossipMesh(&spec, tp, cacheRegions)
	}
	for i := range caches {
		c := &cacheNode{
			spec:      &spec,
			pool:      pool,
			role:      roles[i],
			chainCtx:  spec.Chain,
			authOrder: authorityOrder(tp, authIDs, authRegions, cacheRegions, i),
			sched:     sched,
			windows:   sched.Windows(attack.TierCache, i),
		}
		if mesh != nil {
			// cacheIDs is still filling here; handlers only read it from
			// Start onward, when the whole tier exists.
			c.gossip = newGossipState(&spec, mesh, cacheIDs, i, roles[i])
		}
		region, bw := nodePlacement(tp, cacheRegions, i, cacheBandwidth)
		up := simnet.NewProfile(bw)
		down := simnet.NewProfile(bw)
		sched.Throttle(attack.TierCache, i, up, down)
		caches[i] = c
		cacheIDs[i] = net.AddNodeIn(c, up, down, region)
	}

	weights := uniformWeights(spec.Caches)
	fleets := make([]*fleetNode, spec.Fleets)
	fleetIDs := make([]simnet.NodeID, spec.Fleets)
	fleetClients := splitClients(tp, fleetRegions, spec.Fleets, spec.Clients)
	coverage := &runCoverage{}
	if tp != nil {
		coverage.regions = make([]coverageCurve, tp.NumRegions())
	}
	ticks := spec.numTicks()
	for i := range fleets {
		f := &fleetNode{spec: &spec, pool: pool, clients: fleetClients[i], caches: cacheIDs,
			weights: weights, chainCtx: spec.Chain, coverage: coverage}
		coverage.total.covers(spec.Caches, ticks, f.clients)
		region, bw := nodePlacement(tp, fleetRegions, i, fleetBandwidth)
		if tp != nil {
			f.region = region
			f.weights = biasWeights(tp, region, cacheRegions, weights)
			coverage.regions[region].covers(spec.Caches, ticks, f.clients)
		}
		up := simnet.NewProfile(bw)
		down := simnet.NewProfile(bw)
		fleets[i] = f
		fleetIDs[i] = net.AddNodeIn(f, up, down, region)
	}

	// Equivocating caches fork to a prefix of the fleets: deterministic, so
	// a sweep's fork exposure scales exactly with the fleet count.
	if spec.Compromise != nil && spec.Compromise.Mode == attack.CompromiseEquivocate {
		nFork := forkFleetCount(spec.Fleets)
		targets := make(map[simnet.NodeID]bool, nFork)
		for i := 0; i < nFork; i++ {
			targets[fleetIDs[i]] = true
		}
		for _, c := range caches {
			if c.role == roleEquivocating {
				c.forkFleets = targets
			}
		}
	}

	net.Run(spec.RunLimit())
	return collect(spec, net, authIDs, cacheIDs, fleetIDs, caches, fleets, coverage), nil
}

// nodePlacement resolves one node's region and tier-scaled bandwidth; the
// flat model (nil topology) keeps region 0 and the nominal figure.
func nodePlacement(tp topo.Topology, regions []topo.Region, i int, nominal float64) (topo.Region, float64) {
	if tp == nil {
		return 0, nominal
	}
	r := regions[i]
	return r, tp.Bandwidth(r, nominal)
}

// splitClients sizes the fleets: uniformly under the flat model (the
// historical base/extra split), by region share under a topology — a fleet
// aggregates its region's slice of the population, split evenly among the
// region's fleets, apportioned by largest remainder so exactly Clients
// clients exist.
func splitClients(tp topo.Topology, fleetRegions []topo.Region, fleets, clients int) []int {
	out := make([]int, fleets)
	if tp == nil {
		base, extra := clients/fleets, clients%fleets
		for i := range out {
			out[i] = base
			if i < extra {
				out[i]++
			}
		}
		return out
	}
	perRegion := make(map[topo.Region]int)
	for _, r := range fleetRegions {
		perRegion[r]++
	}
	// A region's share of the population is its share of a large placed
	// tier, which is proportional by construction.
	regionShare := tp.RegionCounts(1 << 16)
	w := make([]float64, fleets)
	total := 0.0
	for i, r := range fleetRegions {
		w[i] = float64(regionShare[r]) / float64(perRegion[r])
		total += w[i]
	}
	if total <= 0 {
		for i := range w {
			w[i], total = 1, float64(fleets)
		}
		total = float64(fleets)
	}
	used := 0
	fracs := make([]float64, fleets)
	for i := range out {
		exact := float64(clients) * w[i] / total
		out[i] = int(exact)
		fracs[i] = exact - float64(out[i])
		used += out[i]
	}
	for used < clients {
		best := 0
		for i := 1; i < fleets; i++ {
			if fracs[i] > fracs[best] {
				best = i
			}
		}
		out[best]++
		fracs[best] = -1
		used++
	}
	return out
}

// biasWeights tilts a fleet's cache-selection weights toward nearby caches:
// each weight is divided by the expected one-way latency to the cache (base
// plus half the jitter span, floored to keep intra-region preference
// finite), then renormalized. This is the aggregate analogue of clients
// preferring low-RTT mirrors; it is deterministic, so installing a topology
// perturbs no RNG draw.
func biasWeights(tp topo.Topology, fleetRegion topo.Region, cacheRegions []topo.Region, weights []float64) []float64 {
	out := make([]float64, len(weights))
	total := 0.0
	for i, w := range weights {
		lat := tp.BaseLatency(fleetRegion, cacheRegions[i]) + tp.Jitter(fleetRegion, cacheRegions[i])/2
		out[i] = w / (lat.Seconds() + 0.025)
		total += out[i]
	}
	if total <= 0 {
		return weights
	}
	for i := range out {
		out[i] /= total
	}
	return out
}

// cacheRoles maps a compromise plan onto per-cache behaviors.
func cacheRoles(p *attack.CompromisePlan, caches int) []cacheRole {
	roles := make([]cacheRole, caches)
	if p == nil {
		return roles
	}
	bad := roleStale
	if p.Mode == attack.CompromiseEquivocate {
		bad = roleEquivocating
	}
	for _, t := range p.Targets {
		roles[t] = bad
	}
	return roles
}

// forkFleetCount is how many fleets an equivocating cache serves the fork
// to: half of them — the rest get the genuine document, which is what makes
// it an equivocation rather than a uniform substitution — and at least one
// (a compromise that forks to nobody is no compromise).
func forkFleetCount(fleets int) int {
	return max(1, fleets/2)
}

// authorityOrder is cache i's fallback order. Flat runs rotate the
// authority list so the initial fetch load spreads evenly; under a topology
// the cache prefers nearby authorities (stable-sorted by expected one-way
// latency from its region, rotation rank breaking ties so co-located caches
// still spread their load).
func authorityOrder(tp topo.Topology, auths []simnet.NodeID, authRegions []topo.Region, cacheRegions []topo.Region, i int) []simnet.NodeID {
	out := make([]simnet.NodeID, len(auths))
	for k := range out {
		out[k] = auths[(i+k)%len(auths)]
	}
	if tp == nil {
		return out
	}
	cr := cacheRegions[i]
	sort.SliceStable(out, func(a, b int) bool {
		la := tp.BaseLatency(cr, authRegions[int(out[a])])
		lb := tp.BaseLatency(cr, authRegions[int(out[b])])
		return la < lb
	})
	return out
}

// uniformWeights returns the weight vector of a fleet that prefers no cache:
// 1/n each.
func uniformWeights(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 1 / float64(n)
	}
	return out
}
