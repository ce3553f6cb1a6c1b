package dircache

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"partialtor/internal/chain"
	"partialtor/internal/client"
	"partialtor/internal/faults"
	"partialtor/internal/sig"
	"partialtor/internal/simnet"
	"partialtor/internal/topo"
)

// Result is the outcome of one distribution phase.
type Result struct {
	Spec Spec

	// TotalClients is the modelled population; Covered how many finished
	// their download within the run limit.
	TotalClients int
	Covered      int
	// Points is the coverage curve: cumulative covered clients, one point
	// per instant at which a fleet's coverage changed, in time order.
	Points []CoveragePoint

	// TimeToTarget is when coverage first reached Spec.TargetCoverage
	// (simnet.Never if it didn't).
	TimeToTarget time.Duration

	// Per-tier egress, in bytes including transport overhead. Bytes are
	// accounted when handed to a node's uplink, so a throttled node's
	// queued-but-stalled responses count as offered egress.
	AuthorityEgress int64
	CacheEgress     int64
	FleetEgress     int64

	// FullDocsServed and DiffsServed count the client downloads the cache
	// tier completed, split by document kind — the diff share is what keeps
	// steady-state cache egress realistic.
	FullDocsServed int
	DiffsServed    int
	// CacheServed is each cache's completed client downloads (fulls plus
	// diffs), indexed like CacheFetchedAt — the per-cache load balance.
	CacheServed []int
	// FailedFetches counts client fetch attempts refused because the
	// asked cache had no consensus (each refused client counts once per
	// attempt, so sustained refusal shows up as a growing number).
	FailedFetches int64
	// CacheFallbacks counts extra authority requests the caches needed
	// beyond their first (timeouts and not-ready retries).
	CacheFallbacks int64
	// CachesWithDoc is how many caches held the consensus at the end.
	CachesWithDoc int
	// CacheFetchedAt is each cache's consensus arrival instant
	// (simnet.Never if it never arrived).
	CacheFetchedAt []time.Duration

	// --- compromised-cache / verification outcomes ---
	// (all zero unless the spec carried a Compromise plan or VerifyClients.)

	// Misled counts clients that accepted a stale or forked document and
	// believe they are covered. Without VerifyClients any compromised cache
	// misleads its share of the population; with it, clients are only
	// misled when the adversary's fork out-corroborates the genuine side
	// (compromised caches outnumbering honest ones). Covered never includes
	// them: it counts holders of the genuine current consensus.
	Misled int
	// StaleRejections counts client downloads the verifying path rejected
	// as stale or chain-invalid.
	StaleRejections int64
	// ExtraFetches counts the re-fetch attempts verification caused
	// (rejected and retracted clients re-entering the retry pool) — the
	// bandwidth price of catching bad mirrors.
	ExtraFetches int64
	// ForkDetections are the equivocations the verifying fleets caught,
	// deduplicated across fleets by conflicting digest pair.
	ForkDetections []ForkDetection
	// DistrustedCaches are the cache indices at least one fleet stopped
	// trusting (sorted, deduplicated).
	DistrustedCaches []int

	// --- racing-client outcomes (all zero unless Spec.RaceK >= 1) ---

	// RaceWasteBytes is the payload of laggard downloads the racing clients
	// discarded after another cache had already won the race — the duplicate
	// egress racing costs the cache tier.
	RaceWasteBytes int64
	// RaceLaggards counts those discarded batches.
	RaceLaggards int
	// RaceTimeouts counts waves that expired without a response and failed
	// over to the next set of caches.
	RaceTimeouts int

	// --- gossip-mesh outcomes (all zero unless Spec.Gossip != nil) ---

	// GossipPushes counts digest announcements sent (origins plus relays);
	// GossipPulls the document pulls issued on digest or anti-entropy
	// misses; GossipServes the pulls answered with a document or diff;
	// GossipRounds the anti-entropy rounds initiated.
	GossipPushes int
	GossipPulls  int
	GossipServes int
	GossipRounds int
	// CachesFromPeers is how many caches obtained the current consensus
	// from a mesh peer rather than an authority — the mirrors the mesh
	// saved during an authority outage.
	CachesFromPeers int
	// GossipBytes is the mesh's offered traffic: bytes of all gossip wire
	// kinds (digests, pulls, documents, anti-entropy vectors).
	GossipBytes int64

	// --- retry/backoff outcomes ---

	// RetryBursts counts the coalesced retry bursts the fleets fired (under
	// the legacy fixed delay or a Spec.Backoff schedule alike).
	RetryBursts int
	// RetryDropped counts the client fetches shed after a fleet's
	// Spec.Backoff budget ran out (zero without a budget).
	RetryDropped int64

	// --- fault-injection outcomes (all zero unless Spec.Faults != nil) ---

	// FaultEvents is the number of scheduled fault events: one per fault
	// per target.
	FaultEvents int
	// TimeBelowTarget sums the spans within the run limit the population
	// spent below Spec.TargetCoverage — the aggregate coverage deficit the
	// faults (and attacks) cost, including every retraction dip.
	TimeBelowTarget time.Duration
	// Recoveries records, per fault in plan order, how long after the fault
	// cleared coverage was back at target (MTTR): 0 when coverage never
	// dipped below target, simnet.Never when the run ended still below it.
	Recoveries []faults.Recovery

	// Regions is the per-region coverage breakdown, ordered by region index.
	// Nil for flat (topology-less) runs.
	Regions []RegionCoverage

	// Stats is the transport-level accounting of the distribution network.
	Stats simnet.Stats
}

// RegionCoverage is one region's slice of the distribution outcome: its
// client population, how much of it finished, and how long the region's
// median and tail clients waited.
type RegionCoverage struct {
	Name    string
	Clients int
	Covered int
	// Points is the region's cumulative coverage curve.
	Points []CoveragePoint
	// TimeToTarget is when the region reached Spec.TargetCoverage; P50 and
	// P99 when half and 99% of its population held the consensus
	// (simnet.Never where the mark was missed).
	TimeToTarget time.Duration
	P50, P99     time.Duration
}

// Coverage is the region's final covered fraction.
func (rc *RegionCoverage) Coverage() float64 {
	if rc.Clients == 0 {
		return 0
	}
	return float64(rc.Covered) / float64(rc.Clients)
}

// ForkDetection is one caught equivocation: the proposal-239 fork proof the
// verifying clients assembled, the caches that served the losing side, and
// when the fleet resolved it.
type ForkDetection struct {
	At time.Duration
	// Caches are the tier-relative indices of the caches that served the
	// rejected side of the fork — with an equivocating compromise these
	// are the compromised caches.
	Caches []int
	// Proof is the cryptographic evidence: two validly signed successors
	// of the same chain head. Proof.Culprits() names the authorities that
	// signed both sides.
	Proof *chain.ForkProof
}

func collect(spec Spec, net *simnet.Network, authIDs, cacheIDs, fleetIDs []simnet.NodeID, caches []*cacheNode, fleets []*fleetNode, coverage *runCoverage) *Result {
	res := &Result{Spec: spec, TimeToTarget: simnet.Never}
	distrusted := map[int]bool{}
	forks := map[[2]sig.Digest]*ForkDetection{}
	for _, f := range fleets {
		res.TotalClients += f.clients
		res.Covered += f.covered
		res.FailedFetches += f.failed
		res.Misled += f.misled
		res.StaleRejections += f.staleRejections
		res.ExtraFetches += f.extraFetches
		res.RaceWasteBytes += f.raceWaste
		res.RaceLaggards += f.raceDup
		res.RaceTimeouts += f.raceTimeouts
		res.RetryBursts += f.retryBursts
		res.RetryDropped += f.retryDropped
		for i, ok := range f.trust {
			if !ok {
				distrusted[i] = true
			}
		}
		for i := range f.forkEvents {
			ev := &f.forkEvents[i].det
			key := digestPair(ev.Proof)
			merged := forks[key]
			if merged == nil {
				cp := *ev
				cp.Caches = append([]int(nil), ev.Caches...)
				forks[key] = &cp
				continue
			}
			if ev.At < merged.At {
				merged.At = ev.At
			}
			merged.Caches = unionSorted(merged.Caches, ev.Caches)
		}
	}
	for _, d := range forks {
		res.ForkDetections = append(res.ForkDetections, *d)
	}
	sort.Slice(res.ForkDetections, func(i, j int) bool {
		a, b := &res.ForkDetections[i], &res.ForkDetections[j]
		if a.At != b.At {
			return a.At < b.At
		}
		// Distinct forks caught at the same instant: order by digest pair
		// so the listing never depends on map iteration order.
		ka, kb := digestPair(a.Proof), digestPair(b.Proof)
		if ka[0] != kb[0] {
			return string(ka[0][:]) < string(kb[0][:])
		}
		return string(ka[1][:]) < string(kb[1][:])
	})
	for i := range distrusted {
		res.DistrustedCaches = append(res.DistrustedCaches, i)
	}
	sort.Ints(res.DistrustedCaches)
	res.Points = coverage.total.points
	res.Regions = regionBreakdown(spec, fleets, coverage.regions)

	for _, c := range caches {
		res.CacheFallbacks += int64(c.fallbacks())
		res.FullDocsServed += c.fullsServed
		res.DiffsServed += c.diffsServed
		res.CacheServed = append(res.CacheServed, c.fullsServed+c.diffsServed)
		at := simnet.Never
		if c.have {
			res.CachesWithDoc++
			at = c.fetchedAt
		}
		res.CacheFetchedAt = append(res.CacheFetchedAt, at)
	}
	for _, id := range authIDs {
		res.AuthorityEgress += net.NodeBytesSent(id)
	}
	for _, id := range cacheIDs {
		res.CacheEgress += net.NodeBytesSent(id)
	}
	for _, id := range fleetIDs {
		res.FleetEgress += net.NodeBytesSent(id)
	}
	res.Stats = net.Stats()
	if spec.Gossip != nil {
		for _, c := range caches {
			g := c.gossip
			res.GossipPushes += g.pushes
			res.GossipPulls += g.pulls
			res.GossipServes += g.serves
			res.GossipRounds += g.rounds
			if g.adoptedFromPeer {
				res.CachesFromPeers++
			}
		}
		for _, k := range gossipKinds {
			res.GossipBytes += res.Stats.KindBytes[k]
		}
	}
	res.TimeToTarget = res.TimeToCoverage(spec.TargetCoverage)
	if spec.Faults != nil {
		res.TimeBelowTarget = timeBelow(res.Points, res.TotalClients, spec.TargetCoverage, spec.RunLimit())
		for i, f := range spec.Faults.Faults {
			res.FaultEvents += len(f.Targets)
			res.Recoveries = append(res.Recoveries, faults.Recovery{
				Fault:     i,
				ClearedAt: f.End,
				MTTR:      recoveryTime(res.Points, res.TotalClients, spec.TargetCoverage, f.End),
			})
		}
	}
	return res
}

// regionBreakdown groups the fleets by region and derives each region's
// latency marks from its coverage curve. Flat runs have no breakdown.
func regionBreakdown(spec Spec, fleets []*fleetNode, curves []coverageCurve) []RegionCoverage {
	tp := spec.Topology
	if tp == nil {
		return nil
	}
	out := make([]RegionCoverage, tp.NumRegions())
	for r := range out {
		out[r].Name = tp.RegionName(topo.Region(r))
		out[r].Points = curves[r].points
	}
	for _, f := range fleets {
		rc := &out[f.region]
		rc.Clients += f.clients
		rc.Covered += f.covered
	}
	for r := range out {
		rc := &out[r]
		rc.TimeToTarget = timeToFraction(rc.Points, rc.Clients, spec.TargetCoverage)
		rc.P50 = timeToFraction(rc.Points, rc.Clients, 0.5)
		rc.P99 = timeToFraction(rc.Points, rc.Clients, 0.99)
	}
	return out
}

// coverageMark is how many of total clients make frac of the population:
// ceil(frac·total), and at least one, so an empty curve never meets a mark.
func coverageMark(total int, frac float64) int {
	return max(1, int(math.Ceil(frac*float64(total))))
}

// timeToFraction is the first instant a cumulative curve reaches frac of a
// population of total clients, or simnet.Never.
func timeToFraction(points []CoveragePoint, total int, frac float64) time.Duration {
	need := coverageMark(total, frac)
	for _, p := range points {
		if p.Count >= need {
			return p.At
		}
	}
	return simnet.Never
}

// recoveryTime is the delay after `from` until the cumulative curve first
// (re)reaches frac of the population: 0 when coverage at `from` already
// meets the mark, simnet.Never when the curve never gets there.
func recoveryTime(points []CoveragePoint, total int, frac float64, from time.Duration) time.Duration {
	need := coverageMark(total, frac)
	cur := 0
	i := 0
	for ; i < len(points) && points[i].At <= from; i++ {
		cur = points[i].Count
	}
	if cur >= need {
		return 0
	}
	for ; i < len(points); i++ {
		if points[i].Count >= need {
			return points[i].At - from
		}
	}
	return simnet.Never
}

// timeBelow sums the spans within [0, limit] a cumulative curve spent below
// frac of the population, retraction dips included.
func timeBelow(points []CoveragePoint, total int, frac float64, limit time.Duration) time.Duration {
	need := coverageMark(total, frac)
	below := time.Duration(0)
	cur := 0
	last := time.Duration(0)
	for _, p := range points {
		if p.At >= limit {
			break
		}
		if cur < need {
			below += p.At - last
		}
		last = p.At
		cur = p.Count
	}
	if cur < need && limit > last {
		below += limit - last
	}
	return below
}

// digestPair keys a fork proof by its unordered conflicting digests, so the
// same equivocation seen by several fleets merges into one detection.
func digestPair(p *chain.ForkProof) [2]sig.Digest {
	a, b := p.A.Digest, p.B.Digest
	if bytesLess(b, a) {
		a, b = b, a
	}
	return [2]sig.Digest{a, b}
}

func bytesLess(a, b sig.Digest) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// unionSorted merges two sorted int slices without duplicates.
func unionSorted(a, b []int) []int {
	seen := make(map[int]bool, len(a)+len(b))
	var out []int
	for _, s := range [][]int{a, b} {
		for _, v := range s {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	sort.Ints(out)
	return out
}

// CoverageAt returns the covered population fraction at instant t.
func (r *Result) CoverageAt(t time.Duration) float64 {
	if r.TotalClients == 0 {
		return 0
	}
	i := sort.Search(len(r.Points), func(i int) bool { return r.Points[i].At > t })
	if i == 0 {
		return 0
	}
	return float64(r.Points[i-1].Count) / float64(r.TotalClients)
}

// Coverage returns the final covered fraction: clients holding the genuine
// current consensus.
func (r *Result) Coverage() float64 {
	if r.TotalClients == 0 {
		return 0
	}
	return float64(r.Covered) / float64(r.TotalClients)
}

// NaiveCoverage is the coverage a chain-blind observer would report: clients
// that completed a download and believe they hold the consensus, whether or
// not it is the genuine current one. The gap to Coverage is exactly the
// misled population — the damage compromised caches do to clients that do
// not verify.
func (r *Result) NaiveCoverage() float64 {
	if r.TotalClients == 0 {
		return 0
	}
	return float64(r.Covered+r.Misled) / float64(r.TotalClients)
}

// TimeToCoverage returns the first instant at which at least frac of the
// population held the consensus, or simnet.Never.
func (r *Result) TimeToCoverage(frac float64) time.Duration {
	return timeToFraction(r.Points, r.TotalClients, frac)
}

// FleetRun converts the distribution outcome of one consensus period into a
// client-model run: the period counts as a success once the target fraction
// of the population actually holds the document, and the document's lifetime
// runs from that instant. slot is the period's start on the campaign clock.
func (r *Result) FleetRun(slot time.Duration) client.Run {
	t := r.TimeToTarget
	if t == simnet.Never {
		return client.Run{At: slot, Success: false}
	}
	return client.Run{At: slot + t, Success: true}
}

// FleetTimeline assembles the end-to-end availability timeline of a sequence
// of consensus periods, one distribution result per period, spaced by the
// policy interval. This is the population-level analogue of the per-client
// timeline: validity windows start when the document has actually reached
// the target coverage, not when the authorities published it.
//
//detlint:hotpath
func FleetTimeline(p client.Policy, results []*Result) *client.Timeline {
	//detlint:hotpath ok(once per campaign: the period runs NewTimeline sorts a copy of)
	runs := make([]client.Run, len(results))
	for i, r := range results {
		runs[i] = r.FleetRun(time.Duration(i) * p.Interval)
	}
	return client.NewTimeline(p, runs)
}

// Summary renders the headline distribution metrics.
func (r *Result) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "clients %d/%d covered (%.1f%%)", r.Covered, r.TotalClients, 100*r.Coverage())
	if r.TimeToTarget == simnet.Never {
		fmt.Fprintf(&b, "; %.0f%% coverage never reached", 100*r.Spec.TargetCoverage)
	} else {
		fmt.Fprintf(&b, "; %.0f%% coverage at %v", 100*r.Spec.TargetCoverage, r.TimeToTarget)
	}
	fmt.Fprintf(&b, "; egress auth %.1f MB, cache %.1f GB; %d/%d caches served, %d fallbacks, %d failed fetches",
		float64(r.AuthorityEgress)/1e6, float64(r.CacheEgress)/1e9,
		r.CachesWithDoc, len(r.CacheFetchedAt), r.CacheFallbacks, r.FailedFetches)
	if r.Misled > 0 || r.StaleRejections > 0 || len(r.ForkDetections) > 0 {
		fmt.Fprintf(&b, "; %d misled, %d stale rejections, %d forks detected, %d extra fetches",
			r.Misled, r.StaleRejections, len(r.ForkDetections), r.ExtraFetches)
	}
	if r.Spec.RaceK >= 1 {
		fmt.Fprintf(&b, "; racing K=%d: %d laggards (%.1f MB wasted), %d wave timeouts",
			r.Spec.RaceK, r.RaceLaggards, float64(r.RaceWasteBytes)/1e6, r.RaceTimeouts)
	}
	if r.Spec.Gossip != nil {
		fmt.Fprintf(&b, "; gossip fanout=%d: %d pushes, %d pulls (%d served), %d anti-entropy rounds, %d caches peer-fed, %.1f MB mesh",
			r.Spec.Gossip.Fanout, r.GossipPushes, r.GossipPulls, r.GossipServes,
			r.GossipRounds, r.CachesFromPeers, float64(r.GossipBytes)/1e6)
	}
	if r.Spec.Backoff != nil {
		fmt.Fprintf(&b, "; backoff: %d retry bursts, %d fetches shed", r.RetryBursts, r.RetryDropped)
	}
	if r.Spec.Faults != nil {
		fmt.Fprintf(&b, "; faults: %d events, %v below target, worst MTTR %s",
			r.FaultEvents, r.TimeBelowTarget, fmtMTTR(faults.WorstMTTR(r.Recoveries)))
	}
	return b.String()
}

// fmtMTTR renders a recovery time, with the Never sentinel spelled out.
func fmtMTTR(d time.Duration) string {
	if d == simnet.Never {
		return "never"
	}
	return d.String()
}
