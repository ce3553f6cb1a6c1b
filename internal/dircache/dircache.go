package dircache

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"partialtor/internal/attack"
	"partialtor/internal/chain"
	"partialtor/internal/faults"
	"partialtor/internal/gossip"
	"partialtor/internal/obs"
	"partialtor/internal/sig"
	"partialtor/internal/simnet"
	"partialtor/internal/topo"
)

// Default sizes of the documents moving through the tier. DocBytes
// approximates a full consensus for ~8000 relays; DiffBytes the hourly
// consensus diff Tor serves to clients that hold the previous document.
const (
	DefaultDocBytes  = 1_200_000
	DefaultDiffBytes = 25_000
	// reqBytes is the wire size of one client's fetch request (HTTP GET
	// with headers); aggregated requests scale linearly with client count.
	reqBytes = 400
	// nackBytes is the per-client size of a "no document" refusal.
	nackBytes = 64
)

// The tier's fixed shape: values no scenario varies, so they are constants
// rather than Spec fields.
const (
	// authorityBandwidth is each authority's access capacity in bits/s
	// (§4.3); cacheBandwidth each cache's (attack.CostModel.CacheLinkMbit
	// prices floods against it); fleetBandwidth one fleet node's downlink,
	// which aggregates many clients' access links.
	authorityBandwidth = 250e6
	cacheBandwidth     = 200e6
	fleetBandwidth     = 2e9
	// retryDelay is how long a refused client batch waits before retrying
	// when no Spec.Backoff replaces the fixed delay.
	retryDelay = time.Minute
	// tick is the aggregation granularity of fleet arrivals: a fleet batches
	// the clients whose fetches fall in one tick.
	tick = 10 * time.Second
	// raceFailover is the racing client's failover delay: how long a race
	// waits for any response before re-racing against the next RaceK caches.
	raceFailover = 20 * time.Second
	// diffFraction is the share of clients that hold the previous consensus
	// and therefore fetch only a diff.
	diffFraction = 0.8
	// cacheFetchTimeout is a cache's per-authority give-up delay before
	// falling back to the next authority; cacheRetry how long it waits after
	// a "not ready" refusal before asking the next one.
	cacheFetchTimeout = 15 * time.Second
	cacheRetry        = 10 * time.Second
)

// Spec configures one distribution phase.
type Spec struct {
	// Authorities is the number of consensus sources (default 9).
	Authorities int
	// Caches is the number of directory caches (default 20).
	Caches int
	// Fleets is the number of aggregated client nodes the population is
	// split into (default 4).
	Fleets int
	// Clients is the total modelled client population (default 1e6).
	Clients int

	// Topology places the tier in regions (nil = the historical flat
	// model, byte-identical to pre-topology runs). Authorities and caches
	// are placed by Topology.Place (contiguous per-region blocks sized by
	// the region shares); fleets aggregate the client population, so they
	// cycle through the regions — one per region when Fleets defaults to
	// the region count — and size themselves by their region's share.
	// Node bandwidths are scaled by the region's tier, pair latencies come
	// from the region-pair matrix, and each fleet's cache selection is
	// biased toward nearby caches (inverse expected latency).
	Topology topo.Topology

	// RaceK switches the fleets from single-cache fetching to the racing
	// client: every batch is raced against up to RaceK caches in parallel,
	// the fastest response wins, laggards are cancelled (their transferred
	// bytes are accounted in Result.RaceWasteBytes), and a race that is
	// still unanswered after raceFailover (20 s) fails over to the next
	// caches in the fleet's preference order. 0 (the default) keeps the
	// historical single-fetch path bit for bit; 1 is the failover client
	// (no parallelism, timeout re-race only).
	RaceK int

	// DocBytes is the full consensus size; 0 selects DefaultDocBytes. The
	// consensus diff scales with it (DiffBytes).
	DocBytes int64

	// PublishAt is the instant the authorities have the consensus; the
	// harness sets it to the generation latency of the protocol run.
	// simnet.Never models a failed run: no document ever exists.
	PublishAt time.Duration
	// FetchWindow is the span over which the client population spreads its
	// fetches (default 30 min, the first half of the freshness interval).
	FetchWindow time.Duration

	// TargetCoverage is the population fraction defining "distributed"
	// (default 0.95).
	TargetCoverage float64

	// Attacks are DDoS windows applied to the tier named by each plan's
	// Tier: authority plans throttle the authority stubs, cache plans
	// throttle caches. Target indices are tier-relative.
	Attacks []attack.Plan

	// Compromise, if non-nil, makes the plan's target caches misbehave:
	// CompromiseStale caches keep re-serving the previous epoch's consensus,
	// CompromiseEquivocate caches serve an adversary-signed fork to half of
	// the fleets. Only the hash-chain verification path (VerifyClients) lets
	// clients catch either.
	Compromise *attack.CompromisePlan
	// VerifyClients turns on the proposal-239 chain-verifying client path
	// (client.Verifier): fleets check every fetched document against the
	// hash chain, reject stale or forked documents, distrust the caches
	// that served them and re-fetch from the rest.
	VerifyClients bool
	// Chain pins the hash-chain material the run serves and verifies
	// against; nil synthesizes deterministic material from Seed and
	// Authorities (SynthChain) whenever Compromise or VerifyClients needs
	// it. The harness injects the real consensus digest here.
	Chain *ChainContext

	// Gossip, if non-nil, turns on the cache-to-cache dissemination mesh:
	// caches form a seeded k-regular-ring-plus-random-links graph
	// (latency-biased under a Topology), push TTL/fanout-bounded digests on
	// acquiring a fresh consensus, pull on digest misses, and reconcile
	// epoch vectors in periodic anti-entropy rounds. Gossip.Seeds lists
	// caches that already hold the current consensus at t=0 — the surviving
	// publications an authority flood cannot take back. nil keeps the
	// historical star topology byte for byte: no extra RNG draws, no extra
	// events.
	Gossip *gossip.Config

	// Faults, if non-nil, schedules deterministic fault injection over the
	// run: authority/mirror crash+restart and gossip-mesh churn — compiled
	// with Attacks into one schedule at wiring time, so a faulted run is
	// exactly as reproducible as a clean one. nil keeps every legacy code
	// path byte for byte: no extra RNG draws, no extra events.
	Faults *faults.Plan

	// Backoff, if non-nil, replaces the fleets' fixed-delay coalesced
	// retry with a capped, seeded-jitter exponential backoff and an optional
	// per-fleet retry budget — desynchronizing the retry bursts that land on
	// a flooded tier as one synchronized spike. nil keeps the historical
	// fixed-delay retry byte for byte.
	Backoff *faults.Backoff

	// Seed drives all randomness (default 1).
	Seed int64

	// Tracer receives the run's observability events (nil = tracing off).
	// Run stamps every event with the "dist" layer; recording never
	// perturbs the simulation, so results are identical either way.
	Tracer obs.Tracer
}

func (s Spec) withDefaults() Spec {
	if s.Authorities == 0 {
		s.Authorities = 9
	}
	if s.Caches == 0 {
		s.Caches = 20
	}
	if s.Fleets == 0 {
		s.Fleets = 4
		// A regional run wants at least one fleet per region, or the small
		// regions would have no coverage curve to report.
		if s.Topology != nil && s.Topology.NumRegions() > s.Fleets {
			s.Fleets = s.Topology.NumRegions()
		}
	}
	if s.Clients == 0 {
		s.Clients = 1_000_000
	}
	if s.DocBytes == 0 {
		s.DocBytes = DefaultDocBytes
	}
	if s.FetchWindow == 0 {
		s.FetchWindow = 30 * time.Minute
	}
	if s.RaceK > s.Caches {
		s.RaceK = s.Caches
	}
	if s.TargetCoverage == 0 {
		s.TargetCoverage = 0.95
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Chain == nil && (s.VerifyClients || s.Compromise != nil) {
		s.Chain = SynthChain(s.Seed, s.Authorities, sig.Digest{})
	}
	if s.Gossip != nil {
		g := s.Gossip.WithDefaults()
		s.Gossip = &g
	}
	if s.Backoff != nil {
		b := s.Backoff.WithDefaults()
		s.Backoff = &b
	}
	return s
}

// DiffBytes is the consensus-diff size: DefaultDiffBytes scaled with DocBytes,
// so a scaled-down consensus (e.g. derived from a small-relay protocol run)
// keeps Tor's ~2% diff-to-document ratio instead of a "diff" larger than the
// document it summarizes. Call it on a defaulted spec (Result.Spec is one).
func (s *Spec) DiffBytes() int64 {
	return max(1, s.DocBytes*DefaultDiffBytes/DefaultDocBytes)
}

// numTicks is how many fleet ticks cover the fetch window: one per tick, the
// last clamped to the window's end. Call it on a defaulted spec.
func (s *Spec) numTicks() int {
	return max(1, int((s.FetchWindow+tick-1)/tick))
}

// RunLimit bounds the simulation: the fetch window plus 30 minutes for the
// stragglers' retries. Call it on a defaulted spec.
func (s *Spec) RunLimit() time.Duration { return s.FetchWindow + 30*time.Minute }

// tierSize is the node count of the tier a plan or fault names.
func (s *Spec) tierSize(t attack.Tier) int {
	if t == attack.TierCache {
		return s.Caches
	}
	return s.Authorities
}

// Validate rejects specs the simulation cannot run.
func (s Spec) Validate() error {
	s0 := s.withDefaults()
	if s0.Authorities < 1 || s0.Caches < 1 || s0.Fleets < 1 || s0.Clients < 1 {
		return errors.New("dircache: tier sizes must be positive")
	}
	if s0.Fleets > s0.Clients {
		return fmt.Errorf("dircache: %d fleets cannot split %d clients", s0.Fleets, s0.Clients)
	}
	if s.DocBytes < 0 {
		return errors.New("dircache: negative document size")
	}
	if s.PublishAt < 0 || s.FetchWindow < 0 {
		return errors.New("dircache: negative duration")
	}
	if s.RaceK < 0 {
		return fmt.Errorf("dircache: negative race width %d", s.RaceK)
	}
	if !(s0.TargetCoverage >= 0 && s0.TargetCoverage <= 1) {
		return fmt.Errorf("dircache: target coverage %.2f outside [0, 1]", s0.TargetCoverage)
	}
	for i := range s.Attacks {
		p := &s.Attacks[i]
		if err := p.Validate(); err != nil {
			return fmt.Errorf("dircache: attack %d: %w", i, err)
		}
		if err := attack.CheckScope(p.Tier, p.Targets, p.TargetRegion, s0.tierSize(p.Tier), s.Topology); err != nil {
			return fmt.Errorf("dircache: attack %d: %w", i, err)
		}
	}
	if p := s.Compromise; p != nil {
		if err := p.Validate(); err != nil {
			return fmt.Errorf("dircache: compromise: %w", err)
		}
		if err := attack.CheckScope(attack.TierCache, p.Targets, "", s0.Caches, nil); err != nil {
			return fmt.Errorf("dircache: compromise: %w", err)
		}
	}
	if c := s.Chain; c != nil {
		if c.Threshold < 1 || c.Threshold > c.Pubs.Len() {
			return fmt.Errorf("dircache: chain threshold %d over %d authorities", c.Threshold, c.Pubs.Len())
		}
	}
	if g := s.Gossip; g != nil {
		if err := g.Validate(s0.Caches); err != nil {
			return fmt.Errorf("dircache: %w", err)
		}
	}
	if fp := s.Faults; fp != nil {
		if err := fp.Validate(); err != nil {
			return fmt.Errorf("dircache: %w", err)
		}
		for i := range fp.Faults {
			f := &fp.Faults[i]
			if err := attack.CheckScope(f.Tier, f.Targets, "", s0.tierSize(f.Tier), s.Topology); err != nil {
				return fmt.Errorf("dircache: fault %d: %w", i, err)
			}
			if f.Kind == faults.Churn && s.Gossip == nil {
				return fmt.Errorf("dircache: fault %d: churn needs a gossip mesh to leave", i)
			}
		}
	}
	if b := s.Backoff; b != nil {
		b0 := b.WithDefaults()
		if err := b0.Validate(); err != nil {
			return fmt.Errorf("dircache: %w", err)
		}
	}
	return nil
}

// --- wire messages ---

// dirRequest is one cache's consensus fetch to an authority. seq is the
// cache's attempt number, echoed in refusals so stale answers are ignored.
type dirRequest struct{ seq int }

func (dirRequest) Size() int64  { return reqBytes }
func (dirRequest) Kind() string { return "cache-req" }

// consensusDoc is a full consensus document, authority → cache.
type consensusDoc struct{ bytes int64 }

func (m *consensusDoc) Size() int64  { return m.bytes }
func (m *consensusDoc) Kind() string { return "consensus" }

// notReady refuses a cache fetch before the consensus exists, echoing the
// request's attempt number.
type notReady struct{ seq int }

func (notReady) Size() int64  { return nackBytes }
func (notReady) Kind() string { return "not-ready" }

// fleetFetch aggregates one tick of client fetches from a fleet to a cache:
// fulls clients need the whole document, diffs only the consensus diff.
// race is the fleet's race id when the racing client issued the fetch as
// one leg of a K-way race (0 = the single-fetch path); the cache echoes it
// so the fleet can match responses to races. The id is bookkeeping, not
// payload — Size is unchanged.
type fleetFetch struct {
	fulls, diffs int
	race         int64
}

func (m *fleetFetch) Size() int64  { return int64(m.fulls+m.diffs) * reqBytes }
func (m *fleetFetch) Kind() string { return "fleet-req" }

// docBatch carries the downloads for one fleetFetch back to the fleet. Its
// wire size is the exact sum of the per-client documents, so the transfer
// contends for cache uplink bandwidth as the individual downloads would.
// link identifies WHICH consensus the cache served (its proposal-239 chain
// link); nil when the run carries no chain material. The link's bytes ride
// inside the documents — real consensuses embed their signatures — so Size
// is unchanged.
type docBatch struct {
	fulls, diffs int
	bytes        int64
	link         *chain.Link
	race         int64 // echoed fleetFetch.race; 0 = single-fetch path
}

func (m *docBatch) Size() int64  { return m.bytes }
func (m *docBatch) Kind() string { return "doc-batch" }

// fetchNack refuses a fleetFetch because the cache has no document yet.
type fetchNack struct {
	fulls, diffs int
	race         int64 // echoed fleetFetch.race; 0 = single-fetch path
}

func (m *fetchNack) Size() int64  { return int64(m.fulls+m.diffs) * nackBytes }
func (m *fetchNack) Kind() string { return "fetch-nack" }

// msgPool recycles the messages of a fleet's fetch → serve → batch (or
// nack) loop and of the cache mesh, so it allocates no message once the
// first tick's are in circulation. A message goes back when the Deliver it
// was handed to returns: nothing keeps *m past that (receiveBatch keeps
// m.link, which points into the run's ChainContext, and handleFork copies
// *m.link; the mesh handlers copy what they read). A message the network
// parks on a link dead to the end comes back through reclaim, the hand-back
// Run installs. The racing client's state rides the same pool: a race goes
// back when finishRace settles it, a wave timer or a cache's fetch, refusal
// or pull timer as it fires. One Run owns one pool, used by its single
// goroutine; it is never a sync.Pool and never package-level, because
// sweeps run Run concurrently.
type msgPool struct {
	fetches     freeList[fleetFetch]
	batches     freeList[docBatch]
	nacks       freeList[fetchNack]
	digests     freeList[gossipDigest]
	docs        freeList[gossipDoc]
	vectors     freeList[gossipVector]
	races       freeList[raceState]
	timers      freeList[waveTimer]
	cacheTimers freeList[cacheTimer]
}

// reclaim takes back a message of the pool's own kinds that the network
// parked: it never arrives, so nothing else will return it.
//
//detlint:hotpath
func (p *msgPool) reclaim(m simnet.Message) {
	switch m := m.(type) {
	case *fleetFetch:
		p.fetches.put(m)
	case *docBatch:
		p.batches.put(m)
	case *fetchNack:
		p.nacks.put(m)
	case *gossipDigest:
		p.digests.put(m)
	case *gossipDoc:
		p.docs.put(m)
	case *gossipVector:
		p.vectors.put(m)
	}
}

// fetch, batch and nack take a message from the pool, or allocate one
// while the pool is still filling.
func (p *msgPool) fetch(fulls, diffs int, race int64) *fleetFetch {
	m := p.fetches.get()
	if m == nil {
		m = new(fleetFetch)
	}
	*m = fleetFetch{fulls: fulls, diffs: diffs, race: race}
	return m
}

func (p *msgPool) batch(fulls, diffs int, bytes int64, link *chain.Link, race int64) *docBatch {
	m := p.batches.get()
	if m == nil {
		m = new(docBatch)
	}
	*m = docBatch{fulls: fulls, diffs: diffs, bytes: bytes, link: link, race: race}
	return m
}

func (p *msgPool) nack(fulls, diffs int, race int64) *fetchNack {
	m := p.nacks.get()
	if m == nil {
		m = new(fetchNack)
	}
	*m = fetchNack{fulls: fulls, diffs: diffs, race: race}
	return m
}

// digest, doc and vector take a mesh message from the pool. A vector keeps
// its entry slice across uses: the engine refills it in place.
func (p *msgPool) digest(d gossip.Digest) *gossipDigest {
	m := p.digests.get()
	if m == nil {
		m = new(gossipDigest)
	}
	m.d = d
	return m
}

func (p *msgPool) doc(epoch uint64, bytes int64, full bool) *gossipDoc {
	m := p.docs.get()
	if m == nil {
		m = new(gossipDoc)
	}
	*m = gossipDoc{epoch: epoch, bytes: bytes, full: full}
	return m
}

func (p *msgPool) vector(eng *gossip.Engine) *gossipVector {
	m := p.vectors.get()
	if m == nil {
		m = new(gossipVector)
	}
	m.v = eng.Vector(m.v.Entries)
	return m
}

// race takes a fresh race over the given number of caches, none tried yet.
func (p *msgPool) race(fulls, diffs, caches int) *raceState {
	r := p.races.get()
	if r == nil {
		r = new(raceState)
	}
	tried := slices.Grow(r.tried[:0], caches)[:caches]
	clear(tried)
	*r = raceState{fulls: fulls, diffs: diffs, tried: tried}
	return r
}

// timer takes a wave timer bound to one fleet's race wave.
func (p *msgPool) timer(f *fleetNode, ctx *simnet.Context, id int64, wave int) *waveTimer {
	w := p.timers.get()
	if w == nil {
		w = new(waveTimer)
		w.fire = w.run
	}
	w.f, w.ctx, w.id, w.wave = f, ctx, id, wave
	return w
}

// cacheTimer takes a timer of the given kind bound to cache c and sequence
// number seq.
func (p *msgPool) cacheTimer(c *cacheNode, kind cacheTimerKind, seq int) *cacheTimer {
	t := p.cacheTimers.get()
	if t == nil {
		t = new(cacheTimer)
		t.fire = t.run
	}
	t.c, t.kind, t.seq = c, kind, seq
	return t
}

// freeList is a stack of spare messages of one type.
type freeList[T any] []*T

// get pops a spare message, or returns nil when there is none.
//
//detlint:hotpath
func (l *freeList[T]) get() *T {
	n := len(*l)
	if n == 0 {
		return nil
	}
	m := (*l)[n-1]
	*l = (*l)[:n-1]
	return m
}

//detlint:hotpath
func (l *freeList[T]) put(m *T) { *l = append(*l, m) }
