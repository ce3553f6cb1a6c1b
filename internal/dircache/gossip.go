package dircache

import (
	"time"

	"partialtor/internal/gossip"
	"partialtor/internal/obs"
	"partialtor/internal/simnet"
	"partialtor/internal/topo"
)

// aePhaseStep staggers the caches' first anti-entropy rounds: cache i fires
// its first round i phase steps after the interval, so a 30-cache tier never
// fires 30 synchronized vector exchanges at once. Deterministic — no RNG
// draw — so turning gossip on perturbs no other stream.
const aePhaseStep = 50 * time.Millisecond

// gossipKinds are the mesh's wire-message kinds, for traffic accounting.
var gossipKinds = []string{"gossip-digest", "gossip-pull", "gossip-doc", "gossip-antientropy"}

// --- gossip wire messages ---
//
// The pointer kinds come from the run's msgPool and go back when the
// receiving cache's Deliver returns.

// gossipDigest is one push announcement, cache → mesh peer. Its wire size is
// the codec's real encoded size.
type gossipDigest struct{ d gossip.Digest }

func (m *gossipDigest) Size() int64  { return int64(m.d.EncodedSize()) }
func (m *gossipDigest) Kind() string { return "gossip-digest" }

// gossipPull asks a peer for the document behind a digest or anti-entropy
// miss, carrying the puller's own epoch so the peer can serve a diff.
type gossipPull struct{ have uint64 }

func (gossipPull) Size() int64  { return reqBytes }
func (gossipPull) Kind() string { return "gossip-pull" }

// gossipDoc carries the pulled document (or diff) back, cache → cache.
type gossipDoc struct {
	epoch uint64
	bytes int64
	full  bool
}

func (m *gossipDoc) Size() int64  { return m.bytes }
func (m *gossipDoc) Kind() string { return "gossip-doc" }

// gossipVector is one anti-entropy epoch-vector exchange. Its wire size is
// the codec's real encoded size.
type gossipVector struct{ v gossip.Vector }

func (m *gossipVector) Size() int64  { return int64(m.v.EncodedSize()) }
func (m *gossipVector) Kind() string { return "gossip-antientropy" }

// gossipState is one cache's mesh membership: its engine, the cache-index →
// node-id mapping shared across the tier, and the identity of the current
// consensus it announces.
type gossipState struct {
	cfg    *gossip.Config
	eng    *gossip.Engine
	ids    []simnet.NodeID // cache index -> node id, shared across the tier
	self   int
	seeded bool

	current uint64               // epoch of the genuine current consensus
	sum     [gossip.SumSize]byte // its identity, carried in digests

	pushesLeft int // re-announce budget for the epoch being pushed

	// basePeers is the mesh adjacency the run was built with; the engine's
	// live peer list is rebuilt from it (minus currently-churned mirrors)
	// at every churn boundary. left marks the cache itself as churned away:
	// a departed mirror ignores mesh traffic and initiates no rounds until
	// it rejoins. Both stay zero without a fault plan.
	basePeers []int
	left      bool

	pushes, pulls, serves, rounds int
	adoptedFromPeer               bool

	// onAnnounce and onAntiEntropy re-arm the push and the anti-entropy
	// round, bound once in the cache's Start.
	onAnnounce, onAntiEntropy func()
}

// buildGossipMesh derives the cache mesh from the spec: ring plus seeded
// random links, biased toward low-latency pairs under a topology (the same
// inverse-expected-latency figure the fleets use for cache selection).
func buildGossipMesh(spec *Spec, tp topo.Topology, cacheRegions []topo.Region) [][]int {
	var bias func(a, b int) float64
	if tp != nil {
		bias = func(a, b int) float64 {
			lat := tp.BaseLatency(cacheRegions[a], cacheRegions[b]) + tp.Jitter(cacheRegions[a], cacheRegions[b])/2
			return 1 / (lat.Seconds() + 0.025)
		}
	}
	return gossip.BuildMesh(spec.Caches, spec.Gossip.Degree, spec.Seed, bias)
}

// newGossipState wires cache self into the mesh. Stale caches start one
// epoch behind (they hold the previous consensus); seeds start current.
func newGossipState(spec *Spec, mesh [][]int, ids []simnet.NodeID, self int, role cacheRole) *gossipState {
	g := &gossipState{
		cfg:       spec.Gossip,
		eng:       gossip.NewEngine(self, mesh[self]),
		ids:       ids,
		self:      self,
		basePeers: mesh[self],
		current:   2,
	}
	if spec.Chain != nil {
		g.current = spec.Chain.Genuine.Epoch
		g.sum = [gossip.SumSize]byte(spec.Chain.Genuine.Digest)
	}
	for _, s := range spec.Gossip.Seeds {
		if s == self {
			g.seeded = true
		}
	}
	if role == roleStale && g.current > 0 {
		g.eng.SetEpoch(g.current - 1)
	}
	return g
}

// gossipAcquire records that the cache now holds the current consensus
// (authority fetch or seed) and starts pushing.
func (c *cacheNode) gossipAcquire(ctx *simnet.Context) {
	g := c.gossip
	g.eng.Acquire(g.current)
	g.pushesLeft = gossip.PushRounds
	c.gossipAnnounce(ctx)
}

// gossipAnnounce pushes the current consensus digest to a fresh fanout
// selection and re-arms itself until the push budget runs out.
//
//detlint:hotpath
func (c *cacheNode) gossipAnnounce(ctx *simnet.Context) {
	g := c.gossip
	if g.cfg.Fanout <= 0 || g.eng.Epoch() != g.current {
		return
	}
	d := gossip.Digest{Epoch: g.current, Sum: g.sum, TTL: gossip.TTL}
	for _, p := range g.eng.SelectPeers(ctx.Rand(), g.cfg.Fanout) {
		g.pushes++
		ctx.Trace(obs.Event{Type: obs.EvGossipPush, Peer: int(g.ids[p]), A: int64(d.Epoch), B: int64(d.TTL)})
		ctx.Send(g.ids[p], c.pool.digest(d))
	}
	g.pushesLeft--
	if g.pushesLeft > 0 {
		ctx.After(gossip.PushInterval, g.onAnnounce)
	}
}

// onGossipDigest handles a push announcement: pull if the digest advertises
// something newer, and relay it onward on first sighting while hop budget
// remains.
//
//detlint:hotpath
func (c *cacheNode) onGossipDigest(ctx *simnet.Context, from simnet.NodeID, m *gossipDigest) {
	g := c.gossip
	if g == nil || g.left {
		return
	}
	if c.role != roleStale && g.eng.NeedsPull(m.d.Epoch) {
		c.gossipPull(ctx, from, m.d.Epoch)
	}
	if g.eng.NoteAnnounce(m.d) && g.cfg.Fanout > 0 {
		d := m.d
		d.TTL--
		for _, p := range g.eng.SelectPeers(ctx.Rand(), g.cfg.Fanout) {
			if g.ids[p] == from {
				continue
			}
			g.pushes++
			ctx.Trace(obs.Event{Type: obs.EvGossipPush, Peer: int(g.ids[p]), A: int64(d.Epoch), B: int64(d.TTL)})
			ctx.Send(g.ids[p], c.pool.digest(d))
		}
	}
}

// gossipPull issues one pull to the peer that advertised epoch, with an
// expiry timer so a stalled transfer re-arms the cache instead of wedging it.
//
//detlint:hotpath
func (c *cacheNode) gossipPull(ctx *simnet.Context, from simnet.NodeID, epoch uint64) {
	g := c.gossip
	seq := g.eng.BeginPull(epoch)
	g.pulls++
	ctx.Trace(obs.Event{Type: obs.EvGossipPull, Peer: int(from), A: int64(epoch)})
	//detlint:hotpath ok(a one-word value: an epoch below 256 boxes from the runtime's static table without allocating)
	ctx.Send(from, gossipPull{have: g.eng.Epoch()})
	ctx.After(cacheFetchTimeout, c.pool.cacheTimer(c, timerPull, seq).fire)
}

// onGossipPull serves a behind peer the document — or just the diff when the
// peer is exactly one epoch back.
//
//detlint:hotpath
func (c *cacheNode) onGossipPull(ctx *simnet.Context, from simnet.NodeID, m gossipPull) {
	g := c.gossip
	if g == nil || g.left {
		return
	}
	serve, full := g.eng.OnPull(m.have)
	if !serve {
		return
	}
	g.serves++
	bytes := c.spec.DiffBytes()
	if full {
		bytes = c.spec.DocBytes
	}
	ctx.Send(from, c.pool.doc(g.eng.Epoch(), bytes, full))
}

// onGossipDoc lands a pulled document. Only the genuine current epoch makes
// the cache serve clients (c.have); older epochs merely advance its gossip
// state so the next round bridges the remaining gap.
//
//detlint:hotpath
func (c *cacheNode) onGossipDoc(ctx *simnet.Context, from simnet.NodeID, m *gossipDoc) {
	g := c.gossip
	if g == nil || g.left || c.role == roleStale {
		return
	}
	if !g.eng.Acquire(m.epoch) {
		return
	}
	if m.epoch == g.current && !c.have {
		c.have = true
		c.fetchedAt = ctx.Now()
		g.adoptedFromPeer = true
		g.pushesLeft = gossip.PushRounds
		c.gossipAnnounce(ctx)
	}
}

// onGossipVector reconciles an anti-entropy exchange: pull when the sender
// is ahead, reply with our own vector when the sender is behind (so the
// straggler pulls from us on the way back).
//
//detlint:hotpath
func (c *cacheNode) onGossipVector(ctx *simnet.Context, from simnet.NodeID, m *gossipVector) {
	g := c.gossip
	if g == nil || g.left {
		return
	}
	peerEpoch := m.v.EpochFor(0)
	switch {
	case peerEpoch > g.eng.Epoch():
		if c.role != roleStale && g.eng.NeedsPull(peerEpoch) {
			c.gossipPull(ctx, from, peerEpoch)
		}
	case peerEpoch < g.eng.Epoch():
		ctx.Send(from, c.pool.vector(g.eng))
	}
}

// armAntiEntropy schedules the cache's recurring anti-entropy rounds,
// phase-staggered by cache index.
func (c *cacheNode) armAntiEntropy(ctx *simnet.Context) {
	g := c.gossip
	first := gossip.AntiEntropyInterval + time.Duration(g.self)*aePhaseStep
	ctx.After(first, g.onAntiEntropy)
}

// antiEntropyRound runs the cache's recurring anti-entropy: one catch-up
// exchange (skipped while the mirror is churned away), then re-arm. The
// rotation reconciles every mesh link once per Degree rounds, which is what
// lets partitioned mirrors converge after the flood lifts.
//
//detlint:hotpath
func (c *cacheNode) antiEntropyRound(ctx *simnet.Context) {
	g := c.gossip
	if !g.left {
		c.gossipCatchUp(ctx)
	}
	ctx.After(gossip.AntiEntropyInterval, g.onAntiEntropy)
}

// gossipCatchUp performs one anti-entropy exchange: the cache's epoch vector
// goes to its next round-robin peer. Beyond the recurring rounds, a restarted
// or rejoined mirror fires one immediately — the catch-up path that revives
// it when the authorities are unreachable.
//
//detlint:hotpath
func (c *cacheNode) gossipCatchUp(ctx *simnet.Context) {
	g := c.gossip
	if p, ok := g.eng.NextPeer(); ok {
		g.rounds++
		ctx.Trace(obs.Event{Type: obs.EvGossipAntiEntropy, Peer: int(g.ids[p]), A: int64(g.eng.Epoch())})
		ctx.Send(g.ids[p], c.pool.vector(g.eng))
	}
}

// rebuildPeers recomputes the cache's live mesh neighbours from the built
// adjacency minus the mirrors currently churned away. Every gossiping cache
// runs this at every churn boundary (scheduled at wiring time), so the
// overlay absorbs membership changes deterministically and without any RNG
// draw. A departed mirror keeps its stale list; the rejoin rebuilds it.
func (c *cacheNode) rebuildPeers(ctx *simnet.Context) {
	g := c.gossip
	if g == nil || g.left {
		return
	}
	peers := make([]int, 0, len(g.basePeers))
	for _, p := range g.basePeers {
		if !c.sched.AwayAt(p, ctx.Now()) {
			peers = append(peers, p)
		}
	}
	g.eng.SetPeers(peers)
}
