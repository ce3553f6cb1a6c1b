package dircache

import (
	"time"

	"partialtor/internal/chain"
	"partialtor/internal/faults"
	"partialtor/internal/obs"
	"partialtor/internal/simnet"
)

// authorityStub serves the consensus document to caches from publishAt
// onward. It stands in for a full protocol run: the generation phase has
// already been simulated (or failed) by the time the distribution phase
// starts, so all that remains of an authority is its publication state.
type authorityStub struct {
	spec      *Spec
	publishAt time.Duration
}

func (a *authorityStub) Start(ctx *simnet.Context) {}

func (a *authorityStub) Deliver(ctx *simnet.Context, from simnet.NodeID, msg simnet.Message) {
	req, ok := msg.(dirRequest)
	if !ok {
		return
	}
	if ctx.Now() >= a.publishAt {
		ctx.Send(from, &consensusDoc{bytes: a.spec.DocBytes})
		return
	}
	ctx.Send(from, notReady{seq: req.seq})
}

// cacheRole is a cache's behavior for one distribution period.
type cacheRole int

const (
	// roleHonest fetches the consensus and re-serves it faithfully.
	roleHonest cacheRole = iota
	// roleStale never fetches: it keeps re-serving the previous epoch's
	// consensus it already holds (attack.CompromiseStale). The cache looks
	// fast — no authority round-trip, no nacks — but its clients stay on
	// the old network view.
	roleStale
	// roleEquivocating serves an adversary-signed fork of the current epoch
	// to its fork-target fleets and behaves honestly toward the rest
	// (attack.CompromiseEquivocate).
	roleEquivocating
)

// cacheNode fetches the consensus from the authorities with timeout-driven
// fallback and re-serves it to fleets, as full documents or diffs. A
// compromised role changes what it serves, never the wire sizes: stale and
// forked documents are byte-for-byte as heavy as genuine ones.
type cacheNode struct {
	spec *Spec
	pool *msgPool

	role       cacheRole
	chainCtx   *ChainContext          // nil when the run carries no chain material
	forkFleets map[simnet.NodeID]bool // fleets an equivocating cache forks to

	authOrder []simnet.NodeID // fallback order over the authorities
	attempt   int             // number of authority requests sent
	have      bool
	fetchedAt time.Duration

	gossip *gossipState // nil when the run carries no mesh

	// sched is the run's perturbation schedule and windows this cache's
	// part of it, whose fault windows the cache acts on beyond the capacity
	// throttle. down counts the open fault windows so overlapping faults
	// restart the node exactly once.
	sched   *faults.Schedule
	windows []faults.Window
	down    int

	fullsServed, diffsServed int

	// ctx is the cache's context, kept for its timers: the fetch and pull
	// timers come from the run's msgPool (cacheTimer), and the mesh's two
	// recurring timers are bound once in Start.
	ctx *simnet.Context
}

func (c *cacheNode) Start(ctx *simnet.Context) {
	c.ctx = ctx
	if g := c.gossip; g != nil {
		g.onAnnounce = func() { c.gossipAnnounce(ctx) }
		g.onAntiEntropy = func() { c.antiEntropyRound(ctx) }
	}
	c.scheduleFaults(ctx)
	if c.role == roleStale {
		// A stale cache has nothing to fetch: its whole misbehavior is
		// keeping the previous epoch alive. It still answers mesh traffic
		// (serving its previous epoch, never pulling), so anti-entropy runs.
		if c.gossip != nil {
			c.armAntiEntropy(ctx)
		}
		return
	}
	if g := c.gossip; g != nil && g.seeded {
		// A seeded cache models a surviving publication: it holds the
		// current consensus from t=0 and never touches the authorities —
		// its job is to gossip the document across the mesh.
		c.have = true
		c.fetchedAt = 0
		c.gossipAcquire(ctx)
		c.armAntiEntropy(ctx)
		return
	}
	// Stagger the initial fetches a little so the authority uplinks don't
	// see 20 perfectly synchronized requests at t=0.
	jitter := time.Duration(ctx.Rand().Int63n(int64(time.Second)))
	ctx.After(jitter, func() { c.requestNext(ctx) })
	if c.gossip != nil {
		c.armAntiEntropy(ctx)
	}
}

// scheduleFaults arms the cache's behavioral fault events at wiring time:
// one down/up pair per crash or churn window against this cache, in fault
// order, plus — on every gossiping cache — a mesh rebuild at each churn
// boundary in the plan, so survivors route around departed mirrors the
// instant membership changes. Everything is scheduled before the clock
// starts; a fault plan adds no RNG draws.
//
//detlint:hotpath
func (c *cacheNode) scheduleFaults(ctx *simnet.Context) {
	for _, w := range c.windows {
		if w.Fault == nil {
			continue // a flood is capacity alone
		}
		churn := w.Fault.Kind == faults.Churn
		//detlint:hotpath ok(wiring time: one closure per window edge, armed once before the clock starts)
		ctx.At(w.Start, func() { c.faultDown(churn) })
		//detlint:hotpath ok(as above)
		ctx.At(w.End, func() { c.faultUp(ctx, churn) })
	}
	if c.gossip == nil {
		return
	}
	for _, at := range c.sched.ChurnBoundaries() {
		//detlint:hotpath ok(wiring time: one closure per churn boundary, armed once before the clock starts)
		ctx.At(at, func() { c.rebuildPeers(ctx) })
	}
}

// faultDown is a crash or churn onset: the cache loses its document (the
// restart must re-fetch or catch up over the mesh) and forgets its gossip
// holdings; a churned mirror additionally leaves the mesh. The capacity
// effect is already in the precompiled profile — nothing reaches the node
// while it is down. Compromised caches keep their scripted misbehavior:
// behavioral faults only hit honest mirrors (the throttle hits either way).
// The node's own timers keep firing during downtime; anything they send
// stalls on the zero-rate uplink until the restart, which is the documented
// (and deterministic) cost of the fluid model.
func (c *cacheNode) faultDown(churn bool) {
	if c.role != roleHonest {
		return
	}
	c.down++
	c.have = false
	if g := c.gossip; g != nil {
		g.eng.SetEpoch(0)
		if churn {
			g.left = true
		}
	}
}

// faultUp is the matching restart/rejoin: with every window closed the cache
// re-enters service empty-handed, re-fetches from the authorities, and — in
// a mesh — rejoins its neighbours and immediately reconciles by one
// anti-entropy round, the catch-up path that revives it when the
// authorities are still flooded.
func (c *cacheNode) faultUp(ctx *simnet.Context, churn bool) {
	if c.role != roleHonest {
		return
	}
	c.down--
	if c.down > 0 {
		return // an overlapping window still holds the node down
	}
	if g := c.gossip; g != nil && churn {
		g.left = false
		c.rebuildPeers(ctx)
	}
	if !c.have {
		c.requestNext(ctx)
	}
	if c.gossip != nil {
		c.gossipCatchUp(ctx)
	}
}

// requestNext asks the next authority in the fallback order for the
// consensus and arms the give-up timer for this attempt.
func (c *cacheNode) requestNext(ctx *simnet.Context) {
	if c.have {
		return
	}
	auth := c.authOrder[c.attempt%len(c.authOrder)]
	c.attempt++
	seq := c.attempt
	ctx.Trace(obs.Event{Type: obs.EvCacheFetch, Peer: int(auth), A: int64(seq)})
	ctx.Send(auth, dirRequest{seq: seq})
	ctx.After(cacheFetchTimeout, c.pool.cacheTimer(c, timerFetch, seq).fire)
}

// cacheTimerKind is what a cacheTimer does when it fires.
type cacheTimerKind uint8

const (
	// timerFetch gives up on authority attempt seq and falls back to the
	// next authority; timerRefused asks the next one after attempt seq was
	// refused. Both do nothing once the cache holds the document or has
	// moved past attempt seq.
	timerFetch cacheTimerKind = iota
	timerRefused
	// timerPull expires mesh pull seq if it is still outstanding.
	timerPull
)

// cacheTimer is one armed cache timer: its kind and the attempt or pull
// sequence number it guards. Timers come from the run's msgPool and go back
// as they fire, like waveTimer, so arming one allocates nothing once the
// pool is warm.
type cacheTimer struct {
	c    *cacheNode
	seq  int
	kind cacheTimerKind
	fire func()
}

//detlint:hotpath
func (t *cacheTimer) run() {
	c, seq, kind := t.c, t.seq, t.kind
	c.pool.cacheTimers.put(t)
	ctx := c.ctx
	switch kind {
	case timerPull:
		c.gossip.eng.PullExpired(seq)
	case timerFetch:
		if !c.have && c.attempt == seq {
			auth := c.authOrder[(seq-1)%len(c.authOrder)]
			ctx.Trace(obs.Event{Type: obs.EvCacheFallback, Peer: int(auth), A: int64(seq)})
			c.requestNext(ctx)
		}
	case timerRefused:
		if !c.have && c.attempt == seq {
			c.requestNext(ctx)
		}
	}
}

func (c *cacheNode) Deliver(ctx *simnet.Context, from simnet.NodeID, msg simnet.Message) {
	switch m := msg.(type) {
	case *consensusDoc:
		if c.have {
			return // late duplicate from a timed-out authority
		}
		c.have = true
		c.fetchedAt = ctx.Now()
		if c.gossip != nil {
			c.gossipAcquire(ctx)
		}

	case notReady:
		// The consensus does not exist yet; wait, then fall back to the
		// next authority (it may publish sooner). A refusal of anything
		// but the newest attempt is stale — its attempt already timed out
		// and fell back — so acting on it would duplicate requests.
		if m.seq != c.attempt {
			return
		}
		ctx.After(cacheRetry, c.pool.cacheTimer(c, timerRefused, m.seq).fire)

	case *fleetFetch:
		c.serve(ctx, from, m)
		c.pool.fetches.put(m)

	case *gossipDigest:
		c.onGossipDigest(ctx, from, m)
		c.pool.digests.put(m)
	case gossipPull:
		c.onGossipPull(ctx, from, m)
	case *gossipDoc:
		c.onGossipDoc(ctx, from, m)
		c.pool.docs.put(m)
	case *gossipVector:
		c.onGossipVector(ctx, from, m)
		c.pool.vectors.put(m)
	}
}

// serve answers one fleet's aggregated fetch according to the cache's role.
func (c *cacheNode) serve(ctx *simnet.Context, from simnet.NodeID, m *fleetFetch) {
	var link *chain.Link
	switch {
	case c.role == roleStale:
		// Always "available": the previous epoch never needed fetching.
		link = &c.chainCtx.Prev
	case c.role == roleEquivocating && c.forkFleets[from]:
		// The adversary pre-loaded the fork, so fork-target fleets are
		// served from t=0 — before honest caches even hold the consensus.
		link = &c.chainCtx.Fork
	default:
		if !c.have {
			ctx.Send(from, c.pool.nack(m.fulls, m.diffs, m.race))
			return
		}
		if c.chainCtx != nil {
			link = &c.chainCtx.Genuine
		}
	}
	c.fullsServed += m.fulls
	c.diffsServed += m.diffs
	bytes := int64(m.fulls)*c.spec.DocBytes + int64(m.diffs)*c.spec.DiffBytes()
	ctx.Trace(obs.Event{Type: obs.EvServe, Peer: int(from), A: int64(m.fulls), B: int64(m.diffs)})
	ctx.Send(from, c.pool.batch(m.fulls, m.diffs, bytes, link, m.race))
}

// fallbacks reports how many extra authority requests the cache needed
// beyond the first (timeouts plus not-ready retries).
func (c *cacheNode) fallbacks() int {
	if c.attempt <= 1 {
		return 0
	}
	return c.attempt - 1
}
