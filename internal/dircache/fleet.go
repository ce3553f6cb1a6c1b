package dircache

import (
	"sort"
	"time"

	"partialtor/internal/chain"
	"partialtor/internal/client"
	"partialtor/internal/obs"
	"partialtor/internal/sig"
	"partialtor/internal/simnet"
	"partialtor/internal/topo"
)

// CoveragePoint is one step of a cumulative coverage curve: Count clients
// held the consensus from instant At on. A curve can fall: a verifying fleet
// that accepted the adversary's side of a fork first retracts that coverage
// the instant the fork is detected.
type CoveragePoint struct {
	At    time.Duration
	Count int
}

// coverageCurve is a cumulative coverage curve built while the run goes.
// Every fleet adds its coverage changes to the run's curve as they happen,
// and events run in time order, so appending each change — folded into the
// last point when that is at the same instant — is the merge of the
// fleets' curves.
//
// Its storage is taken once, at the first point, sized by what the fleets it
// covers can add: a fleet asks each cache once a tick and each answer lands
// at one instant, so one point per fleet, cache and tick, and never more
// points than the fleet has clients (covers sums that bound), plus an eighth
// for retry bursts and retractions. A curve that outgrows it grows by a
// quarter; a run that covers nobody allocates no curve.
type coverageCurve struct {
	points  []CoveragePoint
	count   int
	reserve int // the points the covered fleets can add without retries
}

// covers adds one fleet's share to the curve's reservation: a point per
// cache and tick, capped at the fleet's clients.
func (c *coverageCurve) covers(caches, ticks, clients int) {
	c.reserve += min(caches*ticks, clients)
}

// add records a coverage change of n clients at instant at.
//
//detlint:hotpath
func (c *coverageCurve) add(at time.Duration, n int) {
	c.count += n
	if k := len(c.points); k > 0 && c.points[k-1].At == at {
		c.points[k-1].Count = c.count
		return
	}
	if len(c.points) == cap(c.points) {
		c.grow()
	}
	c.points = append(c.points, CoveragePoint{At: at, Count: c.count})
}

// grow takes the curve's reserved storage at its first point and adds a
// quarter whenever it is full after that.
func (c *coverageCurve) grow() {
	n := c.reserve + c.reserve/8
	if k := cap(c.points); k > 0 {
		n = k + max(k/4, 1)
	}
	points := make([]CoveragePoint, len(c.points), n)
	copy(points, c.points)
	c.points = points
}

// runCoverage is the run's coverage curves: one over the whole population
// and, under a topology, one per region (nil for flat runs).
type runCoverage struct {
	total   coverageCurve
	regions []coverageCurve
}

// digestState tracks one consensus identity a fleet has been served:
// how many of its clients accepted it (by download kind) and which caches
// served it. The cache set is what resolves a detected fork — the side
// served by fewer independent caches is treated as the adversary's.
type digestState struct {
	fulls, diffs int
	caches       map[int]bool
}

// fleetNode statistically aggregates `clients` Tor clients behind one simnet
// node. Per tick it draws Poisson fetch arrivals for every cache (thinning
// the population-wide arrival process by the cache-selection weights), asks
// each cache for the whole tick's downloads in one aggregated message, and
// counts the clients covered when the batch transfer completes. Refused
// batches (cache has no consensus yet) go into a retry pool.
//
// With Spec.VerifyClients the fleet runs the proposal-239 verifying-client
// path (client.Verifier): every received batch's chain link is checked,
// stale or forked documents are rejected, the serving cache is distrusted
// (its weight drops to zero for all later fetches), and the rejected
// clients re-enter the retry pool aimed at the remaining caches. One
// verifier serves the whole fleet — the aggregation-level analogue of every
// client checking its own chain, at one signature verification per distinct
// document.
//
// With Spec.RaceK >= 1 every batch becomes a race: the batch is requested
// from up to K caches at once, the first response wins, and laggard
// downloads are discarded client-side with their bytes charged to
// Result.RaceWasteBytes — the simulator cannot cancel an in-flight
// transfer, so the duplicate egress is the honestly measured price of
// racing. A wave that produces no response within raceFailover fails
// over to the next K untried caches (weight-descending order), so K=1 is a
// pure failover client and K>=2 is the drand-style optimizing client.
type fleetNode struct {
	spec    *Spec
	pool    *msgPool
	clients int
	caches  []simnet.NodeID
	weights []float64 // normalized, len == len(caches)
	region  topo.Region

	unrequested int // clients that have not yet issued their first fetch
	covered     int
	coverage    *runCoverage // shared by the run's fleets

	pendingFulls, pendingDiffs int // refused fetches awaiting retry
	retryArmed                 bool

	// retryAttempt is the backoff exponent (reset on every successful
	// delivery); retryBursts counts the bursts fired over the run;
	// retryDropped the fetches shed after a Spec.Backoff budget ran out.
	// Only retryBursts moves without a Backoff config.
	retryAttempt int
	retryBursts  int
	retryDropped int64

	failed int64 // client fetch attempts refused with a nack

	// --- verification state (nil/zero unless the run carries chain material) ---

	chainCtx *ChainContext
	verifier *client.Verifier // nil = non-verifying clients

	trust      []bool    // per-cache; false once a cache served bad data
	effWeights []float64 // weights masked by trust; nil until first distrust
	cacheIdx   map[simnet.NodeID]int

	byDigest map[sig.Digest]*digestState

	misled          int   // clients that accepted a non-genuine document
	staleRejections int64 // client downloads rejected as stale/invalid
	extraFetches    int64 // re-fetch attempts verification caused
	forkEvents      []forkEvent

	// --- racing state (nil/zero unless Spec.RaceK >= 1) ---

	races    map[int64]*raceState // live races by id; never iterated
	nextRace int64                // race ids start at 1; 0 on the wire = legacy fetch

	ranking   []int // cache indices, weight-descending, ties by index
	rankDirty bool

	raceWaste    int64 // bytes of laggard downloads discarded after a win
	raceDup      int   // laggard batches discarded
	raceTimeouts int   // waves that expired and failed over

	// Per-fleet scratch: tick and armRetry run once per tick per fleet for
	// the whole fetch window, and without reuse each run allocates one
	// slice per cache — the distribution tier's hot-path garbage.
	counts  []int
	scratch drawScratch

	// The fleet's two timers, bound once in Start: at most one tick and one
	// retry burst are armed at a time, so neither needs a closure per event.
	// nextTick is the tick onTick runs.
	ctx      *simnet.Context
	nextTick int
	onTick   func()
	onRetry  func()
}

// forkEvent is a fleet's evolving record of one detected fork: which digest
// it currently blames and the detection built from that side's cache set.
// Corroboration evidence is revisable — when the fleet re-anchors onto the
// other side of a fork it rewrites the blame — so events are finalized only
// at collect time.
type forkEvent struct {
	det    ForkDetection
	blamed sig.Digest
}

// raceState tracks one racing batch while it is live: the clients it
// carries, which caches have been asked and how many of them refused. A race
// leaves its fleet's map the moment it settles, won or abandoned, so an
// answer or wave timer that finds no race under its id belongs to a settled
// one: a late batch is racing waste, a late nack only counts its refusal.
type raceState struct {
	fulls, diffs int
	sent         int // requests issued across all waves
	nacks        int // refusals received back
	wave         int // guards stale wave timers
	tried        []bool
}

func (f *fleetNode) Start(ctx *simnet.Context) {
	f.ctx = ctx
	f.onTick = f.runTick
	f.onRetry = f.retryFire
	f.unrequested = f.clients
	if f.chainCtx != nil {
		f.cacheIdx = make(map[simnet.NodeID]int, len(f.caches))
		for i, id := range f.caches {
			f.cacheIdx[id] = i
		}
		f.byDigest = make(map[sig.Digest]*digestState)
		if f.spec.VerifyClients {
			// Verifying clients hold the previous consensus, so they know
			// the digest the next epoch must commit to.
			f.verifier = client.NewVerifier(f.chainCtx.Pubs, f.chainCtx.Threshold,
				f.chainCtx.Genuine.Epoch, f.chainCtx.Genuine.Prev)
			f.trust = make([]bool, len(f.caches))
			for i := range f.trust {
				f.trust[i] = true
			}
		}
	}
	f.scheduleTick(ctx, 1)
}

// scheduleTick arms tick k, unless the window has no tick k.
//
//detlint:hotpath
func (f *fleetNode) scheduleTick(ctx *simnet.Context, k int) {
	if k > f.spec.numTicks() {
		return
	}
	at := time.Duration(k) * tick
	if at > f.spec.FetchWindow {
		at = f.spec.FetchWindow
	}
	f.nextTick = k
	ctx.At(at, f.onTick)
}

// runTick issues the armed tick and arms the next.
//
//detlint:hotpath
func (f *fleetNode) runTick() {
	k := f.nextTick
	f.tick(f.ctx, k)
	f.scheduleTick(f.ctx, k+1)
}

// tickSpan returns the (start, end] interval tick k covers. Only the final
// tick can be shortened: its end is clamped to FetchWindow when tick does
// not divide the window.
func (f *fleetNode) tickSpan(k int) (start, end time.Duration) {
	start = time.Duration(k-1) * tick
	end = time.Duration(k) * tick
	if end > f.spec.FetchWindow {
		end = f.spec.FetchWindow
	}
	return start, end
}

// curWeights returns the cache-selection weights in force: the spec's
// weights until a cache has been distrusted, the trust-masked renormalized
// copy afterwards.
func (f *fleetNode) curWeights() []float64 {
	if f.effWeights != nil {
		return f.effWeights
	}
	return f.weights
}

// trustedCaches counts caches the fleet still fetches from.
func (f *fleetNode) trustedCaches() int {
	if f.trust == nil {
		return len(f.caches)
	}
	n := 0
	for _, ok := range f.trust {
		if ok {
			n++
		}
	}
	return n
}

// distrust zeroes a cache's selection weight after it served bad directory
// data — the "fall back to the next cache" half of client-side verification.
func (f *fleetNode) distrust(cacheIdx int) {
	if f.trust == nil || !f.trust[cacheIdx] {
		return
	}
	f.trust[cacheIdx] = false
	f.recomputeWeights()
}

// retrust restores a cache the fleet wrongly condemned: fork blame is
// revised when the corroboration majority flips, and a cache whose only
// offense was serving the side that turned out genuine gets its selection
// weight back.
func (f *fleetNode) retrust(cacheIdx int) {
	if f.trust == nil || f.trust[cacheIdx] {
		return
	}
	f.trust[cacheIdx] = true
	f.recomputeWeights()
}

func (f *fleetNode) recomputeWeights() {
	masked := make([]float64, len(f.weights))
	total := 0.0
	for i, w := range f.weights {
		if f.trust[i] {
			masked[i] = w
			total += w
		}
	}
	if total > 0 {
		for i := range masked {
			masked[i] /= total
		}
	}
	f.effWeights = masked
	f.rankDirty = true
}

// cacheRanking is the failover order races walk through: caches sorted by
// current selection weight, heaviest first, index breaking ties. Cached
// until a distrust/retrust changes the weights.
func (f *fleetNode) cacheRanking() []int {
	if f.ranking != nil && !f.rankDirty {
		return f.ranking
	}
	weights := f.curWeights()
	r := f.ranking[:0]
	for i := range weights {
		r = append(r, i)
	}
	sort.SliceStable(r, func(a, b int) bool { return weights[r[a]] > weights[r[b]] })
	f.ranking = r
	f.rankDirty = false
	return r
}

// tick issues this interval's fetch arrivals: per-cache Poisson draws whose
// rate is proportional to the interval's *actual* length — the clamped
// final tick must not draw at the full-tick rate, which would over-draw
// arrivals in the shortened interval. The final tick then flushes every
// client the Poisson draws left behind, so exactly `clients` first fetches
// are issued within the window.
//
//detlint:hotpath
func (f *fleetNode) tick(ctx *simnet.Context, k int) {
	if f.unrequested == 0 {
		return
	}
	if f.trust != nil && f.trustedCaches() == 0 {
		// Nowhere honest left to fetch from: issuing the tick (or the
		// final-tick flush) would dump the remaining population onto
		// known-bad caches — splitCounts degenerates to bin 0 on an
		// all-zero weight vector — and fabricate rejection traffic.
		return
	}
	start, end := f.tickSpan(k)
	frac := float64(end-start) / float64(f.spec.FetchWindow)
	weights := f.curWeights()
	counts := intScratch(&f.counts, len(f.caches))
	total := 0
	for i, w := range weights {
		counts[i] = poisson(ctx.Rand(), float64(f.clients)*w*frac)
		total += counts[i]
	}
	if total > f.unrequested {
		// The draws exceed the remaining budget: apportion the budget over
		// the caches in proportion to their draws instead of truncating
		// whatever the low-index caches left over — a first-come clamp
		// systematically starves the high-index caches.
		counts = clampDraws(&f.scratch, counts, f.unrequested)
	} else if k == f.spec.numTicks() {
		// Final tick: flush the clients the Poisson draws left behind.
		extra := splitCounts(&f.scratch.splitA, ctx.Rand(), f.unrequested-total, weights)
		for i := range counts {
			counts[i] += extra[i]
		}
	}
	for i, n := range counts {
		if n == 0 {
			continue
		}
		f.unrequested -= n
		diffs := binomial(ctx.Rand(), n, diffFraction)
		if f.spec.RaceK >= 1 {
			f.startRace(ctx, i, n-diffs, diffs)
		} else {
			ctx.Send(f.caches[i], f.pool.fetch(n-diffs, diffs, 0))
		}
	}
}

func (f *fleetNode) Deliver(ctx *simnet.Context, from simnet.NodeID, msg simnet.Message) {
	switch m := msg.(type) {
	case *docBatch:
		if m.race != 0 {
			f.receiveRaceBatch(ctx, from, m)
		} else {
			f.receiveBatch(ctx, from, m)
		}
		f.pool.batches.put(m)

	case *fetchNack:
		if m.race != 0 {
			f.receiveRaceNack(ctx, m)
		} else {
			f.failed += int64(m.fulls + m.diffs)
			f.repool(ctx, m.fulls, m.diffs)
		}
		f.pool.nacks.put(m)
	}
}

// startRace opens a race for one batch and sends its first wave, primary
// (the weighted draw's cache) first.
func (f *fleetNode) startRace(ctx *simnet.Context, primary, fulls, diffs int) {
	if f.races == nil {
		f.races = make(map[int64]*raceState)
	}
	f.nextRace++
	id := f.nextRace
	r := f.pool.race(fulls, diffs, len(f.caches))
	f.races[id] = r
	f.sendWave(ctx, id, r, primary)
}

// sendWave asks up to RaceK untried caches for the race's batch — the
// primary first when one is given, then down the weight ranking — and arms
// the failover timer. With nobody left to ask the race is abandoned into
// the ordinary retry pool.
//
//detlint:hotpath
func (f *fleetNode) sendWave(ctx *simnet.Context, id int64, r *raceState, primary int) {
	weights := f.curWeights()
	sent := 0
	if primary >= 0 && f.ask(ctx, id, r, primary, weights) {
		sent++
	}
	for _, i := range f.cacheRanking() {
		if sent >= f.spec.RaceK {
			break
		}
		if f.ask(ctx, id, r, i, weights) {
			sent++
		}
	}
	if sent == 0 {
		f.abandonRace(ctx, id, r)
		return
	}
	ctx.After(raceFailover, f.pool.timer(f, ctx, id, r.wave).fire)
}

// ask sends cache i the race's fetch unless the race has asked it already or
// it has no selection weight left, and reports whether it did.
//
//detlint:hotpath
func (f *fleetNode) ask(ctx *simnet.Context, id int64, r *raceState, i int, weights []float64) bool {
	if r.tried[i] || weights[i] <= 0 {
		return false
	}
	r.tried[i] = true
	r.sent++
	ctx.Send(f.caches[i], f.pool.fetch(r.fulls, r.diffs, id))
	return true
}

// waveTimer is one armed failover timer: the wave of race id it guards.
// Timers come from the run's msgPool and go back as they fire; fire is run
// bound once, so arming a timer allocates nothing once the pool is warm.
type waveTimer struct {
	f    *fleetNode
	ctx  *simnet.Context
	id   int64
	wave int
	fire func()
}

//detlint:hotpath
func (w *waveTimer) run() {
	f, ctx, id, wave := w.f, w.ctx, w.id, w.wave
	f.pool.timers.put(w)
	f.raceTimeout(ctx, id, wave)
}

// raceTimeout fires when a wave has produced no winner within raceFailover:
// fail over to the next wave of untried caches.
//
//detlint:hotpath
func (f *fleetNode) raceTimeout(ctx *simnet.Context, id int64, wave int) {
	r := f.races[id]
	if r == nil || r.wave != wave {
		return
	}
	r.wave++
	f.raceTimeouts++
	f.sendWave(ctx, id, r, -1)
}

// receiveRaceBatch settles a race on its first response — which then flows
// through the ordinary verification/acceptance path — and writes every
// later response off as racing waste.
func (f *fleetNode) receiveRaceBatch(ctx *simnet.Context, from simnet.NodeID, m *docBatch) {
	r := f.races[m.race]
	if r == nil {
		// A laggard (or a response to an abandoned race): its clients were
		// satisfied — or re-pooled — elsewhere, but the download still
		// crossed the network. That duplicate egress is the price of racing.
		f.raceDup++
		f.raceWaste += m.bytes
		return
	}
	f.finishRace(m.race, r)
	f.receiveBatch(ctx, from, m)
}

// receiveRaceNack records one cache's refusal. A race only gives up when
// every request so far was refused and no untried cache remains; otherwise
// the outstanding requests or the wave timer keep it alive.
func (f *fleetNode) receiveRaceNack(ctx *simnet.Context, m *fetchNack) {
	f.failed += int64(m.fulls + m.diffs)
	r := f.races[m.race]
	if r == nil {
		return
	}
	r.nacks++
	if r.nacks == r.sent && f.nextUntried(r) < 0 {
		f.abandonRace(ctx, m.race, r)
	}
}

// nextUntried is the first cache (by failover ranking) the race has not
// asked yet and could still ask, or -1.
func (f *fleetNode) nextUntried(r *raceState) int {
	weights := f.curWeights()
	for _, i := range f.cacheRanking() {
		if !r.tried[i] && weights[i] > 0 {
			return i
		}
	}
	return -1
}

// abandonRace pools a race's clients into the coalesced retry path — the
// same place legacy refused fetches go — and settles it so any
// still-outstanding response is written off as waste.
func (f *fleetNode) abandonRace(ctx *simnet.Context, id int64, r *raceState) {
	fulls, diffs := r.fulls, r.diffs // finishRace recycles r
	f.finishRace(id, r)
	f.repool(ctx, fulls, diffs)
}

// finishRace settles a race: it leaves the fleet's map and its state goes
// back to the run's pool, so no answer or timer can find it under its id
// again.
//
//detlint:hotpath
func (f *fleetNode) finishRace(id int64, r *raceState) {
	delete(f.races, id)
	f.pool.races.put(r)
}

// receiveBatch counts one completed batch download, running the
// verification path when it is enabled.
func (f *fleetNode) receiveBatch(ctx *simnet.Context, from simnet.NodeID, m *docBatch) {
	n := m.fulls + m.diffs
	if m.link == nil || f.chainCtx == nil {
		// No chain material in this run: every document is the consensus.
		f.accept(ctx, n)
		return
	}
	cacheIdx := f.cacheIdx[from]
	if f.verifier == nil {
		// Non-verifying clients believe whatever they are served. Clients
		// that accepted a stale or forked document think they are done —
		// they never re-fetch — but they do not hold the current genuine
		// consensus, so they count as misled, not covered.
		f.credit(ctx, m.link.Digest, n)
		return
	}
	switch f.verifier.Check(*m.link) {
	case client.VerdictAccept:
		st := f.digestState(m.link.Digest)
		st.fulls += m.fulls
		st.diffs += m.diffs
		st.caches[cacheIdx] = true
		// The fleet believes this document; the simulator knows whether the
		// belief is right. When the adversary's side of a fork won the
		// corroboration vote (compromised caches outnumbering honest ones),
		// verifying clients are still misled — verification narrows the
		// attack, it cannot beat a mirror majority.
		f.credit(ctx, m.link.Digest, n)

	case client.VerdictStale, client.VerdictInvalid:
		// The cache is re-serving an old epoch (or garbage): reject the
		// documents, stop asking this cache, re-fetch from the rest.
		f.staleRejections += int64(n)
		f.reject(ctx, cacheIdx, m.fulls, m.diffs)

	case client.VerdictFork:
		f.handleFork(ctx, cacheIdx, m)
	}
}

// accept counts n clients as covered at the current instant. A successful
// delivery also resets the backoff exponent: the next refusal backs off
// from Base again instead of the tail of the previous outage.
func (f *fleetNode) accept(ctx *simnet.Context, n int) {
	f.covered += n
	f.retryAttempt = 0
	f.addPoint(ctx.Now(), n)
	ctx.Trace(obs.Event{Type: obs.EvCoverage, A: int64(n), B: int64(f.covered)})
}

// addPoint records a coverage change of n clients at instant at on the
// run's curve and on the fleet's region's.
//
//detlint:hotpath
func (f *fleetNode) addPoint(at time.Duration, n int) {
	f.coverage.total.add(at, n)
	if f.coverage.regions != nil {
		f.coverage.regions[f.region].add(at, n)
	}
}

// credit books n clients that now hold the document with digest d: covered
// when it is the genuine consensus, misled when it is anything else.
func (f *fleetNode) credit(ctx *simnet.Context, d sig.Digest, n int) {
	if d == f.chainCtx.Genuine.Digest {
		f.accept(ctx, n)
	} else {
		f.misled += n
	}
}

// repool puts clients whose fetch came to nothing back into the coalesced
// retry pool, by download kind, and arms the burst that re-issues them.
func (f *fleetNode) repool(ctx *simnet.Context, fulls, diffs int) {
	f.pendingFulls += fulls
	f.pendingDiffs += diffs
	f.armRetry(ctx)
}

// reject distrusts the serving cache and queues the batch's clients for a
// re-fetch from the remaining caches.
func (f *fleetNode) reject(ctx *simnet.Context, cacheIdx, fulls, diffs int) {
	f.distrust(cacheIdx)
	f.extraFetches += int64(fulls + diffs)
	f.repool(ctx, fulls, diffs)
}

func (f *fleetNode) digestState(d sig.Digest) *digestState {
	st := f.byDigest[d]
	if st == nil {
		st = &digestState{caches: make(map[int]bool)}
		f.byDigest[d] = st
	}
	return st
}

// handleFork resolves a detected fork: two validly signed successors of the
// same chain head are in play. The signature sets cannot say which side is
// genuine — that is exactly what equivocation means — so the fleet sides
// with the digest served by more independent caches, the aggregate analogue
// of a suspicious client asking additional directories. The minority side's
// caches are distrusted, any coverage its documents produced is retracted,
// and those clients re-fetch from the surviving caches. On a tie the fleet
// only parks the conflicting batch for retry: distrusting on one-vs-one
// evidence would let a single equivocating cache talk the fleet out of an
// honest one.
func (f *fleetNode) handleFork(ctx *simnet.Context, cacheIdx int, m *docBatch) {
	offered := m.link.Digest
	f.digestState(offered).caches[cacheIdx] = true

	accepted, ok := f.verifier.Accepted()
	if !ok {
		// Cannot happen: a fork verdict implies an accepted side. Reject
		// conservatively.
		f.reject(ctx, cacheIdx, m.fulls, m.diffs)
		return
	}
	accSt := f.digestState(accepted.Digest)
	offSt := f.digestState(offered)

	switch {
	case len(offSt.caches) > len(accSt.caches):
		// The newcomer side is corroborated by more caches: the fleet
		// concludes it was anchored on the fork. Re-anchor, retract the
		// coverage the old side produced, refetch those clients, and
		// distrust every cache that served it. Caches condemned earlier
		// for serving the now-winning side are re-trusted, and fork blame
		// pinned on that side is rewritten — corroboration verdicts are
		// revisable, only the proof is permanent. (If the compromised
		// caches are the majority, this is the fleet being talked out of
		// the genuine document — the accounting in credit/retract
		// keeps Covered honest either way.)
		link := *m.link
		if f.verifier.Switch(link) {
			f.retract(ctx, accepted.Digest, accSt)
		}
		//detlint:maporder ok(retrust is a commutative per-cache trust flip; the recomputed weights depend only on the final trust set)
		for c := range offSt.caches {
			f.retrust(c)
		}
		f.dropForkBlame(offered)
		// The triggering batch is on the now-trusted side.
		offSt.fulls += m.fulls
		offSt.diffs += m.diffs
		f.credit(ctx, offered, m.fulls+m.diffs)
		f.recordFork(ctx, accepted.Digest)

	case len(accSt.caches) > len(offSt.caches):
		// The established side stands; the offered document is the fork.
		f.recordFork(ctx, offered)
		f.reject(ctx, cacheIdx, m.fulls, m.diffs)

	default:
		// Tie: no basis to condemn either side yet. Park the batch's
		// clients for a retry — by the time it fires, other caches will
		// have weighed in.
		f.extraFetches += int64(m.fulls + m.diffs)
		f.repool(ctx, m.fulls, m.diffs)
	}
}

// retract undoes the acceptance a fork side produced: its clients discard
// the document and re-enter the retry pool with their original download
// kinds. Genuine-side retractions (the fleet wrongly talked out of the real
// document) dent the coverage curve; fork-side retractions undo misled
// counts.
func (f *fleetNode) retract(ctx *simnet.Context, d sig.Digest, st *digestState) {
	n := st.fulls + st.diffs
	defer func() {
		//detlint:maporder ok(distrust is a commutative per-cache trust flip; the recomputed weights depend only on the final trust set)
		for c := range st.caches {
			f.distrust(c)
		}
	}()
	if n == 0 {
		return
	}
	if d == f.chainCtx.Genuine.Digest {
		f.covered -= n
		f.addPoint(ctx.Now(), -n)
	} else {
		f.misled -= n
	}
	f.extraFetches += int64(n)
	f.repool(ctx, st.fulls, st.diffs)
	st.fulls, st.diffs = 0, 0
}

// recordFork notes (or refreshes) one fork detection against the blamed
// digest: the proof covering it and the caches seen serving it so far. A
// later sighting of another cache on the same side updates the existing
// event's cache list instead of minting a duplicate, so the final detection
// names every compromised cache the fleet caught, not just the first.
func (f *fleetNode) recordFork(ctx *simnet.Context, blamed sig.Digest) {
	var proof *chain.ForkProof
	for _, p := range f.verifier.Proofs() {
		if p.A.Digest == blamed || p.B.Digest == blamed {
			proof = p
		}
	}
	if proof == nil {
		return
	}
	var caches []int
	for c := range f.digestState(blamed).caches {
		caches = append(caches, c)
	}
	sort.Ints(caches)
	for i := range f.forkEvents {
		if f.forkEvents[i].blamed == blamed {
			f.forkEvents[i].det.Caches = caches
			return
		}
	}
	f.forkEvents = append(f.forkEvents, forkEvent{
		det:    ForkDetection{At: ctx.Now(), Caches: caches, Proof: proof},
		blamed: blamed,
	})
}

// dropForkBlame deletes detections pinned on a digest the fleet has since
// re-anchored onto — the blame was wrong, and keeping it would report an
// honest cache as compromised.
func (f *fleetNode) dropForkBlame(d sig.Digest) {
	kept := f.forkEvents[:0]
	for _, ev := range f.forkEvents {
		if ev.blamed != d {
			kept = append(kept, ev)
		}
	}
	f.forkEvents = kept
}

// armRetry coalesces refused fetches into one pending retry burst. Without
// a Spec.Backoff the burst fires after the fixed retryDelay — the legacy
// schedule, kept byte for byte: a fleet re-arms when the first refusal
// after its last burst comes back, so its bursts sit retryDelay plus a
// round trip apart, and fleets refused together keep bursting together,
// landing on the flooded tier as one synchronized spike. With a Backoff the
// delay grows exponentially per consecutive burst, capped, and jittered
// from the run's deterministic RNG — fleets desynchronize, and an optional
// budget sheds the pool once retries stop paying.
//
//detlint:hotpath
func (f *fleetNode) armRetry(ctx *simnet.Context) {
	if f.retryArmed {
		return
	}
	delay := retryDelay
	if b := f.spec.Backoff; b != nil {
		if b.Budget > 0 && f.retryBursts >= b.Budget {
			// Budget spent: shed the pool instead of hammering a tier that
			// has refused this fleet Budget bursts in a row. The dropped
			// clients stay uncovered and are accounted, not retried.
			f.retryDropped += int64(f.pendingFulls + f.pendingDiffs)
			f.pendingFulls, f.pendingDiffs = 0, 0
			return
		}
		delay = b.Delay(f.retryAttempt, ctx.Rand())
		f.retryAttempt++
	}
	f.retryArmed = true
	f.retryBursts++
	ctx.After(delay, f.onRetry)
}

// retryFire re-issues the coalesced pool across the caches by the current
// selection weights — the body of the retry burst, shared by the legacy
// fixed-delay and the backoff schedules.
//
//detlint:hotpath
func (f *fleetNode) retryFire() {
	ctx := f.ctx
	f.retryArmed = false
	fulls, diffs := f.pendingFulls, f.pendingDiffs
	f.pendingFulls, f.pendingDiffs = 0, 0
	if fulls+diffs == 0 {
		return
	}
	ctx.Trace(obs.Event{Type: obs.EvRetry, A: int64(fulls + diffs), B: int64(f.retryAttempt)})
	if f.trust != nil && f.trustedCaches() == 0 {
		// Every cache served bad data: there is nowhere left to fetch
		// from, so these clients stay uncovered. Dropping them (instead
		// of hammering known-bad caches) keeps the coverage metric
		// honest: a fully compromised tier yields zero verified
		// coverage, not a retry storm.
		return
	}
	weights := f.curWeights()
	fullSplit := splitCounts(&f.scratch.splitA, ctx.Rand(), fulls, weights)
	diffSplit := splitCounts(&f.scratch.splitB, ctx.Rand(), diffs, weights)
	for i := range f.caches {
		if fullSplit[i]+diffSplit[i] == 0 {
			continue
		}
		if f.spec.RaceK >= 1 {
			f.startRace(ctx, i, fullSplit[i], diffSplit[i])
		} else {
			ctx.Send(f.caches[i], f.pool.fetch(fullSplit[i], diffSplit[i], 0))
		}
	}
}
