package simnet

import (
	"fmt"
	"math/rand"
	"time"

	"partialtor/internal/obs"
	"partialtor/internal/topo"
)

// Config parameterizes a Network.
type Config struct {
	// Topology, if non-nil, derives pair latencies from node placement: the
	// one-way delay between two nodes is the BaseLatency of their region
	// pair plus deterministic per-pair jitter in [0, Jitter) hashed from the
	// seed (the same construction as the flat sample, so no RNG draw order
	// changes). Register each node's region with AddNodeIn; plain AddNode
	// places it in region 0. Nil selects the flat model: every pair's delay
	// is sampled uniformly in [20ms, 150ms).
	Topology topo.Topology
	// Overhead is added to every message's size, modelling framing/headers.
	Overhead int64
	// Seed drives all randomness (latency sampling, protocol RNG).
	Seed int64
}

// Stats aggregates transport-level accounting.
type Stats struct {
	MessagesSent      int64
	MessagesDelivered int64
	MessagesDropped   int64
	BytesSent         int64 // includes per-message overhead
	BytesDelivered    int64
	KindBytes         map[string]int64
	KindCount         map[string]int64
}

// LogEntry is one line of a node's protocol log.
type LogEntry struct {
	At    time.Duration
	Level string
	Text  string
}

type node struct {
	id       NodeID
	handler  Handler
	up, down *pipe
	ctx      *Context
	log      []LogEntry
	region   topo.Region
	sent     int64
	received int64

	// Meter cursors for the observability sampler: the cumulative moved-bits
	// reading at the previous sample, per pipe direction.
	upMovedPrev   float64
	downMovedPrev float64
}

// Network wires nodes, pipes and the scheduler together.
type Network struct {
	sched   *Scheduler
	cfg     Config
	nodes   []*node
	rng     *rand.Rand
	drop    func(from, to NodeID, m Message) bool
	delay   func(from, to NodeID, m Message) time.Duration
	parked  func(m Message) // SetHandBack's hook, nil until one is installed
	stats   Stats
	started bool
	ran     bool

	// obs is the typed event tracer (nil = tracing disabled). Every emit
	// site guards on the nil check, so the disabled path costs one branch.
	obs obs.Tracer
	// obsID numbers traced transfers so a start/end pair can be correlated;
	// it only advances while obs is installed.
	obsID    int64
	sampleFn func() // bound once; the sampler reschedules without allocating

	// freeTransit is the pool of transit records: one value carries a
	// message across its three legs (uplink, latency, downlink), and is
	// recycled at delivery — the send path allocates only to grow the pool.
	freeTransit *transit

	// Per-kind accounting is interned: Kind() strings map to dense indices
	// once, and the per-send hot path does two array increments instead of
	// two string-keyed map updates. Stats() rebuilds the public maps.
	kindIdx   map[string]int
	kindNames []string
	kindBytes []int64
	kindCount []int64
}

// New creates a network with the given configuration.
func New(cfg Config) *Network {
	n := &Network{
		sched:   NewScheduler(),
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		kindIdx: make(map[string]int),
	}
	return n
}

// pairHash is the cheap deterministic hash of (seed, lo, hi) behind every
// per-pair latency sample — the flat model and the topology jitter draw from
// the same construction, so neither touches the RNG stream.
func pairHash(seed int64, lo, hi NodeID) uint64 {
	h := uint64(seed)*0x9e3779b97f4a7c15 + uint64(lo)*0xbf58476d1ce4e5b9 + uint64(hi)*0x94d049bb133111eb
	h ^= h >> 31
	h *= 0xd6e8feb86659fd93
	h ^= h >> 29
	return h
}

// pairLatency resolves one pair's one-way propagation delay,
// deterministically from the seed and symmetric in the pair. Under a nil
// topology it is the flat sample, uniform in [20ms, 150ms) — approximately
// the geographic spread of the nine Tor directory authorities; otherwise the
// topology's region-pair floor plus per-pair jitter. The two formulas are
// kept apart on purpose: a one-region topology spanning the same interval
// rounds differently on about a tenth of the hash buckets.
func (n *Network) pairLatency(from, to NodeID) time.Duration {
	if from == to {
		return 0
	}
	lo, hi := from, to
	if lo > hi {
		lo, hi = hi, lo
	}
	bucket := float64(pairHash(n.cfg.Seed, lo, hi) % 1000)
	if n.cfg.Topology == nil {
		ms := 20 + float64(bucket/1000*130)
		return time.Duration(ms * float64(time.Millisecond))
	}
	ra, rb := n.nodes[from].region, n.nodes[to].region
	base := n.cfg.Topology.BaseLatency(ra, rb)
	span := n.cfg.Topology.Jitter(ra, rb)
	if span <= 0 {
		return base
	}
	return base + time.Duration(float64(span)*bucket/1000)
}

// Now returns the current virtual time.
func (n *Network) Now() time.Duration { return n.sched.Now() }

// N returns the number of nodes.
func (n *Network) N() int { return len(n.nodes) }

// Stats returns a copy of the transport statistics. The per-kind maps are
// rebuilt lazily from the interned counters, so calling Stats in a loop is
// the only way to pay for them.
func (n *Network) Stats() Stats {
	s := n.stats
	s.KindBytes = make(map[string]int64, len(n.kindNames))
	s.KindCount = make(map[string]int64, len(n.kindNames))
	for i, name := range n.kindNames {
		s.KindBytes[name] = n.kindBytes[i]
		s.KindCount[name] = n.kindCount[i]
	}
	return s
}

// NodeBytesSent returns the bytes (incl. overhead) node id has sent.
func (n *Network) NodeBytesSent(id NodeID) int64 { return n.nodes[id].sent }

// NodeBytesReceived returns the bytes node id has received.
func (n *Network) NodeBytesReceived(id NodeID) int64 { return n.nodes[id].received }

// AddNode registers a handler with its uplink/downlink capacity profiles and
// returns its id. All nodes must be added before Start. The node lives in
// region 0; runners placing nodes in a topology use AddNodeIn.
func (n *Network) AddNode(h Handler, up, down *Profile) NodeID {
	return n.AddNodeIn(h, up, down, 0)
}

// AddNodeIn is AddNode with explicit placement: the node lives in region r
// of Config.Topology, which determines its pair latencies. The region is
// ignored (but remembered) under a nil Topology.
func (n *Network) AddNodeIn(h Handler, up, down *Profile, r topo.Region) NodeID {
	if n.started {
		panic("simnet: AddNode after Start")
	}
	id := NodeID(len(n.nodes))
	nd := &node{
		id:      id,
		handler: h,
		up:      newPipe(n.sched, up),
		down:    newPipe(n.sched, down),
		region:  r,
	}
	nd.ctx = &Context{net: n, id: id}
	nd.up.metered = n.obs != nil
	nd.down.metered = n.obs != nil
	n.nodes = append(n.nodes, nd)
	return id
}

// SetDropFilter installs a predicate that silently drops matching messages.
// It is for adversarial unit tests alone and no runner installs one: the
// network model is partial synchrony, where a message is delayed arbitrarily
// long and never lost, so every run keeps Stats.MessagesDropped at 0.
func (n *Network) SetDropFilter(f func(from, to NodeID, m Message) bool) { n.drop = f }

// SetDelayFilter installs extra per-message one-way delay (e.g. to model an
// adversarial scheduler before GST).
func (n *Network) SetDelayFilter(f func(from, to NodeID, m Message) time.Duration) { n.delay = f }

// SetHandBack installs f to receive every message the network parks: one
// that can never leave its sender's dead uplink, or cross its receiver's dead
// downlink, before the run's end ("Run end" in the package doc). f gets each
// such message once, at the instant it parks, and never one it delivers, so
// a sender can take the message back into its pool. f must not send or
// schedule anything: a parked message changes no other part of the run.
func (n *Network) SetHandBack(f func(m Message)) { n.parked = f }

// SetObs installs the typed event tracer (nil disables tracing) and turns
// on the per-pipe byte meters it samples. Install before Start: the
// sampler and the capacity-schedule events are wired at network start.
//
// Tracing is observation only — the tracer must never mutate simulator
// state — so a run's outcome is bit-identical with and without it.
func (n *Network) SetObs(t obs.Tracer) {
	n.obs = t
	for _, nd := range n.nodes {
		nd.up.metered = t != nil
		nd.down.metered = t != nil
	}
}

// Start invokes every handler's Start at time zero.
func (n *Network) Start() {
	if n.started {
		panic("simnet: double Start")
	}
	n.started = true
	for _, nd := range n.nodes {
		nd := nd
		n.sched.At(0, func() { nd.handler.Start(nd.ctx) })
	}
	if n.obs != nil {
		// Profiles are precompiled (attack throttles included), so the full
		// capacity schedule is known now: emit it once instead of hooking
		// the fluid model's segment walk.
		for _, nd := range n.nodes {
			id := int(nd.id)
			nd.up.prof.Each(func(at time.Duration, rate float64) {
				//detlint:tracerguard ok(Each calls back synchronously inside the enclosing n.obs != nil guard)
				n.obs.Event(obs.Event{Type: obs.EvCapChange, At: at, Node: id, F: rate, Label: "up"})
			})
			nd.down.prof.Each(func(at time.Duration, rate float64) {
				//detlint:tracerguard ok(Each calls back synchronously inside the enclosing n.obs != nil guard)
				n.obs.Event(obs.Event{Type: obs.EvCapChange, At: at, Node: id, F: rate, Label: "down"})
			})
		}
		n.sampleFn = n.sample
		n.sched.At(sampleEvery, n.sampleFn)
	}
}

// sampleEvery is the cadence of the per-pipe metrics samples a traced run
// emits.
const sampleEvery = time.Second

// sample emits one EvPipeSample per pipe direction per node, then
// reschedules itself — unless the event queue has drained, so a finished
// run is not kept alive just to keep sampling. The queue holds no no-op (a
// pipe queues only its live wakeup), so it drains once nothing is left to
// run; one that dropped an event past the run's end would have held it to
// the end, so it never drains.
// Sampling only reads pipe state; queue depths are exact, moved-bits deltas
// are accounted up to the pipe's last activity (the fluid model advances
// lazily, and forcing an advance here would perturb its floating-point step
// boundaries).
func (n *Network) sample() {
	now := n.sched.Now()
	interval := seconds(sampleEvery)
	for _, nd := range n.nodes {
		n.samplePipe(nd, nd.up, &nd.upMovedPrev, "up", now, interval)
		n.samplePipe(nd, nd.down, &nd.downMovedPrev, "down", now, interval)
	}
	if n.sched.Pending() == 0 && !n.sched.beyond {
		return
	}
	n.sched.At(addDur(now, sampleEvery), n.sampleFn)
}

func (n *Network) samplePipe(nd *node, p *pipe, prev *float64, dir string, now time.Duration, interval float64) {
	if n.obs == nil {
		return
	}
	moved := p.moved - *prev
	*prev = p.moved
	util := 0.0
	if rate := p.prof.RateAt(now); rate > 0 {
		util = moved / (rate * interval)
	}
	n.obs.Event(obs.Event{
		Type: obs.EvPipeSample, At: now, Node: int(nd.id),
		A: int64(p.queued()), B: int64(moved), F: util, Label: dir,
	})
}

// Run starts the network (if needed), executes events until the limit and
// returns the number it executed. A network runs once, and a second call
// panics: the scheduler holds the limit as the run's end from before the
// first event ("Run end" in the package doc).
func (n *Network) Run(limit time.Duration) uint64 {
	if n.ran {
		panic("simnet: Run called twice; a network runs once")
	}
	n.ran = true
	n.sched.end = limit
	if !n.started {
		n.Start()
	}
	return n.sched.RunUntil(limit)
}

// send implements the three-leg transport: uplink, latency, downlink.
//
//detlint:hotpath
func (n *Network) send(from, to NodeID, m Message) {
	if from == to {
		panic("simnet: self-send; handlers keep local state directly")
	}
	if int(to) >= len(n.nodes) || to < 0 {
		//detlint:hotpath ok(cold panic path: formatting only runs on a caller bug)
		panic(fmt.Sprintf("simnet: send to unknown node %d", to))
	}
	size := m.Size() + n.cfg.Overhead
	n.stats.MessagesSent++
	n.stats.BytesSent += size
	ki, ok := n.kindIdx[m.Kind()]
	if !ok {
		ki = len(n.kindNames)
		n.kindIdx[m.Kind()] = ki
		n.kindNames = append(n.kindNames, m.Kind())
		n.kindBytes = append(n.kindBytes, 0)
		n.kindCount = append(n.kindCount, 0)
	}
	n.kindBytes[ki] += size
	n.kindCount[ki]++
	n.nodes[from].sent += size
	if n.drop != nil && n.drop(from, to, m) {
		n.stats.MessagesDropped++
		return
	}
	lat := n.pairLatency(from, to)
	if n.delay != nil {
		lat += n.delay(from, to, m)
	}
	t := n.allocTransit()
	t.from, t.to, t.msg = int32(from), int32(to), m
	t.size, t.lat = size, lat
	if n.obs != nil {
		n.obsID++
		t.id = n.obsID
		n.obs.Event(obs.Event{
			Type: obs.EvTransferStart, At: n.sched.Now(), Node: int(from), Peer: int(to),
			A: t.id, B: size, Label: m.Kind(),
		})
	}
	if !n.nodes[from].up.enqueue(size, t) {
		n.park(t) // it never leaves before the end
	}
}

// transit carries one message across the transport's three legs — uplink
// contention, propagation latency, downlink contention — as a single pooled
// value advanced through the scheduler's completion path. It replaces the
// three per-send closures that were the transport's last per-message
// garbage; its event pushes mirror the closure chain exactly, so the
// executed event sequence (and with it every golden digest) is unchanged.
// It fits the 80-byte size class (TestTransitShape): from and to are int32,
// so seq costs no allocation.
type transit struct {
	net  *Network
	msg  Message
	size int64
	lat  time.Duration
	id   int64  // obs transfer id; 0 while tracing is disabled
	seq  uint64 // scheduling sequence number while in the same-instant lane
	// next links the pool's free list while the transit is pooled, and the
	// scheduler's same-instant lane while it waits there; an in-flight
	// transit is in neither, so one field serves both.
	next     *transit
	from, to int32
	stage    uint8
}

//detlint:hotpath
func (t *transit) complete(at time.Duration) {
	switch t.stage {
	case 0: // uplink drained: propagate
		t.stage = 1
		t.net.sched.push(addDur(at, t.lat), t)
	case 1: // arrived: contend for the receiver's downlink
		t.stage = 2
		if !t.net.nodes[t.to].down.enqueue(t.size, t) {
			t.net.park(t) // it never arrives before the end
		}
	default: // downlink drained: deliver
		n := t.net
		from, to, m, size, id := NodeID(t.from), t.to, t.msg, t.size, t.id
		n.releaseTransit(t)
		n.stats.MessagesDelivered++
		n.stats.BytesDelivered += size
		dst := n.nodes[to]
		dst.received += size
		if n.obs != nil {
			n.obs.Event(obs.Event{
				Type: obs.EvTransferEnd, At: at, Node: int(from), Peer: int(to),
				A: id, B: size, Label: m.Kind(),
			})
		}
		dst.handler.Deliver(dst.ctx, from, m)
	}
}

//detlint:hotpath
func (n *Network) allocTransit() *transit {
	if t := n.freeTransit; t != nil {
		n.freeTransit = t.next
		t.next = nil
		return t
	}
	//detlint:hotpath ok(a pool miss: the pool grows to the most transits ever in flight, then recycles them)
	return &transit{net: n}
}

// releaseTransit returns a delivered transit to the pool. The message
// reference is dropped so the pool never pins payloads; the caller copies
// every field it still needs before releasing.
//
//detlint:hotpath
func (n *Network) releaseTransit(t *transit) {
	t.msg = nil
	t.id = 0
	t.stage = 0
	t.next = n.freeTransit
	n.freeTransit = t
}

// park recycles the transit of a message a pipe parked and hands the message
// back through SetHandBack's hook.
//
//detlint:hotpath
func (n *Network) park(t *transit) {
	m := t.msg
	n.releaseTransit(t)
	if n.parked != nil {
		n.parked(m)
	}
}

// NodeLog returns the protocol log of a node.
func (n *Network) NodeLog(id NodeID) []LogEntry { return n.nodes[id].log }

// Context is the interface a node's protocol logic uses to interact with
// the simulated world.
type Context struct {
	net *Network
	id  NodeID
}

// N returns the number of nodes in the network.
func (c *Context) N() int { return c.net.N() }

// Now returns the current virtual time.
func (c *Context) Now() time.Duration { return c.net.sched.Now() }

// Send transmits a message to another node.
func (c *Context) Send(to NodeID, m Message) { c.net.send(c.id, to, m) }

// Broadcast transmits a message to every other node.
func (c *Context) Broadcast(m Message) {
	for id := range c.net.nodes {
		if NodeID(id) != c.id {
			c.net.send(c.id, NodeID(id), m)
		}
	}
}

// After schedules fn after d on the virtual clock.
func (c *Context) After(d time.Duration, fn func()) { c.net.sched.After(d, fn) }

// At schedules fn at absolute virtual time t (events in the past are a bug).
func (c *Context) At(t time.Duration, fn func()) { c.net.sched.At(t, fn) }

// Rand returns the deterministic network RNG.
func (c *Context) Rand() *rand.Rand { return c.net.rng }

// Trace emits a typed observability event on behalf of this node. The
// event's At and Node fields are stamped here; the caller fills the rest.
// With tracing disabled (the default) the call is one branch.
func (c *Context) Trace(ev obs.Event) {
	if c.net.obs == nil {
		return
	}
	ev.At = c.net.sched.Now()
	ev.Node = int(c.id)
	c.net.obs.Event(ev)
}

// Logf appends a line to the node's protocol log.
func (c *Context) Logf(level, format string, args ...any) {
	nd := c.net.nodes[c.id]
	nd.log = append(nd.log, LogEntry{At: c.Now(), Level: level, Text: fmt.Sprintf(format, args...)})
}
