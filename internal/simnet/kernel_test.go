package simnet

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"partialtor/internal/obs"
)

// This file is the network half of the reference kernel: refNet wires
// reference_test.go's scheduler and links into nodes, and a message crosses
// the uplink, the latency and the downlink as three events. There is no
// parking and no run end. Generated networks and hand-built ones run through
// it and through a Network, final and stepped, and the two must agree.

// netScenario is a small network: each node's uplink and downlink profile
// (cloned per run, as a Profile carries a cursor) and the messages node 0
// schedules at its start.
type netScenario struct {
	seed  int64 // drives the pair latencies
	limit time.Duration
	links [][2]*Profile
	sends []netSend
}

type netSend struct {
	at       time.Duration
	from, to NodeID
	bytes    int64
	chained  bool // queued when the send before it fires, not at the start
}

// netKey names a delivery: a message's tag is its index plus one, and a
// node delivered a tag divisible by 4 replies with 100 bytes tagged its
// negative.
type netKey struct {
	tag int
	to  NodeID
}

func (k netKey) String() string { return fmt.Sprintf("message %d to node %d", k.tag, k.to) }

// script plays the scenario through a network's timer and send.
func (sc *netScenario) script(at func(time.Duration, func()), send func(from, to NodeID, bytes int64, tag int)) {
	var fire func(i int)
	fire = func(i int) {
		send(sc.sends[i].from, sc.sends[i].to, sc.sends[i].bytes, i+1)
		if i+1 < len(sc.sends) && sc.sends[i+1].chained {
			at(sc.sends[i+1].at, func() { fire(i + 1) })
		}
	}
	for i, m := range sc.sends {
		if !m.chained {
			at(m.at, func() { fire(i) })
		}
	}
}

func (sc *netScenario) delivered(r *netRun, at time.Duration, from, to NodeID, tag int, send func(from, to NodeID, bytes int64, tag int)) {
	r.deliveries = append(r.deliveries, refDone[netKey]{netKey{tag, to}, at})
	if tag > 0 && tag%4 == 0 {
		send(to, from, 100, -tag)
	}
}

// netRun is what a run shows: its deliveries in order, the sampler's
// readings, the events executed by the limit and the clock there; and of a
// kernel run what its shortcuts did, the tags of the messages it handed back
// and the first broken invariant.
type netRun struct {
	deliveries []refDone[netKey]
	samples    []netSample
	executed   uint64
	clock      time.Duration

	parked                          int
	handedBack                      []int
	beyond, later, earlier, dropped bool
	laneSampled, laneAfterHeap      bool
	broken                          error
}

// netSample is one sampler instant: whether the queue looked drained (the
// sampler's stop condition), the events it holds due by the limit, the
// messages adrift (on a latency leg due past the limit, which a final run
// drops), and per link (node 0 up, node 0 down, node 1 up, …) the transfers
// queued and the bits metered.
type netSample struct {
	drained bool
	pending int
	adrift  int
	queued  []int
	moved   []float64
}

type refNet struct {
	s      refSched
	sc     *netScenario
	r      *netRun
	links  []*refLink
	lat    func(from, to NodeID) time.Duration
	adrift int // the latency legs queued due past the limit
}

func (n *refNet) send(from, to NodeID, bytes int64, tag int) {
	n.links[2*from].enqueue(bytes, func() {
		if n.s.now+n.lat(from, to) > n.sc.limit {
			n.adrift++
		}
		n.s.at(n.s.now+n.lat(from, to), func() {
			n.links[2*to+1].enqueue(bytes, func() { n.sc.delivered(n.r, n.s.now, from, to, tag, n.send) })
		})
	})
}

func (n *refNet) sample() {
	due := sort.Search(len(n.s.queue), func(i int) bool { return n.s.queue[i].at > n.sc.limit })
	smp := netSample{drained: len(n.s.queue) == 0, pending: due, adrift: n.adrift}
	for _, l := range n.links {
		smp.queued = append(smp.queued, len(l.flights))
		smp.moved = append(smp.moved, l.moved)
	}
	n.r.samples = append(n.r.samples, smp)
	if !smp.drained {
		n.s.at(n.s.now+sampleEvery, n.sample)
	}
}

// reference runs the scenario to its limit, and refSlack past it for the
// deliveries alone. The pair latencies are an input, not the kernel: they
// come from the flat model's formula.
func (sc *netScenario) reference() netRun {
	var r netRun
	n := &refNet{sc: sc, r: &r, lat: (&Network{cfg: Config{Seed: sc.seed}}).pairLatency}
	for _, l := range sc.links {
		n.links = append(n.links, &refLink{s: &n.s, prof: l[0].Clone()}, &refLink{s: &n.s, prof: l[1].Clone()})
	}
	n.s.at(0, func() { sc.script(n.s.at, n.send) })
	for range len(sc.links) - 1 {
		n.s.at(0, func() {})
	}
	n.s.at(sampleEvery, n.sample)
	n.s.run(sc.limit)
	r.executed, r.clock = n.s.executed, n.s.now
	n.s.run(sc.limit + refSlack)
	return r
}

// kernelProbe is every node's handler and the tracer of a kernel run.
type kernelProbe struct {
	sc  *netScenario
	net *Network
	r   *netRun

	// The scheduler's sequence number at the last inspection (last) and at
	// the last one before the current instant (floor), which is at: a
	// transit in the lane numbered floor or lower was queued before now.
	at          time.Duration
	floor, last uint64
}

// Start plays the script on node 0. A timer is a queue event: one running
// while the lane holds transits is due now with an earlier sequence number
// than theirs, and they run after it.
func (k *kernelProbe) Start(ctx *Context) {
	if ctx.id == 0 {
		k.sc.script(func(t time.Duration, fire func()) {
			ctx.At(t, func() {
				k.r.laneAfterHeap = k.r.laneAfterHeap || k.net.sched.lane != nil
				fire()
			})
		}, k.send)
	}
}

// send sends a message and notes what the enqueue did to the uplink's
// queued wakeup: nothing pops in between, so one that is gone or renumbered
// was dropped or moved.
func (k *kernelProbe) send(from, to NodeID, bytes int64, tag int) {
	up := k.net.nodes[from].up
	wakeup := func() (ev event) {
		if up.slot >= 0 {
			ev = k.net.sched.queue[up.slot]
		}
		return ev
	}
	before := wakeup()
	k.net.send(from, to, testMsg{size: bytes, kind: "t", tag: tag})
	if after := wakeup(); before.c != nil && after.seq != before.seq {
		k.r.dropped = k.r.dropped || after.c == nil
		k.r.later = k.r.later || after.at > before.at
		k.r.earlier = k.r.earlier || (after.c != nil && after.at < before.at)
	}
}

func (k *kernelProbe) Deliver(ctx *Context, from NodeID, m Message) {
	k.inspect()
	k.sc.delivered(k.r, ctx.Now(), from, ctx.id, m.(testMsg).tag, k.send)
}

func (k *kernelProbe) Event(ev obs.Event) {
	if ev.Type != obs.EvPipeSample || ev.Node != 0 || ev.Label != "up" {
		return
	}
	s := k.net.sched
	smp := netSample{drained: s.Pending() == 0 && !s.beyond}
	smp.adrift = int(k.net.stats.MessagesSent - k.net.stats.MessagesDelivered)
	for _, nd := range k.net.nodes {
		smp.queued = append(smp.queued, nd.up.queued(), nd.down.queued())
		smp.moved = append(smp.moved, nd.up.moved, nd.down.moved)
		smp.adrift -= nd.up.queued() + nd.down.queued()
	}
	for _, ev := range s.queue {
		if ev.at <= k.sc.limit {
			smp.pending++
			if _, ok := ev.c.(*transit); ok {
				smp.adrift--
			}
		}
	}
	for tr := s.lane; tr != nil; tr = tr.next { // due now, so by the limit
		smp.pending++
		smp.adrift--
		k.r.laneSampled = true
	}
	k.r.samples = append(k.r.samples, smp)
	k.inspect()
}

// inspect notes the first broken invariant of the queue and the lane: an
// event past a final run's end, or a pipe's wakeup at a slot other than the
// one its pipe records, so each pipe has one queued wakeup at most and its
// slot points at it; a lane past the end, one whose sequence numbers do not
// rise from a number given out at this instant (its transits are all due
// now), or one that does not end at its tail.
func (k *kernelProbe) inspect() {
	s := k.net.sched
	for i, ev := range s.queue {
		if p, ok := ev.c.(*pipe); ev.at > s.end || (ok && p.slot != i) {
			k.r.broken = cmp.Or(k.r.broken, fmt.Errorf("at %v, the event at slot %d, due %v, is past the end or not at its pipe's slot", s.now, i, ev.at))
		}
	}
	if s.now != k.at {
		k.at, k.floor = s.now, k.last
	}
	k.last = s.seq
	prev, tail := k.floor, (*transit)(nil)
	for tr := s.lane; tr != nil; tr = tr.next {
		if tr.seq <= prev || s.now > s.end {
			k.r.broken = cmp.Or(k.r.broken, fmt.Errorf("at %v, a lane transit numbered %d follows %d (the last number given out before now is %d) or is past the end", s.now, tr.seq, prev, k.floor))
		}
		prev, tail = tr.seq, tr
	}
	if tail != s.laneTail {
		k.r.broken = cmp.Or(k.r.broken, fmt.Errorf("at %v, the lane does not end at its tail", s.now))
	}
}

// kernel plays the scenario through a Network: final through Network.Run,
// or stepped through RunUntil every 5 s on a scheduler with no end.
func (sc *netScenario) kernel(final bool) netRun {
	var r netRun
	net := New(Config{Seed: sc.seed})
	k := &kernelProbe{sc: sc, net: net, r: &r}
	for _, l := range sc.links {
		net.AddNode(k, l[0].Clone(), l[1].Clone())
	}
	net.SetObs(k)
	net.SetHandBack(func(m Message) { r.handedBack = append(r.handedBack, m.(testMsg).tag) })
	if final {
		r.executed = net.Run(sc.limit)
	} else {
		net.Start()
		for limit := time.Duration(0); limit < sc.limit; {
			limit = min(limit+5*time.Second, sc.limit)
			r.executed += net.sched.RunUntil(limit)
		}
	}
	r.clock, r.beyond = net.Now(), net.sched.beyond
	for _, nd := range net.nodes {
		r.parked += nd.up.parked + nd.down.parked
	}
	return r
}

// diff reports how a kernel run differs from the reference run: the
// deliveries as sameCompletions demands, the events executed and the clock,
// and at each sample the drained flag, the events due, the messages adrift
// and every link's queue; each link's metered bits must be within the pipe
// test's bound, counting every message a completion.
func (sc *netScenario) diff(got, want netRun) error {
	if got.broken != nil {
		return got.broken
	}
	if err := got.handBacks(); err != nil {
		return err
	}
	if err := sameCompletions(got.deliveries, want.deliveries, sc.limit); err != nil {
		return err
	}
	if got.executed != want.executed || got.clock != want.clock {
		return fmt.Errorf("executed %d events ending at %v; the reference %d ending at %v", got.executed, got.clock, want.executed, want.clock)
	}
	if len(got.samples) != len(want.samples) {
		return fmt.Errorf("the sampler ran %d times; with the reference %d", len(got.samples), len(want.samples))
	}
	for i, g := range got.samples {
		w := want.samples[i]
		if g.drained != w.drained || g.pending != w.pending || !slices.Equal(g.queued, w.queued) {
			return fmt.Errorf("sample %d: drained %v, %d events due by the limit, links queuing %v; the reference drained %v, %d, %v",
				i+1, g.drained, g.pending, g.queued, w.drained, w.pending, w.queued)
		}
		if g.adrift != w.adrift {
			return fmt.Errorf("sample %d: %d messages sent are not delivered, held, riding an event due by the limit or parked; the reference has %d on a latency leg past the limit", i+1, g.adrift, w.adrift)
		}
		for j, moved := range g.moved {
			peak := 0.0
			sc.links[j/2][j%2].Each(func(_ time.Duration, rate float64) { peak = max(peak, rate) })
			if math.Abs(moved-w.moved[j]) > 1e-9*w.moved[j]+float64(2*len(sc.sends))*(epsBits+float64(peak*1e-9)) {
				return fmt.Errorf("sample %d: link %d metered %.0f bits; the reference %.0f", i+1, j, moved, w.moved[j])
			}
		}
	}
	return nil
}

// handBacks reports a kernel run that did not hand back exactly the messages
// its pipes parked: as many as they counted, each once, and none delivered.
// A tag names one message (netKey).
func (r *netRun) handBacks() error {
	if len(r.handedBack) != r.parked {
		return fmt.Errorf("handed back %d messages; its pipes parked %d", len(r.handedBack), r.parked)
	}
	back := make(map[int]bool, len(r.handedBack))
	for _, tag := range r.handedBack {
		if back[tag] {
			return fmt.Errorf("handed back message %d twice", tag)
		}
		back[tag] = true
	}
	for _, d := range r.deliveries {
		if back[d.id.tag] {
			return fmt.Errorf("handed back %v, which it delivered at %v", d.id, d.at)
		}
	}
	return nil
}

var errIdle = errors.New("nothing was delivered: the case exercises nothing")

// checkKernel runs the scenario through the reference and through the
// kernel, stepped and final, returns both kernel runs and reports the first
// difference. Into seen it notes which of the kernel's shortcuts the case
// exercised.
func checkKernel(sc *netScenario, seen map[string]bool) (stepped, final netRun, err error) {
	want := sc.reference()
	stepped, final = sc.kernel(false), sc.kernel(true)
	if err := sc.diff(stepped, want); err != nil {
		return stepped, final, fmt.Errorf("stepped run: %v", err)
	}
	if err := sc.diff(final, want); err != nil {
		return stepped, final, fmt.Errorf("final run: %v", err)
	}
	for what, ok := range map[string]bool{
		"a queued wakeup moved later":                                      stepped.later || final.later,
		"a queued wakeup moved earlier":                                    stepped.earlier || final.earlier,
		"a queued wakeup dropped (its plan went to Never or past the end)": stepped.dropped || final.dropped,
		"parking":              final.parked > stepped.parked,
		"a timer past the end": final.beyond && slices.ContainsFunc(sc.sends, func(m netSend) bool { return m.at > sc.limit }),
		"a sample taken while transits wait in the lane":                               stepped.laneSampled || final.laneSampled,
		"a lane transit run after an earlier-sequenced heap event of the same instant": stepped.laneAfterHeap || final.laneAfterHeap,
	} {
		seen[what] = seen[what] || ok
	}
	if len(want.deliveries) == 0 {
		return stepped, final, errIdle
	}
	return stepped, final, nil
}

// genNetwork builds a network of three to six nodes from seed, each link's
// profile drawn by genLink. Node 0 sends 40 to 79 messages of 1 B to 1 MB
// (log-uniform) between random nodes at random instants, a tenth of them
// past the end, and one fan-in burst: 100 to 299 messages a few milliseconds
// apart, each 150 bytes smaller than the one before, out of one node's
// uplink or into its downlink. A smaller arrival finishes first, so each one
// moves the queued wakeup earlier.
func genNetwork(seed int64) *netScenario {
	rng := rand.New(rand.NewSource(seed))
	sc := &netScenario{seed: seed, limit: time.Minute}
	nodes := 3 + rng.Intn(4)
	for range nodes {
		sc.links = append(sc.links, [2]*Profile{genLink(rng, sc.limit), genLink(rng, sc.limit)})
	}
	peer := func(of NodeID) NodeID { return (of + 1 + NodeID(rng.Intn(nodes-1))) % NodeID(nodes) }
	for range 40 + rng.Intn(40) {
		from := NodeID(rng.Intn(nodes))
		at := time.Duration(rng.Int63n(int64(sc.limit * 11 / 10)))
		sc.sends = append(sc.sends, netSend{at: at, from: from, to: peer(from), bytes: int64(math.Exp(rng.Float64() * math.Log(1e6)))})
	}
	hub, into := NodeID(rng.Intn(nodes)), rng.Intn(2) == 0
	start, gap := time.Duration(rng.Int63n(int64(sc.limit/2))), time.Duration(1+rng.Intn(10))*time.Millisecond
	for j := range 100 + rng.Intn(200) {
		m := netSend{at: start + time.Duration(j)*gap, from: hub, to: peer(hub), bytes: int64(60_000 - 150*j), chained: j > 0}
		if into {
			m.from, m.to = m.to, m.from
		}
		sc.sends = append(sc.sends, m)
	}
	return sc
}

// genLink draws a profile: a rate log-uniform from 1 to 100 Mbit/s (not a
// round decimal; see genScenario), and one of six shapes: constant,
// throttled windows (some to zero), or dead from a random instant until
// before the end, until exactly the end, until past it, or forever.
func genLink(rng *rand.Rand, limit time.Duration) *Profile {
	rate := math.Pow(10, 6+2*rng.Float64())
	prof := NewProfile(rate)
	from := time.Duration(rng.Int63n(int64(limit)))
	switch rng.Intn(6) {
	case 0:
		for range 1 + rng.Intn(3) {
			w := time.Duration(rng.Int63n(int64(limit)))
			prof.ThrottleMin(w, w+time.Duration(rng.Int63n(int64(10*time.Second))), rate*[]float64{0, 0.01, 0.1}[rng.Intn(3)])
		}
	case 1:
		prof.SetRate(from, from+time.Duration(rng.Int63n(int64(limit-from))), 0)
	case 2:
		prof.SetRate(from, limit, 0)
	case 3:
		prof.SetRate(from, limit+time.Minute, 0)
	case 4:
		prof.SetRate(from, Never, 0)
	}
	return prof
}

// twoSends: node 0 sends first at 0 and second at 1.5 s to node 1 through
// up; every other link runs at 10 Gbit/s.
func twoSends(up *Profile, first, second int64) *netScenario {
	fast := NewProfile(1e10)
	return &netScenario{seed: 1, limit: 5 * time.Second, links: [][2]*Profile{{up, fast}, {fast, fast}}, sends: []netSend{
		{at: 0, from: 0, to: 1, bytes: first},
		{at: 1500 * time.Millisecond, from: 0, to: 1, bytes: second},
	}}
}

// movedEarlierAndBack: alone, the big message plans its uplink finish at
// 2 s. One bit at 1.5 s finishes within a nanosecond, which moves the
// wakeup earlier; the big one's finish then rounds back up to 2 s, queued
// behind the sampler's event there, which must find it still on the link.
func movedEarlierAndBack() *netScenario { return twoSends(NewProfile(1e10), 2_499_999_999, 0) }

// movedOntoSample: alone at 1 Mbit/s, 218 750 B plans its finish at 1.75 s.
// 500 000 B more at 1.5 s move the wakeup onto exactly 2 s with a fresh
// sequence number, behind the sampler's event queued there at 1 s, so the
// sample finds both messages on the link.
func movedOntoSample() *netScenario { return twoSends(NewProfile(1e6), 218_750, 500_000) }

// deadAfterBurst: alone, a 4 Mbit message plans its uplink finish at about
// 14 s. A hundred smaller messages arrive 1 ms apart from 10 s, each smaller
// than the one before, so each moves the queued wakeup earlier. The link
// dies at 14.5 s, before the big message can finish, so once the small ones
// are delivered it holds the last message and plans no wakeup: the queue
// drains with the message still on the link.
func deadAfterBurst() *netScenario {
	up, fast := NewProfile(1e6-3), NewProfile(1e8-7)
	up.SetRate(14500*time.Millisecond, Never, 0)
	sc := &netScenario{seed: 1, limit: 20 * time.Second, links: [][2]*Profile{{up, fast}, {fast, fast}},
		sends: []netSend{{at: 10 * time.Second, from: 0, to: 1, bytes: 500_000}}}
	for j := range 100 {
		sc.sends = append(sc.sends, netSend{at: 10*time.Second + time.Duration(j+1)*time.Millisecond, from: 0, to: 1, bytes: int64(2000 - 15*j), chained: j > 0})
	}
	return sc
}

// fanIn: 300 messages 7 ms apart from 3.5 s, each 600 bytes smaller than the
// one before, out of node 0's uplink, throttled from 2 to 30 s and dead from
// 45 s on. Each arrival moves the queued wakeup earlier, a stepped run stops
// in the middle of the burst, and the dead link holds the last messages.
func fanIn() *netScenario {
	up, fast := NewProfile(1e7-3), NewProfile(1e8-7)
	up.ThrottleMin(2*time.Second, 30*time.Second, 1e6-3)
	up.SetRate(45*time.Second, Never, 0)
	sc := &netScenario{seed: 1, limit: time.Minute, links: [][2]*Profile{{up, fast}, {fast, fast}}}
	for j := range 300 {
		sc.sends = append(sc.sends, netSend{at: 3500*time.Millisecond + time.Duration(j)*7*time.Millisecond, from: 0, to: 1, bytes: int64(200_000 - 600*j), chained: j > 0})
	}
	return sc
}

// laneBeforeSample: four 49 152-byte messages leave node 0 at 0.5 s through a
// 2²⁰ bit/s uplink. Each gets a quarter of it, so all four finish at exactly
// 2 s, where the last enqueue moved the wakeup before the sampler's event was
// queued (at 1 s); a fifth send's timer, queued when the fourth fires, falls
// between them. The wakeup puts the four transits into the lane, and the
// timer and then the sample run while they wait there: the sample must count
// them as events due.
func laneBeforeSample() *netScenario {
	fast := NewProfile(1e10)
	sc := &netScenario{seed: 1, limit: 5 * time.Second, links: [][2]*Profile{{NewProfile(1 << 20), fast}, {fast, fast}}}
	for range 4 {
		sc.sends = append(sc.sends, netSend{at: 500 * time.Millisecond, from: 0, to: 1, bytes: 49_152})
	}
	sc.sends = append(sc.sends, netSend{at: 2 * time.Second, from: 0, to: 1, bytes: 1_000, chained: true})
	return sc
}

// netSeeds are the generated networks the table runs. Seeds 17 and 26 are
// the first that need a dropped plan's wakeup removed and the event moved
// into its hole re-sifted.
var netSeeds = []int64{1, 2, 3, 4, 5, 6, 7, 8, 17, 26}

func TestKernelMatchesReference(t *testing.T) {
	cases := map[string]*netScenario{
		"a wakeup moved earlier returns behind a sample":  movedEarlierAndBack(),
		"a wakeup moved onto a sample":                    movedOntoSample(),
		"a link dies holding the last message of a burst": deadAfterBurst(),
		"fan-in through a throttled link":                 fanIn(),
		"a wakeup fills the lane before a sample":         laneBeforeSample(),
	}
	for _, seed := range netSeeds {
		cases[fmt.Sprintf("seed %d", seed)] = genNetwork(seed)
	}
	var seen []map[string]bool // one per case, read once all of them are done
	t.Cleanup(func() {
		for what := range seen[0] {
			if !slices.ContainsFunc(seen, func(s map[string]bool) bool { return s[what] }) {
				t.Errorf("no case exercises %s", what)
			}
		}
	})
	for name, sc := range cases {
		exercised := map[string]bool{}
		seen = append(seen, exercised)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			if _, _, err := checkKernel(sc, exercised); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func FuzzKernelMatchesReference(f *testing.F) {
	for _, seed := range netSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		if _, _, err := checkKernel(genNetwork(seed), map[string]bool{}); err != nil && !errors.Is(err, errIdle) {
			t.Fatal(err)
		}
	})
}

// endNet is one sender feeding every receiver through its own downlink
// profile: a message to each every 700 ms until stop, and a 5 MB one to
// each at 15 s when that is before stop. late adds a message past the end.
func endNet(stop time.Duration, late bool, downs ...*Profile) *netScenario {
	fast := NewProfile(1e8 - 7)
	sc := &netScenario{seed: 1, limit: time.Minute, links: [][2]*Profile{{fast, fast}}}
	for _, d := range downs {
		sc.links = append(sc.links, [2]*Profile{fast, d})
	}
	for at := time.Duration(0); at < stop; at += 700 * time.Millisecond {
		for to := range downs {
			sc.sends = append(sc.sends, netSend{at: at, from: 0, to: NodeID(to + 1), bytes: int64(20_000 + len(sc.sends)%7*3_000)})
		}
	}
	if big := 15 * time.Second; big < stop {
		for to := range downs {
			sc.sends = append(sc.sends, netSend{at: big, from: 0, to: NodeID(to + 1), bytes: 5_000_000})
		}
	}
	if late {
		sc.sends = append(sc.sends, netSend{at: 2 * sc.limit, from: 0, to: 1, bytes: 1_000})
	}
	return sc
}

func TestRunEndIsInvisible(t *testing.T) {
	// A final run parks what a dead pipe cannot move before the end, plans
	// no completion past the end and queues no event there. Neither it nor
	// a stepped run may differ from the reference, which has no end — not
	// even the traced sampler, which stops on a drained queue: a queue
	// holding something due past the end never drains, one holding only a
	// pipe dead forever does.
	const rate = 1e7 - 3
	cases := []struct {
		name string
		sc   func() *netScenario
		// beyond: something is due past the end, so the queue never drains;
		// parksMore: the final run parks what the stepped one stores.
		beyond, parksMore bool
	}{
		{
			// Dead past the end, dead until exactly the end, dead forever
			// from 10 s, and throttled to zero from 20 s to past the end
			// while its 5 MB message is half through, beside a healthy pipe.
			name: "four pipes",
			sc: func() *netScenario {
				pastEnd, untilEnd, forever, midTransfer := NewProfile(rate), NewProfile(rate), NewProfile(rate), NewProfile(1e6-3)
				pastEnd.SetRate(0, 90*time.Second, 0)
				untilEnd.SetRate(0, time.Minute, 0)
				forever.SetRate(10*time.Second, Never, 0)
				midTransfer.SetRate(20*time.Second, 2*time.Minute, 0)
				return endNet(30*time.Second, false, NewProfile(rate), pastEnd, untilEnd, forever, midTransfer)
			},
			beyond: true, parksMore: true,
		},
		{
			name:   "timer past the end",
			sc:     func() *netScenario { return endNet(10*time.Second, true, NewProfile(rate)) },
			beyond: true,
		},
		{
			name: "dead forever",
			sc: func() *netScenario {
				forever := NewProfile(rate)
				forever.SetRate(5*time.Second, Never, 0)
				return endNet(10*time.Second, false, NewProfile(rate), forever)
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sc := c.sc()
			stepped, final, err := checkKernel(sc, map[string]bool{})
			if err != nil {
				t.Fatal(err)
			}
			if final.beyond != c.beyond {
				t.Fatalf("final run: beyond=%v, want %v", final.beyond, c.beyond)
			}
			n := len(final.samples)
			if drains := n > 0 && final.samples[n-1].drained; drains == c.beyond || (drains && n >= int(sc.limit/sampleEvery)) {
				t.Fatalf("sampler ran %d times, last saw a drained queue: %v; want it to stop before the end: %v",
					n, drains, !c.beyond)
			}
			if parksMore := final.parked > stepped.parked; parksMore != c.parksMore {
				t.Fatalf("final run parked %d transfers, stepped %d", final.parked, stepped.parked)
			}
		})
	}
}
