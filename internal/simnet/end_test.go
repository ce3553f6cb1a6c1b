package simnet

import (
	"slices"
	"testing"
	"time"

	"partialtor/internal/obs"
)

// runEnd is the end of the differential runs below.
const runEnd = time.Minute

// endRun is what one differential run shows: every delivery in order, the
// events executed, every pipe's queue at the end, the traced stream, and
// whether the queue looked drained at each sampler instant.
type endRun struct {
	deliveries []endDelivery
	executed   uint64
	queued     []int
	trace      []obs.Event
	drained    []bool
	parked     int
	beyond     bool
}

type endDelivery struct {
	at  time.Duration
	to  NodeID
	tag int
}

// endScenario is one sender feeding every receiver through its own downlink
// profile: a message to each every 700 ms until stop, plus a 5 MB transfer
// to each at 15 s when that is before stop. late arms a timer past the end.
type endScenario struct {
	stop  time.Duration
	late  bool
	downs func() []*Profile // fresh per run: a Profile is single-simulation state
}

type endSource struct {
	sc        *endScenario
	receivers int
}

func (s *endSource) Start(ctx *Context) {
	tag := 0
	var tick func()
	tick = func() {
		for to := 1; to <= s.receivers; to++ {
			tag++
			ctx.Send(NodeID(to), testMsg{size: int64(20_000 + tag%7*3_000), kind: "t", tag: tag})
		}
		if next := ctx.Now() + 700*time.Millisecond; next < s.sc.stop {
			ctx.At(next, tick)
		}
	}
	ctx.At(0, tick)
	if big := 15 * time.Second; big < s.sc.stop {
		ctx.At(big, func() {
			for to := 1; to <= s.receivers; to++ {
				ctx.Send(NodeID(to), testMsg{size: 5_000_000, kind: "big", tag: -to})
			}
		})
	}
	if s.sc.late {
		ctx.After(2*runEnd, func() { panic("an event past the end ran") })
	}
}

func (s *endSource) Deliver(*Context, NodeID, Message) {}

type endSink struct {
	id NodeID
	r  *endRun
}

func (s *endSink) Start(*Context) {}

func (s *endSink) Deliver(ctx *Context, _ NodeID, m Message) {
	s.r.deliveries = append(s.r.deliveries, endDelivery{at: ctx.Now(), to: s.id, tag: m.(testMsg).tag})
}

// endTracer records the traced stream and, at each sampler instant, whether
// the scheduler reports a drained queue: the sampler's stop condition.
type endTracer struct {
	net *Network
	r   *endRun
}

func (t *endTracer) Event(ev obs.Event) {
	t.r.trace = append(t.r.trace, ev)
	if ev.Type == obs.EvPipeSample && ev.Node == 0 && ev.Label == "up" {
		t.r.drained = append(t.r.drained, t.net.sched.Pending() == 0 && !t.net.sched.beyond)
	}
}

// run plays the scenario to runEnd: final through Network.Run, which knows
// its end, or stepped through RunUntil every 5 s on a scheduler with none.
func (sc *endScenario) run(final bool) endRun {
	var r endRun
	downs := sc.downs()
	net := New(Config{Topology: fixedLatency(20 * time.Millisecond)})
	net.AddNode(&endSource{sc: sc, receivers: len(downs)}, NewProfile(100e6), NewProfile(100e6))
	for i, d := range downs {
		net.AddNode(&endSink{id: NodeID(i + 1), r: &r}, NewProfile(100e6), d)
	}
	net.SetObs(&endTracer{net: net, r: &r})
	if final {
		steps := GlobalSteps()
		net.Run(runEnd)
		r.executed = GlobalSteps() - steps
	} else {
		net.Start()
		for limit := 5 * time.Second; limit <= runEnd; limit += 5 * time.Second {
			r.executed += net.sched.RunUntil(limit)
		}
	}
	for _, nd := range net.nodes {
		r.queued = append(r.queued, nd.up.queued(), nd.down.queued())
		r.parked += nd.up.parked + nd.down.parked
	}
	r.beyond = net.sched.beyond
	return r
}

// sameRun fails unless the final run is the stepped one, observation for
// observation.
func sameRun(t *testing.T, stepped, final endRun) {
	t.Helper()
	if len(stepped.deliveries) == 0 {
		t.Fatal("nothing was delivered: the scenario exercises nothing")
	}
	if !slices.Equal(final.deliveries, stepped.deliveries) {
		t.Fatalf("final run delivered %d messages, stepped %d, or in another order or at other instants",
			len(final.deliveries), len(stepped.deliveries))
	}
	if final.executed != stepped.executed {
		t.Fatalf("final run executed %d events, stepped %d", final.executed, stepped.executed)
	}
	if !slices.Equal(final.queued, stepped.queued) {
		t.Fatalf("queued transfers per pipe: final %v, stepped %v", final.queued, stepped.queued)
	}
	if !slices.Equal(final.drained, stepped.drained) {
		t.Fatalf("drained queue at each sampler instant: final %v, stepped %v", final.drained, stepped.drained)
	}
	if !slices.Equal(final.trace, stepped.trace) {
		t.Fatalf("traced streams differ: final %d events, stepped %d", len(final.trace), len(stepped.trace))
	}
}

func TestRunEndIsInvisible(t *testing.T) {
	// A final run parks what a dead pipe cannot move before the end, plans
	// no completion past the end and queues no event there. No stepped run
	// may tell the difference — not even the traced sampler, which stops on
	// a drained queue: a queue holding something due past the end never
	// drains, one holding only a pipe dead forever does.
	cases := []struct {
		name string
		sc   endScenario
		// beyond: something is due past the end, so the queue never drains;
		// parksMore: the final run parks what the stepped one stores.
		beyond, parksMore bool
	}{
		{
			// Dead past the end, dead until exactly the end, dead forever
			// from 10 s, and throttled to zero from 20 s to past the end
			// while its 5 MB transfer is half through, beside a healthy pipe.
			name: "four pipes",
			sc: endScenario{stop: 30 * time.Second, downs: func() []*Profile {
				pastEnd, untilEnd, forever, midTransfer := NewProfile(10e6), NewProfile(10e6), NewProfile(10e6), NewProfile(1e6)
				pastEnd.SetRate(0, runEnd+30*time.Second, 0)
				untilEnd.SetRate(0, runEnd, 0)
				forever.SetRate(10*time.Second, Never, 0)
				midTransfer.SetRate(20*time.Second, runEnd+time.Minute, 0)
				return []*Profile{NewProfile(10e6), pastEnd, untilEnd, forever, midTransfer}
			}},
			beyond: true, parksMore: true,
		},
		{
			name: "timer past the end",
			sc: endScenario{stop: 10 * time.Second, late: true, downs: func() []*Profile {
				return []*Profile{NewProfile(10e6)}
			}},
			beyond: true,
		},
		{
			name: "dead forever",
			sc: endScenario{stop: 10 * time.Second, downs: func() []*Profile {
				forever := NewProfile(10e6)
				forever.SetRate(5*time.Second, Never, 0)
				return []*Profile{NewProfile(10e6), forever}
			}},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			stepped, final := c.sc.run(false), c.sc.run(true)
			sameRun(t, stepped, final)
			if final.beyond != c.beyond {
				t.Fatalf("final run: beyond=%v, want %v", final.beyond, c.beyond)
			}
			n := len(final.drained)
			if drains := n > 0 && final.drained[n-1]; drains == c.beyond || (drains && n >= int(runEnd/sampleEvery)) {
				t.Fatalf("sampler ran %d times, last saw a drained queue: %v; want it to stop before the end: %v",
					n, drains, !c.beyond)
			}
			if parksMore := final.parked > stepped.parked; parksMore != c.parksMore {
				t.Fatalf("final run parked %d transfers, stepped %d", final.parked, stepped.parked)
			}
		})
	}
}

func TestNetworkRunsOnce(t *testing.T) {
	net, _, _ := twoNodeNet(t, 1e6, 0)
	net.Run(time.Second)
	defer func() {
		if recover() == nil {
			t.Error("a second Run did not panic")
		}
	}()
	net.Run(2 * time.Second)
}
