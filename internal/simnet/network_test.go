package simnet

import (
	"testing"
	"time"

	"partialtor/internal/topo"
)

// testMsg is a minimal message for transport tests.
type testMsg struct {
	size int64
	kind string
	tag  int
}

func (m testMsg) Size() int64  { return m.size }
func (m testMsg) Kind() string { return m.kind }

// recorder is a handler that records deliveries and can send on start.
type recorder struct {
	onStart func(ctx *Context)
	got     []delivery
}

type delivery struct {
	at   time.Duration
	from NodeID
	msg  Message
}

func (r *recorder) Start(ctx *Context) {
	if r.onStart != nil {
		r.onStart(ctx)
	}
}

func (r *recorder) Deliver(ctx *Context, from NodeID, msg Message) {
	r.got = append(r.got, delivery{at: ctx.Now(), from: from, msg: msg})
}

// fixedLatency is a one-region topology placing every pair d apart, plus the
// pair's share of the intra-region jitter: a test that pins a delivery time
// asks the network for it (pairLatency).
func fixedLatency(d time.Duration) *topo.Map {
	return &topo.Map{Names: []string{"all"}, Lat: [][]time.Duration{{d}}}
}

func twoNodeNet(t *testing.T, rate float64, lat time.Duration) (*Network, *recorder, *recorder) {
	t.Helper()
	net := New(Config{Topology: fixedLatency(lat)})
	a, b := &recorder{}, &recorder{}
	net.AddNode(a, NewProfile(rate), NewProfile(rate))
	net.AddNode(b, NewProfile(rate), NewProfile(rate))
	return net, a, b
}

func TestNetworkEndToEndTiming(t *testing.T) {
	// 1000 bytes at 1 Mbit/s: 8ms uplink + latency + 8ms downlink.
	net, _, b := twoNodeNet(t, 1e6, 10*time.Millisecond)
	net.nodes[0].handler.(*recorder).onStart = func(ctx *Context) {
		ctx.Send(1, testMsg{size: 1000, kind: "t"})
	}
	net.Run(time.Minute)
	if len(b.got) != 1 {
		t.Fatalf("deliveries=%d, want 1", len(b.got))
	}
	approxDur(t, b.got[0].at, 16*time.Millisecond+net.pairLatency(0, 1), time.Millisecond, "end-to-end")
	if b.got[0].from != 0 {
		t.Fatalf("from=%d, want 0", b.got[0].from)
	}
}

func TestNetworkConcurrentSendsShareUplink(t *testing.T) {
	// Three messages to three receivers share the sender's uplink; each
	// takes 3x the solo uplink time, then latency, then a solo downlink.
	net := New(Config{Topology: fixedLatency(10 * time.Millisecond)})
	sender := &recorder{}
	net.AddNode(sender, NewProfile(1e6), NewProfile(1e6))
	receivers := make([]*recorder, 3)
	for i := range receivers {
		receivers[i] = &recorder{}
		net.AddNode(receivers[i], NewProfile(1e6), NewProfile(1e6))
	}
	sender.onStart = func(ctx *Context) {
		ctx.Broadcast(testMsg{size: 1000, kind: "t"})
	}
	net.Run(time.Minute)
	// Uplink: 3 x 8000 bits over 1 Mbit/s = 24ms shared, all finish at 24ms.
	// Then the pair's latency + 8ms solo downlink.
	for i, r := range receivers {
		if len(r.got) != 1 {
			t.Fatalf("receiver %d got %d messages", i, len(r.got))
		}
		approxDur(t, r.got[0].at, 32*time.Millisecond+net.pairLatency(0, NodeID(i+1)), 2*time.Millisecond, "broadcast delivery")
	}
}

func TestNetworkOverheadCounted(t *testing.T) {
	net := New(Config{Topology: fixedLatency(0), Overhead: 500})
	a, b := &recorder{}, &recorder{}
	net.AddNode(a, NewProfile(1e6), NewProfile(1e6))
	net.AddNode(b, NewProfile(1e6), NewProfile(1e6))
	a.onStart = func(ctx *Context) { ctx.Send(1, testMsg{size: 500, kind: "x"}) }
	net.Run(time.Minute)
	st := net.Stats()
	if st.BytesSent != 1000 {
		t.Fatalf("BytesSent=%d, want 1000 (500 payload + 500 overhead)", st.BytesSent)
	}
	if st.KindBytes["x"] != 1000 || st.KindCount["x"] != 1 {
		t.Fatalf("kind accounting = %v/%v", st.KindBytes, st.KindCount)
	}
	// 1000 bytes = 8000 bits -> 8ms up + 8ms down.
	approxDur(t, b.got[0].at, 16*time.Millisecond+net.pairLatency(0, 1), time.Millisecond, "overhead timing")
}

func TestNetworkDropFilter(t *testing.T) {
	net, a, b := twoNodeNet(t, 1e6, 0)
	a.onStart = func(ctx *Context) {
		ctx.Send(1, testMsg{size: 10, kind: "keep"})
		ctx.Send(1, testMsg{size: 10, kind: "drop"})
	}
	net.SetDropFilter(func(from, to NodeID, m Message) bool { return m.Kind() == "drop" })
	net.Run(time.Minute)
	if len(b.got) != 1 || b.got[0].msg.Kind() != "keep" {
		t.Fatalf("deliveries=%v", b.got)
	}
	if net.Stats().MessagesDropped != 1 {
		t.Fatalf("dropped=%d, want 1", net.Stats().MessagesDropped)
	}
}

func TestNetworkDelayFilter(t *testing.T) {
	net, a, b := twoNodeNet(t, 1e8, 0)
	a.onStart = func(ctx *Context) { ctx.Send(1, testMsg{size: 1, kind: "t"}) }
	net.SetDelayFilter(func(from, to NodeID, m Message) time.Duration { return 3 * time.Second })
	net.Run(time.Minute)
	if len(b.got) != 1 {
		t.Fatalf("deliveries=%d", len(b.got))
	}
	if b.got[0].at < 3*time.Second {
		t.Fatalf("delivered at %v despite 3s adversarial delay", b.got[0].at)
	}
}

func TestNetworkAttackWindowStallsTraffic(t *testing.T) {
	// The receiver's downlink is dead for [0, 30s); a message sent at t=0
	// arrives just after the window ends.
	net := New(Config{Topology: fixedLatency(0)})
	a, b := &recorder{}, &recorder{}
	net.AddNode(a, NewProfile(1e6), NewProfile(1e6))
	down := NewProfile(1e6)
	down.SetRate(0, 30*time.Second, 0)
	net.AddNode(b, NewProfile(1e6), down)
	a.onStart = func(ctx *Context) { ctx.Send(1, testMsg{size: 1000, kind: "t"}) }
	net.Run(time.Minute)
	if len(b.got) != 1 {
		t.Fatalf("message lost under attack window; want delayed delivery")
	}
	approxDur(t, b.got[0].at, 30*time.Second+8*time.Millisecond, 2*time.Millisecond, "post-attack delivery")
}

func TestNetworkTimersAndLog(t *testing.T) {
	net, a, _ := twoNodeNet(t, 1e6, 0)
	a.onStart = func(ctx *Context) {
		ctx.After(5*time.Second, func() { ctx.Logf("notice", "timer %d fired", 1) })
		ctx.At(7*time.Second, func() { ctx.Logf("info", "absolute") })
	}
	net.Run(time.Minute)
	log := net.NodeLog(0)
	if len(log) != 2 {
		t.Fatalf("log entries=%d, want 2", len(log))
	}
	if log[0].At != 5*time.Second || log[0].Level != "notice" || log[0].Text != "timer 1 fired" {
		t.Fatalf("log[0]=%+v", log[0])
	}
	if log[1].At != 7*time.Second {
		t.Fatalf("log[1]=%+v", log[1])
	}
}

func TestNetworkDeterminism(t *testing.T) {
	run := func() (uint64, int64) {
		net := New(Config{Seed: 42})
		handlers := make([]*recorder, 5)
		for i := range handlers {
			handlers[i] = &recorder{}
			net.AddNode(handlers[i], NewProfile(10e6), NewProfile(10e6))
		}
		handlers[0].onStart = func(ctx *Context) {
			for i := 0; i < 20; i++ {
				ctx.Broadcast(testMsg{size: int64(1000 + i), kind: "t", tag: i})
			}
		}
		net.Start()
		return net.sched.RunUntil(time.Minute), net.Stats().BytesDelivered
	}
	s1, b1 := run()
	s2, b2 := run()
	if s1 != s2 || b1 != b2 {
		t.Fatalf("nondeterministic run: steps %d/%d bytes %d/%d", s1, s2, b1, b2)
	}
}

func TestFlatLatencyProperties(t *testing.T) {
	flat := func(seed int64) *Network {
		net := New(Config{Seed: seed})
		for i := 0; i < 9; i++ {
			net.AddNode(&recorder{}, NewProfile(1e9), NewProfile(1e9))
		}
		return net
	}
	net := flat(7)
	for a := NodeID(0); a < 9; a++ {
		for b := NodeID(0); b < 9; b++ {
			d := net.pairLatency(a, b)
			if a == b {
				if d != 0 {
					t.Fatalf("self latency %v", d)
				}
				continue
			}
			if d != net.pairLatency(b, a) {
				t.Fatalf("asymmetric latency between %d and %d", a, b)
			}
			if d < 20*time.Millisecond || d >= 150*time.Millisecond {
				t.Fatalf("latency %v out of [20ms,150ms)", d)
			}
		}
	}
	n1, n2 := flat(1), flat(2)
	if n1.pairLatency(0, 1) == n2.pairLatency(0, 1) &&
		n1.pairLatency(0, 2) == n2.pairLatency(0, 2) &&
		n1.pairLatency(1, 2) == n2.pairLatency(1, 2) {
		t.Fatal("different seeds produced identical latency matrices")
	}
}

func TestNodeByteAccounting(t *testing.T) {
	net, a, _ := twoNodeNet(t, 1e6, 0)
	a.onStart = func(ctx *Context) { ctx.Send(1, testMsg{size: 100, kind: "t"}) }
	net.Run(time.Minute)
	if net.NodeBytesSent(0) != 100 {
		t.Fatalf("node0 sent=%d", net.NodeBytesSent(0))
	}
	if net.NodeBytesReceived(1) != 100 {
		t.Fatalf("node1 recv=%d", net.NodeBytesReceived(1))
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

func TestParkedMessagesAreHandedBack(t *testing.T) {
	// Node 0's uplink and node 1's downlink die at 10 s until past the end;
	// node 2's uplink is dead from 10 to 20 s only; node 3 is healthy. At
	// 5 s node 0 sends to node 1 (tag 1), delivered before either link
	// dies. At 15 s node 0 sends to node 3 (tag 2), parked at the send;
	// node 3 to node 1 (tag 3), parked on arrival; and node 2 to node 3
	// (tag 4), which waits out the outage and is delivered.
	net := New(Config{Topology: fixedLatency(10 * time.Millisecond)})
	deadFrom := func(from, to time.Duration) *Profile {
		p := NewProfile(1e6)
		p.SetRate(from, to, 0)
		return p
	}
	nodes := []*recorder{{}, {}, {}, {}}
	net.AddNode(nodes[0], deadFrom(10*time.Second, 2*time.Minute), NewProfile(1e6))
	net.AddNode(nodes[1], NewProfile(1e6), deadFrom(10*time.Second, 2*time.Minute))
	net.AddNode(nodes[2], deadFrom(10*time.Second, 20*time.Second), NewProfile(1e6))
	net.AddNode(nodes[3], NewProfile(1e6), NewProfile(1e6))
	sends := []struct {
		at       time.Duration
		from, to NodeID
	}{{5 * time.Second, 0, 1}, {15 * time.Second, 0, 3}, {15 * time.Second, 3, 1}, {15 * time.Second, 2, 3}}
	nodes[0].onStart = func(ctx *Context) {
		for i, m := range sends {
			ctx.At(m.at, func() { net.nodes[m.from].ctx.Send(m.to, testMsg{size: 1000, kind: "t", tag: i + 1}) })
		}
	}
	// 1000 bytes at 1 Mbit/s cross a link in 8 ms.
	parksAt := map[int]time.Duration{2: 15 * time.Second, 3: 15*time.Second + 8*time.Millisecond + net.pairLatency(3, 1)}
	var back []int
	net.SetHandBack(func(m Message) {
		tag := m.(testMsg).tag
		approxDur(t, net.Now(), parksAt[tag], time.Millisecond, "hand-back")
		back = append(back, tag)
	})
	net.Run(time.Minute)
	if len(back) != 2 || back[0] != 2 || back[1] != 3 {
		t.Fatalf("handed back %v, want [2 3]: the messages parked at the send and on arrival, once each", back)
	}
	var delivered []int
	for _, r := range nodes {
		for _, d := range r.got {
			delivered = append(delivered, d.msg.(testMsg).tag)
		}
	}
	if len(delivered) != 2 || delivered[0] != 1 || delivered[1] != 4 {
		t.Fatalf("delivered %v, want [1 4]", delivered)
	}
	if parked := net.nodes[0].up.parked + net.nodes[1].down.parked; parked != 2 {
		t.Fatalf("the dead links parked %d messages, want 2", parked)
	}
}
