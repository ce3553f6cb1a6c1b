package simnet

import (
	"testing"
	"time"
	"unsafe"
)

func BenchmarkSchedulerEvents(b *testing.B) {
	s := NewScheduler()
	count := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.After(time.Duration(i%1000)*time.Millisecond, func() { count++ })
	}
	s.Run()
	if count != b.N {
		b.Fatalf("ran %d of %d events", count, b.N)
	}
}

func BenchmarkPipeConcurrentTransfers(b *testing.B) {
	// One pipe, 64 concurrent transfers, processor sharing: measures the
	// fluid model's per-event cost.
	for i := 0; i < b.N; i++ {
		s := NewScheduler()
		p := newPipe(s, NewProfile(100e6))
		done := 0
		s.At(0, func() {
			for j := 0; j < 64; j++ {
				p.enqueue(int64(1000+j*100), doneFunc(func(time.Duration) { done++ }))
			}
		})
		s.Run()
		if done != 64 {
			b.Fatalf("done=%d", done)
		}
	}
}

func BenchmarkPipeThrottledTransfer(b *testing.B) {
	prof := NewProfile(10e6)
	for w := time.Duration(0); w < 10*time.Minute; w += time.Minute {
		prof.ThrottleMin(w, w+30*time.Second, 0.5e6)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewScheduler()
		p := newPipe(s, prof)
		var doneAt time.Duration
		s.At(0, func() { p.enqueue(50_000_000, doneFunc(func(at time.Duration) { doneAt = at })) })
		s.Run()
		if doneAt == 0 {
			b.Fatal("transfer never completed")
		}
	}
}

func BenchmarkPipeFloodFanIn(b *testing.B) {
	// Hundreds of concurrent transfers racing through one throttled pipe:
	// the cache-downlink shape of a flood scenario, where the attack window
	// (ThrottleMin segments) forces the fluid model to re-plan repeatedly
	// under maximal fan-in.
	prof := NewProfile(10e6)
	prof.ThrottleMin(2*time.Second, 30*time.Second, 1e6)
	const fanIn = 400
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewScheduler()
		p := newPipe(s, prof)
		done := 0
		cb := doneFunc(func(time.Duration) { done++ })
		s.At(0, func() {
			for j := 0; j < fanIn; j++ {
				p.enqueue(int64(2_000+j*37), cb)
			}
		})
		s.Run()
		if done != fanIn {
			b.Fatalf("done=%d", done)
		}
	}
}

func TestPipeEqualShareAllocFree(t *testing.T) {
	// The fluid model must be allocation-free once the pipe's heap and the
	// event queue are warm: an enqueue (which advances and replans) and a
	// wakeup (which completes a transfer and replans) may not allocate,
	// however deep the queue.
	if size := unsafe.Sizeof(transfer{}); size != 32 {
		t.Fatalf("a transfer is %d bytes, want 32", size)
	}
	const depth = 10_000
	s := NewScheduler()
	p := newPipe(s, NewProfile(1e9))
	done := 0
	cb := doneFunc(func(time.Duration) { done++ })
	for j := 0; j < depth; j++ {
		p.enqueue(int64(1_000+j), cb)
	}
	// Each enqueue adds a transfer at the back of the order, and each of the
	// pipe's live wakeups completes the front one. A warm-up of as many of
	// both as the measurement runs sizes the heap and the event queue.
	size := int64(1_000 + depth)
	enqueue := func() { p.enqueue(size, cb); size++ }
	wakeup := func() { s.RunUntil(s.queue[p.slot].at) }
	const runs = 101 // AllocsPerRun(100, f) calls f once more to warm it
	for range runs {
		enqueue()
	}
	for range runs {
		wakeup()
	}
	if p.queued() != depth || done != runs {
		t.Fatalf("%d transfers queued and %d done, want %d and %d", p.queued(), done, depth, runs)
	}
	if allocs := testing.AllocsPerRun(runs-1, enqueue); allocs != 0 {
		t.Fatalf("an enqueue on a %d-deep pipe allocated %.1f times, want 0", depth, allocs)
	}
	if allocs := testing.AllocsPerRun(runs-1, wakeup); allocs != 0 {
		t.Fatalf("a wakeup on a %d-deep pipe allocated %.1f times, want 0", depth, allocs)
	}
	if p.queued() != depth || done != 2*runs {
		t.Fatalf("%d transfers queued and %d done, want %d and %d: one per wakeup", p.queued(), done, depth, 2*runs)
	}
}

func BenchmarkNetworkBroadcast(b *testing.B) {
	// 9 nodes all-to-all broadcasting: the directory protocol's hot path.
	for i := 0; i < b.N; i++ {
		net := New(Config{Seed: int64(i)})
		for j := 0; j < 9; j++ {
			h := &recorder{}
			if j == 0 {
				h.onStart = func(ctx *Context) {
					ctx.Broadcast(testMsg{size: 1 << 20, kind: "doc"})
				}
			}
			net.AddNode(h, NewProfile(250e6), NewProfile(250e6))
		}
		net.Run(time.Minute)
		if net.Stats().MessagesDelivered != 8 {
			b.Fatal("broadcast incomplete")
		}
	}
}

// nullHandler ignores everything it receives.
type nullHandler struct{}

func (nullHandler) Start(*Context)                    {}
func (nullHandler) Deliver(*Context, NodeID, Message) {}

func TestSendPathNilTracerAllocFree(t *testing.T) {
	// The observability layer's zero-cost contract: with no tracer
	// installed, the full three-leg send path — uplink contention,
	// propagation, downlink contention, delivery — allocates nothing in
	// steady state. The transit pool and the pipes' heaps absorb per-message
	// state; the nil-tracer guard must stay a single untaken branch.
	net := New(Config{Topology: fixedLatency(time.Millisecond)})
	net.AddNode(nullHandler{}, NewProfile(1e9), NewProfile(1e9))
	net.AddNode(nullHandler{}, NewProfile(1e9), NewProfile(1e9))
	net.Start()
	var msg Message = testMsg{size: 4096, kind: "t"}
	now := time.Duration(0)
	step := func() {
		for j := 0; j < 8; j++ {
			net.send(0, 1, msg)
		}
		now += time.Second
		net.sched.RunUntil(now)
	}
	// Warm the transit pool, the pipes' heaps and the event heap's capacity.
	for i := 0; i < 4; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
		t.Fatalf("nil-tracer send path allocated %.1f times per burst, want 0", allocs)
	}
	if got := net.Stats().MessagesDelivered; got == 0 {
		t.Fatal("no messages delivered")
	}
}
