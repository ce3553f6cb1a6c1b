package simnet

import (
	"testing"
	"time"
	"unsafe"
)

func TestEventShape(t *testing.T) {
	// An event is (instant, sequence number, completion) and nothing else:
	// two words and an interface, so four children of the heap span two
	// cache lines.
	if size := unsafe.Sizeof(event{}); size != 32 {
		t.Fatalf("an event is %d bytes, want 32", size)
	}
	// A plain callback rides the completion slot without boxing: scheduling
	// a prebuilt func on a warm queue and running it allocates nothing.
	s := NewScheduler()
	ran := 0
	fn := func() { ran++ }
	for i := range 64 {
		s.At(time.Duration(i), fn)
	}
	s.Run()
	now := s.Now()
	if allocs := testing.AllocsPerRun(100, func() {
		now += time.Millisecond
		s.At(now, fn)
		s.RunUntil(now)
	}); allocs != 0 {
		t.Fatalf("At and RunUntil allocated %.1f times per event, want 0", allocs)
	}
	if ran != 64+101 {
		t.Fatalf("ran %d events, want %d", ran, 64+101)
	}
}

func TestTransitShape(t *testing.T) {
	// A transit waits in the same-instant lane by its own next and seq
	// fields, so the lane allocates nothing. seq must not push a transit out
	// of the allocator's 80-byte size class into the 96-byte one: the pool
	// grows by a transit per message in flight at the peak.
	if size := unsafe.Sizeof(transit{}); size > 80 {
		t.Fatalf("a transit is %d bytes, want at most 80", size)
	}
}

func TestSameInstantBurstAllocFree(t *testing.T) {
	// Node 0 sends 8 equal messages, one to each peer, through one uplink:
	// all 8 finish at one instant, so its wakeup puts 8 transits into the
	// lane, and each downlink puts its one there a millisecond later. In
	// steady state the burst allocates nothing.
	net := New(Config{Topology: fixedLatency(time.Millisecond)})
	for range 9 {
		net.AddNode(nullHandler{}, NewProfile(1e9), NewProfile(1e9))
	}
	net.Start()
	var msg Message = testMsg{size: 4096, kind: "t"}
	up := net.nodes[0].up
	inLane := 0
	count := func() { inLane = net.sched.Pending() - len(net.sched.queue) }
	now := time.Duration(0)
	step := func() {
		for to := range NodeID(8) {
			net.send(0, to+1, msg)
		}
		// Queued after the wakeup, this runs before the transits it fills
		// the lane with, which are numbered when it runs.
		net.sched.At(net.sched.queue[up.slot].at, count)
		now += time.Second
		net.sched.RunUntil(now)
	}
	for range 4 { // warm the transit pool, the pipes' heaps and the event heap
		step()
	}
	if inLane != 8 {
		t.Fatalf("the burst's uplink finish put %d transits into the lane, want 8", inLane)
	}
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
		t.Fatalf("a same-instant burst allocated %.1f times, want 0", allocs)
	}
	if got, want := net.Stats().MessagesDelivered, int64(8*(4+101)); got != want { // AllocsPerRun(100) runs 101
		t.Fatalf("%d messages delivered, want %d", got, want)
	}
}
