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
