package simnet

import (
	"slices"
	"testing"
	"time"
	"unsafe"
)

// fanInRun is one differential run: 300 transfers arriving 7 ms apart on a
// pipe throttled 2–30 s and dead from 45 s on, run up to each limit in turn.
// Each arrival is smaller than the one before, so it moves the pipe's
// earliest completion forward and strands the queued wakeup later than the
// live one; the dead link leaves stale wakeups as the last events queued.
type fanInRun struct {
	done     []int           // transfer ids in completion order
	at       []time.Duration // their completion instants
	pending  []int           // Pending as each completion ran
	executed []uint64        // RunUntil's count per limit
	now      []time.Duration // the clock after each limit
}

func runFanIn(policy compactPolicy, limits ...time.Duration) fanInRun {
	prof := NewProfile(10e6)
	prof.ThrottleMin(2*time.Second, 30*time.Second, 1e6)
	prof.SetRate(45*time.Second, Never, 0)
	s := NewScheduler()
	s.compaction = policy
	p := newPipe(s, prof)
	var r fanInRun
	for j := 0; j < 300; j++ {
		j := j
		s.At(time.Duration(j)*7*time.Millisecond, func() {
			p.enqueue(int64(200_000-j*600), doneFunc(func(at time.Duration) {
				r.done = append(r.done, j)
				r.at = append(r.at, at)
				r.pending = append(r.pending, s.Pending())
			}))
		})
	}
	for _, limit := range limits {
		r.executed = append(r.executed, s.RunUntil(limit))
		r.now = append(r.now, s.Now())
	}
	return r
}

func TestCompactionIsInvisible(t *testing.T) {
	// Dropping stale wakeups must not change which events run, when, in
	// what order, or how many RunUntil reports — whether the run goes to
	// the end at once or stops at a limit in the middle of the fan-in.
	shrank := false
	for _, limits := range [][]time.Duration{{Never}, {time.Second, Never}, {5 * time.Second, 40 * time.Second, Never}} {
		never := runFanIn(compactNever, limits...)
		if len(never.done) == 0 {
			t.Fatalf("limits %v: no transfer completed", limits)
		}
		for _, policy := range []compactPolicy{compactAlways, compactAuto} {
			got := runFanIn(policy, limits...)
			if !slices.Equal(got.done, never.done) || !slices.Equal(got.at, never.at) {
				t.Fatalf("limits %v, policy %d: completions differ from the uncompacted run", limits, policy)
			}
			if !slices.Equal(got.executed, never.executed) || !slices.Equal(got.now, never.now) {
				t.Fatalf("limits %v, policy %d: RunUntil counted %v ending at %v, uncompacted %v at %v",
					limits, policy, got.executed, got.now, never.executed, never.now)
			}
			// A traced run stops sampling when the queue drains, so the queue
			// must drain at exactly the same event.
			for i := range got.pending {
				if (got.pending[i] == 0) != (never.pending[i] == 0) {
					t.Fatalf("limits %v, policy %d: %d events pending at completion %d, uncompacted %d",
						limits, policy, got.pending[i], i, never.pending[i])
				}
			}
		}
		always := runFanIn(compactAlways, limits...)
		for i := range always.pending {
			shrank = shrank || always.pending[i] < never.pending[i]
		}
	}
	if !shrank {
		t.Fatal("compaction never removed a queued event: the test exercises nothing")
	}
}

func TestCompactionKeepsTheLastStaleWakeup(t *testing.T) {
	// Alone, the 8.5 Mbit transfer plans its wakeup at 8.5 s. The 0.6 Mbit
	// arrival at 1 s strands that wakeup and pushes the big transfer past
	// the link's death at 9 s, so the stranded wakeup is the last event
	// queued. The queue must not look drained before it pops, and the clock
	// must end on it.
	run := func(policy compactPolicy) (executed uint64, now time.Duration, pending int) {
		prof := NewProfile(1e6)
		prof.SetRate(9*time.Second, Never, 0)
		s := NewScheduler()
		s.compaction = policy
		p := newPipe(s, prof)
		s.At(0, func() { p.enqueue(1_062_500, doneFunc(func(time.Duration) {})) })
		s.At(time.Second, func() {
			p.enqueue(75_000, doneFunc(func(time.Duration) { pending = s.Pending() }))
		})
		executed = s.Run()
		return executed, s.Now(), pending
	}
	wantExec, wantNow, wantPending := run(compactNever)
	if wantNow != 8500*time.Millisecond || wantPending == 0 {
		t.Fatalf("uncompacted run ended at %v with %d events pending at the small completion, want 8.5s and the stale wakeup", wantNow, wantPending)
	}
	exec, now, pending := run(compactAlways)
	if exec != wantExec || now != wantNow || pending == 0 {
		t.Fatalf("compacted run: %d events ending at %v, %d pending at the small completion; uncompacted %d at %v, %d pending",
			exec, now, pending, wantExec, wantNow, wantPending)
	}
}

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

func TestStaleWakeupIsJudgedBySequence(t *testing.T) {
	// On a 10 Gbit/s pipe the big transfer alone plans its wakeup at T. A
	// 1-bit transfer joining at 0 finishes within a nanosecond and strands
	// that wakeup; once it is gone the big transfer's finish rounds back up
	// to T, so the stale wakeup and the live one share the instant. Only the
	// sequence number tells them apart: a plain event queued at T between
	// the two must still find the big transfer in flight, and the transfer
	// must complete once.
	s := NewScheduler()
	p := newPipe(s, NewProfile(1e10))
	var order []string
	inFlight := -1
	s.At(0, func() {
		p.enqueue(1_000_004, doneFunc(func(time.Duration) { order = append(order, "big") }))
	})
	s.RunUntil(0)
	T := p.wakeAt
	s.At(T, func() {
		order = append(order, "plain")
		inFlight = p.queued()
	})
	s.At(0, func() {
		p.enqueue(0, doneFunc(func(time.Duration) { order = append(order, "small") }))
	})
	s.RunUntil(T - 1)
	wakeups := 0
	for _, ev := range s.queue {
		if ev.c == completion(p) && ev.at == T {
			wakeups++
		}
	}
	if wakeups != 2 || p.wakeAt != T {
		t.Fatalf("%d wakeups of the pipe queued at %v, live one at %v; want a stale and a live one at %v", wakeups, T, p.wakeAt, T)
	}
	s.Run()
	if want := []string{"small", "plain", "big"}; !slices.Equal(order, want) || s.Now() != T {
		t.Fatalf("ran %v ending at %v, want %v ending at %v", order, s.Now(), want, T)
	}
	if inFlight != 1 {
		t.Fatalf("the plain event at %v found %d transfers in flight, want the big one", T, inFlight)
	}
}
