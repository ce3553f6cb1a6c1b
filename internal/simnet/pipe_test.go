package simnet

import (
	"math"
	"runtime"
	"testing"
	"testing/quick"
	"time"
)

func approxDur(t *testing.T, got, want, tol time.Duration, what string) {
	t.Helper()
	diff := got - want
	if diff < 0 {
		diff = -diff
	}
	if diff > tol {
		t.Fatalf("%s: got %v, want %v (±%v)", what, got, want, tol)
	}
}

func TestSchedulerOrdering(t *testing.T) {
	s := NewScheduler()
	var order []int
	s.At(2*time.Second, func() { order = append(order, 2) })
	s.At(1*time.Second, func() { order = append(order, 1) })
	s.At(1*time.Second, func() { order = append(order, 10) }) // same instant: FIFO
	s.At(3*time.Second, func() { order = append(order, 3) })
	s.Run()
	want := []int{1, 10, 2, 3}
	if len(order) != len(want) {
		t.Fatalf("executed %d events, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
	if s.Now() != 3*time.Second {
		t.Fatalf("clock at %v, want 3s", s.Now())
	}
}

func TestSchedulerRunUntil(t *testing.T) {
	s := NewScheduler()
	ran := 0
	s.At(time.Second, func() { ran++ })
	s.At(5*time.Second, func() { ran++ })
	n := s.RunUntil(2 * time.Second)
	if n != 1 || ran != 1 {
		t.Fatalf("RunUntil executed %d (ran=%d), want 1", n, ran)
	}
	if s.Now() != 2*time.Second {
		t.Fatalf("clock at %v, want 2s", s.Now())
	}
	s.Run()
	if ran != 2 {
		t.Fatalf("ran=%d after Run, want 2", ran)
	}
}

func TestSchedulerNestedScheduling(t *testing.T) {
	s := NewScheduler()
	var hits []time.Duration
	s.At(time.Second, func() {
		s.After(time.Second, func() { hits = append(hits, s.Now()) })
	})
	s.Run()
	if len(hits) != 1 || hits[0] != 2*time.Second {
		t.Fatalf("nested event at %v, want [2s]", hits)
	}
}

func TestSchedulerPastPanics(t *testing.T) {
	s := NewScheduler()
	s.At(time.Second, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		s.At(500*time.Millisecond, func() {})
	})
	s.Run()
}

func TestProfileBasics(t *testing.T) {
	p := NewProfile(10e6)
	if got := p.RateAt(0); got != 10e6 {
		t.Fatalf("RateAt(0)=%v, want 10e6", got)
	}
	p.SetRate(5*time.Second, 10*time.Second, 1e6)
	cases := []struct {
		at   time.Duration
		want float64
	}{
		{0, 10e6}, {4999 * time.Millisecond, 10e6}, {5 * time.Second, 1e6},
		{7 * time.Second, 1e6}, {10 * time.Second, 10e6}, {time.Hour, 10e6},
	}
	for _, c := range cases {
		if got := p.RateAt(c.at); got != c.want {
			t.Errorf("RateAt(%v)=%v, want %v", c.at, got, c.want)
		}
	}
	if nc := p.nextChange(0); nc != 5*time.Second {
		t.Fatalf("nextChange(0)=%v, want 5s", nc)
	}
	if nc := p.nextChange(5 * time.Second); nc != 10*time.Second {
		t.Fatalf("nextChange(5s)=%v, want 10s", nc)
	}
	if nc := p.nextChange(10 * time.Second); nc != Never {
		t.Fatalf("nextChange(10s)=%v, want Never", nc)
	}
}

func TestProfileThrottleMinComposition(t *testing.T) {
	p := NewProfile(10e6)
	p.ThrottleMin(0, 10*time.Second, 2e6)
	p.ThrottleMin(5*time.Second, 15*time.Second, 1e6)
	cases := []struct {
		at   time.Duration
		want float64
	}{
		{0, 2e6}, {4 * time.Second, 2e6}, {5 * time.Second, 1e6},
		{12 * time.Second, 1e6}, {15 * time.Second, 10e6},
	}
	for _, c := range cases {
		if got := p.RateAt(c.at); got != c.want {
			t.Errorf("RateAt(%v)=%v, want %v", c.at, got, c.want)
		}
	}
	// A higher throttle never raises an existing lower rate.
	p.ThrottleMin(0, 20*time.Second, 5e6)
	if got := p.RateAt(6 * time.Second); got != 1e6 {
		t.Fatalf("ThrottleMin raised rate to %v", got)
	}
}

func TestProfileSetRateToNever(t *testing.T) {
	p := NewProfile(10e6)
	p.SetRate(time.Minute, Never, 0)
	if got := p.RateAt(2 * time.Minute); got != 0 {
		t.Fatalf("RateAt after permanent cut = %v, want 0", got)
	}
	if got := p.RateAt(30 * time.Second); got != 10e6 {
		t.Fatalf("RateAt before cut = %v, want 10e6", got)
	}
}

func TestProfileQuickProperties(t *testing.T) {
	// ThrottleMin never increases the rate anywhere, and RateAt is always
	// nonnegative.
	f := func(baseMbit uint16, fromMs, winMs uint16, throttleMbit uint16, probeMs uint32) bool {
		base := float64(baseMbit%1000+1) * 1e6
		p := NewProfile(base)
		from := time.Duration(fromMs) * time.Millisecond
		to := from + time.Duration(winMs%10000+1)*time.Millisecond
		th := float64(throttleMbit%1000) * 1e6
		before := p.RateAt(time.Duration(probeMs) * time.Millisecond)
		p.ThrottleMin(from, to, th)
		after := p.RateAt(time.Duration(probeMs) * time.Millisecond)
		return after >= 0 && after <= before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// doneFunc adapts a closure to the completion interface the pipe takes.
type doneFunc func(at time.Duration)

func (f doneFunc) complete(at time.Duration) { f(at) }

// runPipe drives a pipe directly with the scheduler and records completions.
func runPipe(prof *Profile) (*Scheduler, *pipe) {
	s := NewScheduler()
	return s, newPipe(s, prof)
}

func TestPipeSingleTransfer(t *testing.T) {
	s, p := runPipe(NewProfile(1e6)) // 1 Mbit/s
	var doneAt time.Duration = -1
	s.At(0, func() {
		p.enqueue(125000, doneFunc(func(at time.Duration) { doneAt = at })) // 1e6 bits
	})
	s.Run()
	approxDur(t, doneAt, time.Second, time.Microsecond, "1Mbit over 1Mbit/s")
}

func TestPipeFairSharing(t *testing.T) {
	s, p := runPipe(NewProfile(1e6))
	var a, b time.Duration = -1, -1
	s.At(0, func() {
		p.enqueue(125000, doneFunc(func(at time.Duration) { a = at }))
		p.enqueue(125000, doneFunc(func(at time.Duration) { b = at }))
	})
	s.Run()
	// Two equal transfers sharing the pipe both finish at 2x the solo time.
	approxDur(t, a, 2*time.Second, time.Millisecond, "transfer a")
	approxDur(t, b, 2*time.Second, time.Millisecond, "transfer b")
}

func TestPipeLateArrivalSharing(t *testing.T) {
	s, p := runPipe(NewProfile(1e6))
	var a, b time.Duration = -1, -1
	s.At(0, func() { p.enqueue(125000, doneFunc(func(at time.Duration) { a = at })) })
	// b arrives at 0.5s, when a has 0.5e6 bits left; they then share.
	s.At(500*time.Millisecond, func() { p.enqueue(62500, doneFunc(func(at time.Duration) { b = at })) })
	s.Run()
	// From 0.5s: a has 5e5 bits, b has 5e5 bits, each at 5e5 bit/s -> both
	// finish at 1.5s.
	approxDur(t, a, 1500*time.Millisecond, time.Millisecond, "transfer a")
	approxDur(t, b, 1500*time.Millisecond, time.Millisecond, "transfer b")
}

func TestPipeZeroRateStall(t *testing.T) {
	prof := NewProfile(1e6)
	prof.SetRate(0, 10*time.Second, 0) // dead for the first 10s
	s, p := runPipe(prof)
	var doneAt time.Duration = -1
	s.At(0, func() { p.enqueue(125000, doneFunc(func(at time.Duration) { doneAt = at })) })
	s.Run()
	approxDur(t, doneAt, 11*time.Second, time.Millisecond, "stalled transfer")
}

func TestPipePermanentStallNeverCompletes(t *testing.T) {
	s, p := runPipe(NewProfile(0))
	done := false
	s.At(0, func() { p.enqueue(1000, doneFunc(func(time.Duration) { done = true })) })
	s.RunUntil(24 * time.Hour)
	if done {
		t.Fatal("transfer completed on a zero-capacity pipe")
	}
	if p.queued() != 1 {
		t.Fatalf("queued=%d, want 1", p.queued())
	}
}

func TestPipeRateDropMidTransfer(t *testing.T) {
	prof := NewProfile(1e6)
	prof.SetRate(500*time.Millisecond, Never, 0.5e6)
	s, p := runPipe(prof)
	var doneAt time.Duration = -1
	s.At(0, func() { p.enqueue(125000, doneFunc(func(at time.Duration) { doneAt = at })) })
	s.Run()
	// 0.5e6 bits in the first 0.5s, remaining 0.5e6 bits at 0.5e6 bit/s = 1s.
	approxDur(t, doneAt, 1500*time.Millisecond, time.Millisecond, "throttled transfer")
}

func TestPipeQuickSingleTransferTime(t *testing.T) {
	// For a constant-rate pipe with a single transfer, completion time must
	// match the analytic value bytes*8/rate to within rounding.
	f := func(kb uint16, mbit uint8) bool {
		bytes := int64(kb)*100 + 100
		rate := (float64(mbit%100) + 1) * 1e6
		s, p := runPipe(NewProfile(rate))
		var doneAt time.Duration = -1
		s.At(0, func() { p.enqueue(bytes, doneFunc(func(at time.Duration) { doneAt = at })) })
		s.Run()
		want := float64(bytes) * 8 / rate
		got := seconds(doneAt)
		return math.Abs(got-want) < 1e-6+want*1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPipeQuickCompletionMonotoneInSize(t *testing.T) {
	// Larger payloads never finish earlier than smaller ones enqueued at the
	// same instant on identical pipes.
	f := func(aKB, bKB uint16, mbit uint8) bool {
		small := int64(aKB%1000)*10 + 10
		large := small + int64(bKB)*10
		rate := (float64(mbit%50) + 1) * 1e6
		run := func(bytes int64) time.Duration {
			s, p := runPipe(NewProfile(rate))
			var doneAt time.Duration = -1
			s.At(0, func() { p.enqueue(bytes, doneFunc(func(at time.Duration) { doneAt = at })) })
			s.Run()
			return doneAt
		}
		return run(large) >= run(small)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPipeConservation(t *testing.T) {
	// k equal transfers through a shared pipe finish in k times the solo
	// duration (work conservation of the fluid model).
	for _, k := range []int{1, 2, 3, 5, 8} {
		s, p := runPipe(NewProfile(8e6))
		finished := make([]time.Duration, 0, k)
		s.At(0, func() {
			for i := 0; i < k; i++ {
				p.enqueue(1e6, doneFunc(func(at time.Duration) { finished = append(finished, at) }))
			}
		})
		s.Run()
		if len(finished) != k {
			t.Fatalf("k=%d: %d completions", k, len(finished))
		}
		want := time.Duration(k) * time.Second
		for _, at := range finished {
			approxDur(t, at, want, 5*time.Millisecond, "shared completion")
		}
	}
}

func TestPipeRampAllocatesLinearly(t *testing.T) {
	// A queue that builds up one transfer at a time — every flooded or
	// fan-in pipe — must grow its heap geometrically. Exact-size growth
	// reallocates it on every arrival: 32·n²/2 bytes, 64 MB at n = 2000,
	// against a few hundred KB for the whole linear ramp.
	prof := NewProfile(1e6)
	// Completions cross a breakpoint, so completion planning walks
	// segments on every arrival.
	prof.ThrottleMin(time.Second, time.Minute, 1e3)
	s, p := runPipe(prof)
	cb := doneFunc(func(time.Duration) {})
	const n = 2000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		p.enqueue(1_000_000, cb)
	}
	runtime.ReadMemStats(&after)
	if p.queued() != n || s.Pending() == 0 {
		t.Fatalf("queued %d transfers, %d events pending", p.queued(), s.Pending())
	}
	const perTransfer = 1 << 10
	if got := after.TotalAlloc - before.TotalAlloc; got > n*perTransfer {
		t.Fatalf("ramping to %d transfers allocated %d bytes, want O(n) (at most %d)", n, got, n*perTransfer)
	}
}
