package simnet

import (
	"fmt"
	"sync/atomic"
	"time"
)

// completion is a stateful continuation: an object advanced at its
// scheduled instant. The transport's pooled transit records implement it,
// which is what lets a message's three legs (uplink, latency, downlink)
// ride one reusable value instead of three per-send closures; a pipe
// implements it for its wakeups, and funcEvent for a plain callback.
type completion interface {
	complete(at time.Duration)
}

// funcEvent is a plain callback queued by At. A func value is
// pointer-shaped, so converting one to a completion allocates nothing.
type funcEvent func()

func (f funcEvent) complete(time.Duration) { f() }

// event is a scheduled completion. Events with equal timestamps run in
// scheduling order (seq), which keeps the simulation deterministic.
type event struct {
	at  time.Duration
	seq uint64
	c   completion
}

// before reports whether e fires before o: lexicographic (at, seq) order.
// seq values are unique, so this is a total order and any correct heap pops
// the exact same event sequence — the determinism contract does not depend
// on the heap's shape.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// heapArity is the fan-out of the event queue. A 4-ary heap halves the tree
// depth of a binary heap; sift-downs dominate a discrete-event scheduler
// (every pop replaces the root with the last leaf), and the four children,
// 32 bytes each, span two cache lines.
const heapArity = 4

// eventQueue is a value-typed d-ary min-heap ordered by (at, seq). Events
// are stored inline: no per-event heap allocation and no container/heap
// interface boxing on the push/pop hot path.
type eventQueue []event

// push appends ev and sifts it up to its position.
//
//detlint:hotpath
func (q *eventQueue) push(ev event) {
	*q = append(*q, ev)
	h := *q
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / heapArity
		if !ev.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
}

// pop removes and returns the earliest event.
//
//detlint:hotpath
func (q *eventQueue) pop() event {
	h := *q
	top := h[0]
	n := len(h) - 1
	ev := h[n]
	h[n] = event{} // release the callback for GC
	h = h[:n]
	*q = h
	if n > 0 {
		h.siftDown(0, ev)
	}
	return top
}

// siftDown places ev in the hole at i, moving earlier children up until ev
// precedes all of its own.
//
//detlint:hotpath
func (h eventQueue) siftDown(i int, ev event) {
	n := len(h)
	for {
		first := heapArity*i + 1
		if first >= n {
			break
		}
		min := first
		last := first + heapArity
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if h[c].before(&h[min]) {
				min = c
			}
		}
		if !h[min].before(&ev) {
			break
		}
		h[i] = h[min]
		i = min
	}
	h[i] = ev
}

// heapify restores the heap order over arbitrary contents (Floyd's
// bottom-up construction).
//
//detlint:hotpath
func (h eventQueue) heapify() {
	for i := (len(h) - 2) / heapArity; i >= 0; i-- {
		h.siftDown(i, h[i])
	}
}

// globalSteps counts events executed by every Scheduler in the process. It
// is bumped once per RunUntil call (not per event), so the hot loop stays
// atomic-free.
var globalSteps atomic.Uint64

// GlobalSteps returns the total number of events executed process-wide: the
// kernel-throughput counter the benchmark's simnet.events metric reads.
func GlobalSteps() uint64 { return globalSteps.Load() }

// Scheduler is a virtual clock with an event queue.
type Scheduler struct {
	now   time.Duration
	seq   uint64
	queue eventQueue

	// running is the sequence number of the event being run. stale counts
	// the queued pipe wakeups a reschedule superseded: they pop as no-ops,
	// and RunUntil compacts them away once they crowd the heap.
	running uint64
	stale   int

	// end is the run's last instant: Network.Run sets it to its limit before
	// the first event, and nothing past it is queued or planned. Never (the
	// default) keeps everything, for a scheduler stepped by RunUntil. beyond
	// records that something was due past end: it would have stayed queued
	// for the whole run, so the queue never counts as drained.
	end    time.Duration
	beyond bool
}

// staleCompactMin is the stale-wakeup count below which compaction is never
// worth a pass over the heap.
const staleCompactMin = 64

// NewScheduler returns a scheduler at virtual time zero.
func NewScheduler() *Scheduler { return &Scheduler{end: Never} }

// Now returns the current virtual time.
func (s *Scheduler) Now() time.Duration { return s.now }

// At schedules fn at virtual time t. Scheduling in the past is a bug in the
// caller and panics; scheduling at Never is a no-op (the event can never
// fire).
//
//detlint:hotpath
func (s *Scheduler) At(t time.Duration, fn func()) { s.push(t, funcEvent(fn)) }

// push queues c at t and returns the event's sequence number, or 0 when
// nothing was queued: t is Never or past the run's end.
//
//detlint:hotpath
func (s *Scheduler) push(t time.Duration, c completion) uint64 {
	if t == Never {
		return 0
	}
	if t < s.now {
		//detlint:hotpath ok(cold panic path: formatting only runs on a caller bug)
		panic(fmt.Sprintf("simnet: scheduling event at %v before now %v", t, s.now))
	}
	if s.pastEnd(t) {
		return 0 // it could never run; skipping its seq keeps every other event's order
	}
	s.seq++
	s.queue.push(event{at: t, seq: s.seq, c: c})
	return s.seq
}

// pastEnd reports whether an instant lies past the run's end, where nothing
// runs, and notes that something was due there. Never is not past the end:
// an event at Never is no event at all.
//
//detlint:hotpath
func (s *Scheduler) pastEnd(t time.Duration) bool {
	if t <= s.end || t == Never {
		return false
	}
	s.beyond = true
	return true
}

// After schedules fn after duration d.
func (s *Scheduler) After(d time.Duration, fn func()) { s.At(addDur(s.now, d), fn) }

// RunUntil executes events in timestamp order until the queue is empty or
// the next event is after the limit; the clock then rests at the limit (or
// at the last event if the queue drained first). It returns the number of
// events executed, stale wakeups included, compacted or popped.
//
//detlint:hotpath
func (s *Scheduler) RunUntil(limit time.Duration) uint64 {
	var executed uint64
	// floor is the stale wakeups a compaction in this call left behind: all
	// of them lie past limit, so none can be removed before the next call.
	floor := 0
	for len(s.queue) > 0 {
		if s.queue[0].at > limit {
			break
		}
		if n := s.stale - floor; n > 0 && s.wantCompact(n) {
			executed += s.compact(limit)
			floor = s.stale
			continue
		}
		next := s.queue.pop()
		s.now, s.running = next.at, next.seq
		next.c.complete(s.now)
		executed++
	}
	if s.now < limit && limit != Never {
		s.now = limit
	}
	globalSteps.Add(executed)
	return executed
}

// wantCompact reports whether n removable stale wakeups justify a pass over
// the heap: when they outnumber both staleCompactMin and the live entries,
// so each pass at least halves the queue.
//
//detlint:hotpath
func (s *Scheduler) wantCompact(n int) bool {
	return n > staleCompactMin && 2*n > len(s.queue)
}

// compact removes the stale wakeups due by limit and re-heapifies, and
// returns how many it removed. Each of them would have popped as a no-op
// inside this RunUntil call, so the caller counts them as executed. The
// order of what remains is unchanged: (at, seq) is a total order, so any
// heap over the same events pops the same sequence. The latest candidate
// stays queued, to pop as a no-op in its turn, so the queue drains exactly
// when it would have without compaction (the traced sampler's stop
// condition) and the clock ends where it would have.
//
//detlint:hotpath
func (s *Scheduler) compact(limit time.Duration) uint64 {
	last := -1
	for i := range s.queue {
		if ev := &s.queue[i]; s.removable(ev, limit) && (last < 0 || s.queue[last].before(ev)) {
			last = i
		}
	}
	kept := s.queue[:0]
	removed := 0
	for i := range s.queue {
		if i != last && s.removable(&s.queue[i], limit) {
			removed++
			continue
		}
		kept = append(kept, s.queue[i])
	}
	clear(s.queue[len(kept):]) // release the callbacks for GC
	s.queue = kept
	s.queue.heapify()
	s.stale -= removed
	return uint64(removed)
}

// removable reports whether ev is a stale wakeup due by limit: a pipe's
// wakeup that is not the pipe's live one.
//
//detlint:hotpath
func (s *Scheduler) removable(ev *event, limit time.Duration) bool {
	p, ok := ev.c.(*pipe)
	return ev.at <= limit && ok && ev.seq != p.wakeSeq
}

// Run executes events until the queue is empty.
func (s *Scheduler) Run() uint64 { return s.RunUntil(Never) }

// Pending reports how many events are queued, stale wakeups included.
// Compaction keeps the latest stale wakeup, so the queue drains at the same
// event as without it (the traced sampler's stop condition).
func (s *Scheduler) Pending() int { return len(s.queue) }
