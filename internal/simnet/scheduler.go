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
// interface boxing on the push/pop hot path. Every placement goes through
// set, which records a pipe wakeup's slot on its pipe, so a pipe can move or
// remove its one queued wakeup in place.
type eventQueue []event

// set places ev at i and, when it is a pipe's wakeup, records the slot.
//
//detlint:hotpath
func (h eventQueue) set(i int, ev event) {
	h[i] = ev
	if p, ok := ev.c.(*pipe); ok {
		p.slot = i
	}
}

// push appends ev and sifts it up to its position.
//
//detlint:hotpath
func (q *eventQueue) push(ev event) {
	*q = append(*q, ev)
	q.siftUp(len(*q)-1, ev)
}

// pop removes and returns the earliest event.
//
//detlint:hotpath
func (q *eventQueue) pop() event {
	top := (*q)[0]
	q.remove(0)
	return top
}

// remove deletes the event at i: the last leaf fills the hole and is sifted
// to its position.
//
//detlint:hotpath
func (q *eventQueue) remove(i int) {
	h := *q
	n := len(h) - 1
	ev := h[n]
	h[n] = event{} // release the callback for GC
	*q = h[:n]
	if i < n {
		q.fix(i, ev)
	}
}

// fix places ev in the slot at i, whose event it replaces, and sifts it up
// or down to its position.
//
//detlint:hotpath
func (q *eventQueue) fix(i int, ev event) {
	if i > 0 && ev.before(&(*q)[(i-1)/heapArity]) {
		q.siftUp(i, ev)
	} else {
		q.siftDown(i, ev)
	}
}

// siftUp places ev in the hole at i, moving later parents down until ev
// follows its own.
//
//detlint:hotpath
func (q *eventQueue) siftUp(i int, ev event) {
	h := *q
	for i > 0 {
		parent := (i - 1) / heapArity
		if !ev.before(&h[parent]) {
			break
		}
		h.set(i, h[parent])
		i = parent
	}
	h.set(i, ev)
}

// siftDown places ev in the hole at i, moving earlier children up until ev
// precedes all of its own.
//
//detlint:hotpath
func (q *eventQueue) siftDown(i int, ev event) {
	h := *q
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
		h.set(i, h[min])
		i = min
	}
	h.set(i, ev)
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

	// lane holds the transits due at now, in sequence order, threaded
	// through transit.next: a pipe hands every finished transfer on at now,
	// and these need no heap. RunUntil merges the lane with the queue in
	// (at, seq) order. lane is its head, laneTail its tail.
	lane, laneTail *transit

	// end is the run's last instant: Network.Run sets it to its limit before
	// the first event, and nothing past it is queued or planned. Never (the
	// default) keeps everything, for a scheduler stepped by RunUntil. beyond
	// records that something was due past end: it would have stayed queued
	// for the whole run, so the queue never counts as drained.
	end    time.Duration
	beyond bool
}

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

// push queues c at t, unless t is Never or past the run's end.
//
//detlint:hotpath
func (s *Scheduler) push(t time.Duration, c completion) {
	if t == Never {
		return
	}
	if t < s.now {
		//detlint:hotpath ok(cold panic path: formatting only runs on a caller bug)
		panic(fmt.Sprintf("simnet: scheduling event at %v before now %v", t, s.now))
	}
	if s.pastEnd(t) {
		return // it could never run; skipping its seq keeps every other event's order
	}
	s.seq++
	if tr, ok := c.(*transit); ok && t == s.now {
		tr.seq = s.seq // tr.next is nil: a transit in flight is on no list
		if s.laneTail == nil {
			s.lane = tr
		} else {
			s.laneTail.next = tr
		}
		s.laneTail = tr
		return
	}
	s.queue.push(event{at: t, seq: s.seq, c: c})
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
// events executed. The lane's head runs before the queue's top unless the
// top is due now with an earlier sequence number: the lane is due now in
// rising sequence order, so the merge is the queue's own (at, seq) order.
//
//detlint:hotpath
func (s *Scheduler) RunUntil(limit time.Duration) uint64 {
	var executed uint64
	for {
		if tr := s.lane; tr != nil && s.now <= limit &&
			(len(s.queue) == 0 || s.queue[0].at > s.now || s.queue[0].seq > tr.seq) {
			s.lane, tr.next = tr.next, nil
			if s.lane == nil {
				s.laneTail = nil
			}
			tr.complete(s.now)
		} else if len(s.queue) > 0 && s.queue[0].at <= limit {
			next := s.queue.pop()
			s.now = next.at
			next.c.complete(s.now)
		} else {
			break
		}
		executed++
	}
	if s.now < limit && limit != Never {
		s.now = limit
	}
	globalSteps.Add(executed)
	return executed
}

// Run executes events until the queue is empty.
func (s *Scheduler) Run() uint64 { return s.RunUntil(Never) }

// Pending reports how many events are queued, the lane's included. A pipe
// queues one wakeup at most, its live one, so the queue drains as soon as
// nothing is left to run (the traced sampler's stop condition).
func (s *Scheduler) Pending() int {
	n := len(s.queue)
	for tr := s.lane; tr != nil; tr = tr.next {
		n++
	}
	return n
}
