package simnet

import "time"

// epsBits: a transfer with less than half a bit remaining is complete; this
// absorbs float rounding in the fluid model.
const epsBits = 0.5

// transfer is one in-flight transmission on a pipe; c is advanced (via the
// scheduler) when the last bit has moved. finish is the pipe's served count
// at which the transfer is done: served at its arrival plus its size, so its
// remaining bits are finish − served. arrival orders transfers with equal
// finish tags by arrival; a uint32 keeps a transfer at 32 bytes (pinned by
// TestPipeEqualShareAllocFree), and wrapping it would take 2³² arrivals
// without the pipe once draining.
type transfer struct {
	finish  float64
	arrival uint32
	c       completion
}

// before reports whether t finishes before o: lexicographic (finish,
// arrival) order.
func (t *transfer) before(o *transfer) bool {
	if t.finish != o.finish {
		return t.finish < o.finish
	}
	return t.arrival < o.arrival
}

// transferHeap is a value-typed min-heap of transfers ordered by (finish,
// arrival), laid out like the event queue.
type transferHeap []transfer

// push appends t and sifts it up to its position.
//
//detlint:hotpath
func (h *transferHeap) push(t transfer) {
	*h = append(*h, t)
	q := *h
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / heapArity
		if !t.before(&q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = t
}

// pop removes and returns the earliest finisher.
//
//detlint:hotpath
func (h *transferHeap) pop() transfer {
	q := *h
	top := q[0]
	n := len(q) - 1
	t := q[n]
	q[n] = transfer{} // release the completion for GC
	q = q[:n]
	*h = q
	if n == 0 {
		return top
	}
	i := 0
	for {
		first := heapArity*i + 1
		if first >= n {
			break
		}
		min := first
		for c := first + 1; c < first+heapArity && c < n; c++ {
			if q[c].before(&q[min]) {
				min = c
			}
		}
		if !q[min].before(&t) {
			break
		}
		q[i] = q[min]
		i = min
	}
	q[i] = t
	return top
}

// pipe is a fair-shared resource (an access link direction) with a
// piecewise-constant capacity profile. All in-flight transfers share the
// instantaneous capacity equally: a flood is a drop in the profile, never a
// cap on one transfer.
//
// The pipe is an exact processor-sharing queue. Since every transfer gets
// the same share, one counter, served, says how many bits each of them has
// received, and a transfer is done when served reaches its finish tag. A
// step adds rate/n × dt to served, the earliest finisher is the heap's top,
// and nothing walks the queue: enqueue and completion cost O(log n), a step
// O(1). served and the arrival stamps restart at 0 whenever the pipe drains.
type pipe struct {
	sched    *Scheduler
	prof     *Profile
	active   transferHeap
	served   float64       // bits every in-flight transfer has received since the pipe last drained
	arrivals uint32        // stamp of the next arrival since the pipe last drained
	last     time.Duration // progress is accounted up to this instant
	slot     int           // the queued wakeup's index in the event queue; -1 when none is queued

	// parked counts the transfers that arrived while the pipe could not move
	// a bit before the run's end: they are counted, never stored.
	parked int

	// metered enables the observability meter: advance then accumulates the
	// bits actually moved into moved. Off (the default) the meter costs one
	// branch per segment step and nothing else; the samples never feed back
	// into the fluid model, so metering cannot perturb the simulation.
	metered bool
	moved   float64 // cumulative bits moved while metered
}

func newPipe(s *Scheduler, prof *Profile) *pipe {
	return &pipe{sched: s, prof: prof, slot: -1}
}

// enqueue adds a transfer of the given size; c completes (via the
// scheduler) when the last bit has moved. It reports false when it parked
// the transfer instead: the pipe is dead from now until the run's end or
// later and has no wakeup queued, so nothing moves the transfer before the
// end and counting it is exact; stored, it would only lengthen the queue.
//
//detlint:hotpath
func (p *pipe) enqueue(bytes int64, c completion) bool {
	now := p.sched.Now()
	p.advance(now)
	if p.slot < 0 && p.prof.RateAt(now) <= 0 {
		if next := p.prof.nextChange(now); next >= p.sched.end {
			p.parked++
			if next != Never {
				// Stored, it would have planned its finish after the link
				// returns, past the end; dead forever, it plans nothing.
				p.sched.beyond = true
			}
			return false
		}
	}
	p.active.push(transfer{finish: p.served + sizeBits(bytes), arrival: p.arrivals, c: c})
	p.arrivals++
	p.reschedule()
	return true
}

// sizeBits converts a byte count to transferable bits.
func sizeBits(bytes int64) float64 {
	bits := float64(bytes) * 8
	if bits < 1 {
		bits = 1 // zero-size messages still occupy the pipe for an instant
	}
	return bits
}

// queued reports the number of in-flight transfers, parked ones included
// (for tests/metrics).
func (p *pipe) queued() int { return len(p.active) + p.parked }

// advance moves the pipe's accounting from p.last to now, one profile
// segment or completion at a time. Completed transfers leave the heap in
// (finish, arrival) order and their callbacks are scheduled in that order,
// at the current scheduler time (preserving causality).
//
//detlint:hotpath
func (p *pipe) advance(now time.Duration) {
	for p.last < now && len(p.active) > 0 {
		segEnd := min(p.prof.nextChange(p.last), now)
		rate := p.prof.RateAt(p.last)
		if rate <= 0 {
			p.last = segEnd
			continue
		}
		share := rate / float64(len(p.active))
		step := segEnd - p.last
		if finish := (p.active[0].finish - p.served) / share; finish < seconds(step) {
			step = min(durCeil(finish), step)
		}
		p.served += float64(share * seconds(step))
		if p.metered {
			p.moved += float64(rate * seconds(step))
		}
		p.last += step
		at := max(p.last, p.sched.Now())
		for len(p.active) > 0 && p.active[0].finish-p.served <= epsBits {
			p.sched.push(at, p.active.pop().c)
		}
		if len(p.active) == 0 {
			p.served, p.arrivals = 0, 0 // drained: rebase
		}
	}
	if p.last < now {
		p.last = now
	}
}

// nextCompletion returns the instant the heap's top finishes, walking the
// profile's segments from p.last with its remaining bits (without mutating
// state), or Never if the pipe is stalled forever. The queue's length is
// fixed until then, so the top stays the earliest finisher throughout. A
// top left with at most epsBits at a breakpoint finishes there, as advance
// completes it on reaching one.
//
//detlint:hotpath
func (p *pipe) nextCompletion() time.Duration {
	if len(p.active) == 0 {
		return Never
	}
	n := float64(len(p.active))
	rem := p.active[0].finish - p.served
	t := p.last
	for {
		segEnd := p.prof.nextChange(t)
		if rate := p.prof.RateAt(t); rate > 0 {
			share := rate / n
			finishAt := addDur(t, durCeil(rem/share))
			if segEnd == Never || finishAt <= segEnd {
				return finishAt
			}
			if rem -= float64(share * seconds(segEnd-t)); rem <= epsBits {
				return segEnd // advance completes it on reaching the breakpoint
			}
		} else if segEnd == Never {
			return Never
		}
		t = segEnd
	}
}

// reschedule plans the next wakeup (earliest completion or stall end) and
// keeps the pipe's one queued wakeup on it. An unchanged instant keeps the
// queued event; a new one moves it in place with a fresh sequence number,
// exactly as if it had been pushed now; with none queued, it is pushed. A
// plan of Never or past the run's end removes the queued wakeup.
func (p *pipe) reschedule() {
	at := p.nextCompletion()
	s := p.sched
	switch {
	case at == Never || s.pastEnd(at):
		if p.slot >= 0 {
			s.queue.remove(p.slot)
			p.slot = -1
		}
	case p.slot < 0:
		s.push(at, p)
	case s.queue[p.slot].at != at:
		s.seq++
		s.queue.fix(p.slot, event{at: at, seq: s.seq, c: p})
	}
}

// complete runs the pipe's wakeup, which the queue has just popped: it
// accounts progress up to now — completing at least the transfer it was
// computed for — and plans the next.
func (p *pipe) complete(now time.Duration) {
	p.slot = -1
	p.advance(now)
	p.reschedule()
}
