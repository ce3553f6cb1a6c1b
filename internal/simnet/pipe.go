package simnet

import (
	"math"
	"slices"
	"time"
)

// epsBits: a transfer with less than half a bit remaining is complete; this
// absorbs float rounding in the fluid model.
const epsBits = 0.5

// transfer is one in-flight transmission on a pipe; c is advanced (via the
// scheduler) when the last bit has moved.
type transfer struct {
	remaining float64 // bits still to move
	c         completion
}

// pipe is a fair-shared resource (an access link direction) with a
// piecewise-constant capacity profile. All in-flight transfers share the
// instantaneous capacity equally: a flood is a drop in the profile, never a
// cap on one transfer.
//
// The hot path is allocation-free: transfers are stored by value and the
// share computation writes into pipe-owned scratch buffers.
type pipe struct {
	sched   *Scheduler
	prof    *Profile
	active  []transfer
	last    time.Duration // progress is accounted up to this instant
	wakeSeq uint64        // sequence number of the live wakeup; 0 when none queued
	wakeAt  time.Duration // instant of the live wakeup; Never when none queued

	// parked counts the transfers that arrived while the pipe could not move
	// a bit before the run's end: they are counted, never stored.
	parked int

	rates    []float64 // scratch: per-transfer allocation, indexed like active
	ratesCap float64   // the capacity rates was last filled for (len(rates) is its n)
	rem      []float64 // scratch: nextCompletion's forward-simulated bits

	// nextCompletion's first-segment scan, carried into the next advance:
	// the earliest finish (seconds from minAt) at rate minRate. It is current
	// while p.last is still minAt: every change to active is followed by a
	// nextCompletion that rewrites it, and p.last only moves forward.
	minAt     time.Duration
	minRate   float64
	minFinish float64

	// metered enables the observability meter: advance then accumulates the
	// bits actually moved into moved. Off (the default) the meter costs one
	// branch per segment step and nothing else; the samples never feed back
	// into the fluid model, so metering cannot perturb the simulation.
	metered bool
	moved   float64 // cumulative bits moved while metered
}

func newPipe(s *Scheduler, prof *Profile) *pipe {
	return &pipe{sched: s, prof: prof, wakeAt: Never}
}

// enqueue adds a transfer of the given size; c completes (via the
// scheduler) when the last bit has moved. It reports false when it parked
// the transfer instead: the pipe is dead from now until the run's end or
// later and has no wakeup queued, so nothing moves the transfer before the
// end and counting it is exact; stored, it would only lengthen the queue.
func (p *pipe) enqueue(bytes int64, c completion) bool {
	now := p.sched.Now()
	p.advance(now)
	if p.wakeAt == Never && p.prof.RateAt(now) <= 0 {
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
	p.active = append(p.active, transfer{remaining: sizeBits(bytes), c: c})
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

// allocate shares capacity equally among the active transfers; the result
// is indexed like active and read-only, valid until the next allocate call
// on any pipe of the scheduler. The vector depends on (capacity,
// len(active)) alone, so a queue of shareMemoMin to shareRingMax transfers
// is served from the scheduler's memo; any other is filled into the pipe's
// scratch, unless that already holds the vector for the same key.
//
//detlint:hotpath
func (p *pipe) allocate(capacity float64) []float64 {
	n := len(p.active)
	if n >= shareMemoMin && n <= shareRingMax {
		if p.sched.shares == nil {
			p.sched.shares = &shareMemo{}
		}
		return p.sched.shares.lookup(capacity, n)
	}
	if n != len(p.rates) || capacity != p.ratesCap {
		p.rates = fillShares(growScratch(p.rates, n), capacity)
		p.ratesCap = capacity
	}
	return p.rates
}

// fillShares writes the equal share of capacity into every element of
// rates. The fill is progressive — each transfer takes an equal part of what
// the ones before it left — so the last share is exactly what remains and
// float rounding never hands out more than the capacity.
//
//detlint:hotpath
func fillShares(rates []float64, capacity float64) []float64 {
	if capacity <= 0 {
		clear(rates)
		return rates
	}
	n := len(rates)
	remaining := capacity
	for i := range rates {
		share := remaining / float64(n-i)
		rates[i] = share
		remaining -= share
	}
	return rates
}

// shareMemoMin is the shortest queue allocate serves from the memo. The
// memo's ring costs a run up to 512 KiB, which short queues do not repay:
// below 128 a pipe refills its own short vector, and only when its key
// changed. The deepest consensus-tier queue measured is 76 transfers, so
// the consensus tier never builds the ring.
const shareMemoMin = 128

// shareRingMax is the memo ring's size in shares (512 KiB), which bounds the
// memo's memory; a longer queue is filled into its pipe's scratch.
const shareRingMax = 64 << 10

// shareSlots is the size of the memo's direct-mapped index.
const shareSlots = 256

// shareMemo holds the share vectors of one scheduler's deep queues, keyed
// by (capacity, n), back to back in one ring. Flooded pipes of one tier
// share a capacity and walk through the same queue lengths, so each vector
// is filled about once per run.
//
// The index maps a key to slot (n + hash(capacity)) mod shareSlots, so the
// consecutive queue lengths of one capacity never collide. A slot's vector
// stays live until the ring's head has moved a whole ring past its start;
// a miss fills at the head, skipping the ring's tail when the vector would
// straddle its end. Ring positions count from the first fill and never
// wrap, and the ring only grows before its head first reaches the end, so
// a position is its offset until then.
type shareMemo struct {
	ring  []float64
	head  uint64 // ring position of the next fill
	slots [shareSlots]shareSlot
	fills int // vectors filled, for the tests
}

type shareSlot struct {
	capacity float64
	n        int // 0 = unused
	start    uint64
}

// lookup returns the share vector for (capacity, n), for n in
// [1, shareRingMax]. It stays valid until the ring's head has moved a ring
// past it, at least until the next lookup.
//
//detlint:hotpath
func (m *shareMemo) lookup(capacity float64, n int) []float64 {
	s := &m.slots[(uint64(n)+capacityHash(capacity))%shareSlots]
	size := uint64(len(m.ring))
	if s.n == n && s.capacity == capacity && m.head-s.start <= size {
		off := s.start % size
		return m.ring[off : off+uint64(n)]
	}
	if m.head+uint64(n) > size && size < shareRingMax {
		m.grow(n)
		size = uint64(len(m.ring))
	}
	off := m.head % size
	if off+uint64(n) > size {
		m.head += size - off
		off = 0
	}
	*s = shareSlot{capacity: capacity, n: n, start: m.head}
	m.head += uint64(n)
	m.fills++
	return fillShares(m.ring[off:off+uint64(n)], capacity)
}

// grow enlarges the ring, which has not wrapped yet, to hold n more shares
// past its head: at least double, at most shareRingMax. Every vector keeps
// its offset.
func (m *shareMemo) grow(n int) {
	ring := make([]float64, min(max(2*len(m.ring), int(m.head)+n), shareRingMax))
	copy(ring, m.ring[:m.head])
	m.ring = ring
}

// capacityHash spreads capacities over the memo's slots (Fibonacci hashing:
// the top byte of the bits times 2⁶⁴/φ).
//
//detlint:hotpath
func capacityHash(capacity float64) uint64 {
	return math.Float64bits(capacity) * 0x9e3779b97f4a7c15 >> 56
}

// growScratch returns buf resized to n elements, contents unspecified.
// Growth is geometric: a queue that builds up one transfer at a time (every
// flooded or fan-in pipe) would otherwise reallocate the whole buffer per
// arrival, O(n²) bytes for a queue of n.
//
//detlint:hotpath
func growScratch(buf []float64, n int) []float64 {
	return slices.Grow(buf[:0], n)[:n]
}

// advance moves the pipe's accounting from p.last to now, draining bits from
// active transfers. Completed transfers are removed and their callbacks are
// scheduled (at the current scheduler time, preserving causality); the pass
// that removes them starts at the first one, and a step that completes none
// makes no pass.
//
//detlint:hotpath
func (p *pipe) advance(now time.Duration) {
	for p.last < now && len(p.active) > 0 {
		segEnd := p.prof.nextChange(p.last)
		if segEnd > now {
			segEnd = now
		}
		rate := p.prof.RateAt(p.last)
		if rate <= 0 {
			p.last = segEnd
			continue
		}
		rates := p.allocate(rate)
		minFinish := p.minFinish
		if p.minAt != p.last || p.minRate != rate {
			minFinish = earliestFinish(p.active, rates)
		}
		span := seconds(segEnd - p.last)
		var step time.Duration
		if minFinish >= span {
			step = segEnd - p.last
		} else {
			step = durCeil(minFinish)
			if p.last+step > segEnd {
				step = segEnd - p.last
			}
		}
		stepSec := seconds(step)
		first := -1 // the first transfer this step completed
		for i := range p.active {
			t := &p.active[i]
			t.remaining -= rates[i] * stepSec
			if t.remaining <= epsBits && first < 0 {
				first = i
			}
		}
		if p.metered {
			for i := range p.active {
				p.moved += rates[i] * stepSec
			}
		}
		p.last += step
		if first >= 0 {
			p.collectDone(first)
		}
	}
	if p.last < now {
		p.last = now
	}
}

// collectDone removes finished transfers, the first of them at index first,
// and schedules their completions.
//
//detlint:hotpath
func (p *pipe) collectDone(first int) {
	kept := p.active[:first]
	for i := first; i < len(p.active); i++ {
		t := &p.active[i]
		if t.remaining <= epsBits {
			at := p.last
			if sn := p.sched.Now(); at < sn {
				at = sn
			}
			p.sched.push(at, t.c)
			continue
		}
		kept = append(kept, *t)
	}
	p.active = kept
}

// earliestFinish is the soonest any transfer finishes at rates, in seconds;
// +Inf when none is moving.
//
//detlint:hotpath
func earliestFinish(active []transfer, rates []float64) float64 {
	minFinish := math.Inf(1)
	for i := range active {
		if rates[i] > 0 {
			if ft := active[i].remaining / rates[i]; ft < minFinish {
				minFinish = ft
			}
		}
	}
	return minFinish
}

// nextCompletion simulates forward from p.last (without mutating state) and
// returns the instant of the earliest transfer completion, or Never if the
// pipe is stalled forever. The common case — the earliest finisher lands
// inside the profile segment active at p.last — needs no forward
// simulation at all: the remaining-bits vector is only cloned (into pipe
// scratch) once the walk has to cross a segment boundary.
//
//detlint:hotpath
func (p *pipe) nextCompletion() time.Duration {
	if len(p.active) == 0 {
		return Never
	}
	var rem []float64 // nil until a segment boundary forces the clone
	t := p.last
	for {
		segEnd := p.prof.nextChange(t)
		rate := p.prof.RateAt(t)
		if rate <= 0 {
			if segEnd == Never {
				return Never
			}
			t = segEnd
			continue
		}
		rates := p.allocate(rate)
		minFinish := math.Inf(1)
		if rem == nil {
			minFinish = earliestFinish(p.active, rates)
			if t == p.last {
				p.minAt, p.minRate, p.minFinish = t, rate, minFinish
			}
		} else {
			for i := range rem {
				if rates[i] > 0 {
					if ft := rem[i] / rates[i]; ft < minFinish {
						minFinish = ft
					}
				}
			}
		}
		finishAt := addDur(t, durCeil(minFinish))
		if segEnd == Never || finishAt <= segEnd {
			return finishAt
		}
		if rem == nil {
			p.rem = growScratch(p.rem, len(p.active))
			rem = p.rem
			for i := range p.active {
				rem[i] = p.active[i].remaining
			}
		}
		span := seconds(segEnd - t)
		for i := range rem {
			rem[i] -= rates[i] * span
			if rem[i] < 0 {
				rem[i] = 0
			}
		}
		t = segEnd
	}
}

// reschedule plans the next wakeup (earliest completion or stall end). When
// the computed wakeup equals the one already queued and still live, the
// existing event is kept — re-pushing would pile a stale event onto the
// heap for every enqueue that leaves the earliest completion unchanged.
// Otherwise the new wakeup's sequence number replaces wakeSeq, which leaves
// any previously queued one stale. A completion past the run's end plans no
// wakeup at all, so a later reschedule counts no stale entry for it.
func (p *pipe) reschedule() {
	at := p.nextCompletion()
	if p.sched.pastEnd(at) {
		at = Never
	}
	if at != Never && at == p.wakeAt {
		return
	}
	if p.wakeAt != Never {
		p.sched.stale++ // the queued wakeup now pops as a no-op
	}
	p.wakeAt = at
	p.wakeSeq = p.sched.push(at, p)
}

// complete runs a wakeup. A stale one (not the live wakeup's sequence
// number) is a no-op. The live one accounts progress up to now — completing
// at least the transfer it was computed for — and plans the next.
func (p *pipe) complete(now time.Duration) {
	if p.sched.running != p.wakeSeq {
		p.sched.stale--
		return
	}
	p.wakeAt = Never // consumed; reschedule must push anew
	p.advance(now)
	p.reschedule()
}
