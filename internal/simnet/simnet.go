// Package simnet is a deterministic discrete-event network simulator.
//
// It stands in for the Shadow simulator used by the paper "Five Minutes of
// DDoS Brings down Tor" (EUROSYS '26). Protocol code runs as Handler
// implementations attached to nodes; the simulator provides a virtual clock,
// timers, and message transport with explicit bandwidth modelling:
//
//   - every node owns an uplink and a downlink pipe;
//   - a pipe has a piecewise-constant capacity profile (bits/second) and
//     shares it equally among all in-flight transfers;
//   - a message travels uplink -> per-pair propagation latency -> downlink;
//   - a DDoS window is modelled by throttling a node's profiles to the
//     residual bandwidth (possibly zero) for an interval: traffic stalls and
//     resumes, which is exactly the "delayed, never lost" semantics of the
//     partial synchrony model.
//
// The simulation is single-threaded and fully deterministic for a given
// configuration and seed.
//
// # Kernel invariants
//
// The kernel is optimized for flood-scale fan-in (hundreds of concurrent
// transfers per pipe, millions of events per run) under one non-negotiable
// contract, pinned by the golden corpus test in internal/harness: outputs
// are byte-identical for a fixed configuration and seed. The invariants the
// fast paths rely on:
//
//   - Event ordering. Events execute in (timestamp, scheduling-sequence)
//     order. The sequence number is unique, so the order is total and does
//     not depend on the heap's internal shape; the queue is a value-typed
//     4-ary heap purely as an optimization (no per-event allocation, no
//     container/heap boxing, half the sift depth of a binary heap). A
//     transit queued for the current instant skips the heap: it takes its
//     sequence number and joins a FIFO lane, and RunUntil runs the lane's
//     head or the heap's top, whichever is first in (timestamp, sequence)
//     order. A pipe hands every finished transfer on at once, so two of a
//     message's three transit legs are due now. The lane's transits are
//     all due now, in rising sequence order, so the merge executes the
//     heap's own order, event for event; pipe wakeups, timers and latency
//     legs stay in the heap.
//
//   - Equal share. A pipe divides its instantaneous capacity equally among
//     its in-flight transfers: each gets exactly rate/n. Nothing caps an
//     individual transfer: a flood is a drop in a node's Profile, as in the
//     paper. Equal shares make a pipe an exact processor-sharing queue with
//     one counter, served (the bits every in-flight transfer has received),
//     and a heap of finish tags (served at arrival plus size, ties broken by
//     arrival): a step adds rate/n × dt to served, the heap's top is the
//     earliest finisher, and no step walks the queue. served and the arrival
//     stamps restart at 0 whenever the pipe drains.
//
//   - Completion planning. An event is (instant, sequence number,
//     completion); a plain callback is a completion too. A pipe has at most
//     one queued wakeup, always the live one (the earliest completion): the
//     queue records its slot on the pipe whenever a sift places it. A
//     reschedule that computes the same instant keeps the queued event; a
//     new instant moves it in place with a fresh sequence number, exactly as
//     if it had been pushed then; a plan of Never or past the run's end
//     removes it. So the queue never holds a no-op. The wakeup is the heap
//     top's finish: nextCompletion walks the profile's segments carrying
//     that one transfer's remaining bits, and completed transfers are
//     scheduled in (finish, arrival) order.
//
//   - Run end. A Network runs once (a second Run panics), so its limit is
//     known before the first event and nothing past it is built: an event
//     due after the end is never queued (and takes no sequence number, so
//     the order of the rest is unchanged), a completion planned past it
//     leaves its pipe no wakeup, and a transfer arriving at a pipe dead now
//     and until the end or later is counted as parked instead of stored,
//     its message handed once to the hook SetHandBack installs, so the
//     sender can reuse it. None of them could have run inside the limit.
//     The scheduler notes that something was due past the end, and the
//     traced sampler then never stops on a drained queue, so it stops
//     exactly where it would have. A Scheduler stepped by RunUntil has no end: it parks only what
//     arrives at a pipe dead forever.
//
//   - Profiles are single-simulation state. RateAt/nextChange cache a
//     segment cursor (pipes advance monotonically through virtual time), so
//     a Profile must not be shared between concurrently running networks —
//     every run builds its own, as the harness and dircache tiers do.
//
//   - No per-step garbage. A transfer is a 32-byte heap entry stored by
//     value; a warm pipe allocates nothing per enqueue or wakeup, however
//     deep (TestPipeEqualShareAllocFree), and a queue built one arrival at
//     a time allocates O(n) in total (TestPipeRampAllocatesLinearly). The
//     lane is threaded through the transits' own next field, the transit
//     pool's free-list link, which no in-flight transit uses, and a transit
//     with its sequence number stays in the 80-byte size class
//     (TestTransitShape), so a same-instant burst allocates nothing
//     (TestSameInstantBurstAllocFree).
//
//   - Checked against a reference. The _test.go files hold a naive kernel
//     with no parking or run end: a sorted-slice scheduler, links that walk
//     every transfer's remaining bits per step and delete and requeue their
//     one wakeup wherever its instant changes, and the three transport legs.
//     Generated pipes and networks (throttled, dead until before, at or past
//     the end, or forever; fan-in bursts; timers past the end), run final
//     and stepped, must match it within a nanosecond per completion, event
//     for event, with every message accounted for at each sample
//     (TestKernelMatchesReference). A kernel change is judged by this
//     differential.
package simnet

import (
	"math"
	"time"
)

// Never is a sentinel virtual-time instant meaning "no event will ever
// occur" (an unbounded stall, e.g. a permanently zero-rate pipe).
const Never = time.Duration(math.MaxInt64)

// NodeID identifies a node within a Network. IDs are dense and start at 0.
type NodeID int

// Message is anything a protocol sends between nodes. The simulator only
// needs its wire size (for bandwidth accounting) and a kind label (for
// per-type accounting and traces); payloads are passed by reference.
type Message interface {
	// Size returns the serialized size in bytes, excluding the fixed
	// per-message overhead configured on the network.
	Size() int64
	// Kind returns a short stable label such as "vote" or "proposal".
	Kind() string
}

// Handler is the protocol logic attached to a node.
type Handler interface {
	// Start runs at virtual time zero, before any delivery.
	Start(ctx *Context)
	// Deliver runs when a message from another node finishes its downlink
	// transfer.
	Deliver(ctx *Context, from NodeID, msg Message)
}

// seconds converts a virtual-time duration to float seconds.
func seconds(d time.Duration) float64 { return float64(d) / float64(time.Second) }

// durCeil converts float seconds to a duration, rounding up so that any
// positive amount of work always advances the clock by at least 1ns.
func durCeil(sec float64) time.Duration {
	if math.IsInf(sec, 1) || sec >= seconds(Never) {
		return Never
	}
	d := time.Duration(math.Ceil(sec * float64(time.Second)))
	if d < 1 {
		d = 1
	}
	return d
}

// addDur adds a duration to an instant, saturating at Never.
func addDur(t, d time.Duration) time.Duration {
	if t == Never || d == Never || t > Never-d {
		return Never
	}
	return t + d
}
