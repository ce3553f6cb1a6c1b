package gossip

import (
	"fmt"
	"math/rand"
	"time"
)

// The mesh's schedule. Every run uses these values, so they are constants
// rather than Config fields.
const (
	// TTL is the hop budget on relayed digests: an announcement travels at
	// most TTL hops from its origin.
	TTL = 4
	// PushInterval spaces a holder's repeated digest announcements;
	// PushRounds bounds how many it sends.
	PushInterval = 30 * time.Second
	PushRounds   = 3
	// AntiEntropyInterval is the cadence of the epoch-vector reconciliation
	// rounds.
	AntiEntropyInterval = time.Minute
)

// Config tunes the dissemination mesh. The zero value of every field selects
// the default; Fanout may be set negative to mean "no push at all" (the mesh
// then converges through anti-entropy alone).
type Config struct {
	// Fanout is how many peers a node pushes a digest to per round
	// (default 3; negative for none).
	Fanout int
	// Degree is the minimum mesh degree: every node gets its two ring
	// neighbours plus random links until it has Degree peers (default 4,
	// floor 2, capped at n-1).
	Degree int
	// Seeds are cache indices that already hold the current consensus at
	// t=0 — the surviving publications an authority flood cannot take back.
	Seeds []int
}

// WithDefaults returns a copy with zero fields resolved to defaults.
func (c Config) WithDefaults() Config {
	if c.Fanout == 0 {
		c.Fanout = 3
	} else if c.Fanout < 0 {
		c.Fanout = 0
	}
	if c.Degree == 0 {
		c.Degree = 4
	}
	if c.Degree < 2 {
		c.Degree = 2
	}
	return c
}

// Validate rejects configs the mesh cannot run over a tier of n caches.
func (c Config) Validate(n int) error {
	for _, s := range c.Seeds {
		if s < 0 || s >= n {
			return fmt.Errorf("gossip: seed cache %d beyond the %d-cache tier", s, n)
		}
	}
	return nil
}

// Engine is one node's gossip state machine. It is transport-free: methods
// return decisions (relay, pull, serve) and the caller moves the bytes, so
// the same engine drives both the simnet-backed caches and the property
// tests' toy schedulers.
type Engine struct {
	self  int
	peers []int

	epoch     uint64 // newest epoch this node holds a document for
	seenEpoch uint64 // newest epoch announced here (dedups digest relays)

	pullPending bool
	pullEpoch   uint64
	pullSeq     int

	aeCursor int // round-robin anti-entropy position in peers

	scratch []int // SelectPeers working set, reused across rounds
}

// NewEngine returns the state machine for node self with the given mesh
// peers (mesh indices, as produced by BuildMesh).
func NewEngine(self int, peers []int) *Engine {
	return &Engine{self: self, peers: peers}
}

// SetPeers replaces the node's mesh neighbours after a membership change
// (churned mirrors leaving or rejoining). The anti-entropy cursor is kept:
// the rotation simply continues over the new list, so a rebuild mid-run
// stays deterministic without restarting the schedule.
func (e *Engine) SetPeers(peers []int) { e.peers = peers }

// Epoch returns the newest epoch this node holds.
func (e *Engine) Epoch() uint64 { return e.epoch }

// SetEpoch pins the node's initial holdings (e.g. a stale cache starting one
// epoch behind) without triggering announce bookkeeping.
func (e *Engine) SetEpoch(epoch uint64) { e.epoch = epoch }

// Acquire records that the node now holds a document of the given epoch —
// from an authority, a diff, or a peer — and reports whether that advanced
// its state. Any outstanding pull is resolved either way: the transfer that
// was pending has landed, even if it under-delivered, and a later digest or
// anti-entropy round re-arms it.
func (e *Engine) Acquire(epoch uint64) bool {
	e.pullPending = false
	if epoch <= e.epoch {
		return false
	}
	e.epoch = epoch
	if epoch > e.seenEpoch {
		e.seenEpoch = epoch
	}
	return true
}

// NoteAnnounce records a digest sighting and reports whether the caller
// should relay it onward (first sighting of that epoch here, with hop budget
// left). A node marks its own epoch as seen in Acquire, so echoes of its own
// announcements never re-fan out.
func (e *Engine) NoteAnnounce(d Digest) bool {
	if d.Epoch <= e.seenEpoch {
		return false
	}
	e.seenEpoch = d.Epoch
	return d.TTL > 1
}

// NeedsPull reports whether an advertised epoch is worth pulling: newer than
// what the node holds, with no pull already in flight.
func (e *Engine) NeedsPull(epoch uint64) bool {
	return epoch > e.epoch && !e.pullPending
}

// BeginPull marks a pull for the given epoch in flight and returns its
// sequence number for the expiry timer.
func (e *Engine) BeginPull(epoch uint64) int {
	e.pullPending = true
	e.pullEpoch = epoch
	e.pullSeq++
	return e.pullSeq
}

// PullExpired clears the outstanding pull if seq is still it, reporting
// whether anything was cleared. An expired pull simply re-arms the node: the
// next digest or anti-entropy vector triggers a fresh attempt.
func (e *Engine) PullExpired(seq int) bool {
	if !e.pullPending || e.pullSeq != seq {
		return false
	}
	e.pullPending = false
	return true
}

// OnPull decides how to answer a peer that holds epoch have: serve is false
// when the node has nothing newer; full selects the whole document over the
// diff (a diff only bridges a single-epoch gap).
func (e *Engine) OnPull(have uint64) (serve, full bool) {
	if e.epoch == 0 || have >= e.epoch {
		return false, false
	}
	return true, have != e.epoch-1
}

// Vector is the node's current epoch vector for an anti-entropy exchange,
// written over dst's entries so a caller that keeps its vectors reuses
// their storage (nil allocates).
//
//detlint:hotpath
func (e *Engine) Vector(dst []VectorEntry) Vector {
	return Vector{Entries: append(dst[:0], VectorEntry{Key: 0, Epoch: e.epoch})}
}

// NextPeer returns the next anti-entropy partner, rotating round-robin
// through the peer list so every link is reconciled once per full rotation.
func (e *Engine) NextPeer() (int, bool) {
	if len(e.peers) == 0 {
		return 0, false
	}
	p := e.peers[e.aeCursor%len(e.peers)]
	e.aeCursor++
	return p, true
}

// SelectPeers draws k distinct peers for one push round via a partial
// Fisher–Yates shuffle over an engine-owned scratch slice. The returned
// slice aliases that scratch: it is valid until the next call and must not
// be retained. k >= len(peers) returns the full peer list without touching
// the RNG.
//
//detlint:hotpath
func (e *Engine) SelectPeers(rng *rand.Rand, k int) []int {
	n := len(e.peers)
	if k >= n {
		return e.peers
	}
	if k <= 0 {
		return e.peers[:0]
	}
	buf := e.scratch
	if cap(buf) < n {
		//detlint:hotpath ok(amortized scratch growth: grows to the peer count once, then reused every round)
		buf = make([]int, n)
		e.scratch = buf
	}
	buf = buf[:n]
	copy(buf, e.peers)
	for i := 0; i < k; i++ {
		j := i + rng.Intn(n-i)
		buf[i], buf[j] = buf[j], buf[i]
	}
	return buf[:k]
}
