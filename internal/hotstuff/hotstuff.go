// Package hotstuff implements a single-shot, view-based Byzantine agreement
// protocol for the partial synchrony model — the "agreement sub-protocol"
// slot of the paper's design (§5.2.2).
//
// The construction is a two-chain HotStuff in the style of Jolteon, which
// the paper's prototype also uses: with an honest leader and a synchronous
// network it decides in five one-way rounds (Table 2):
//
//	PROPOSE → VOTE₁ → LOCK (QC₁) → VOTE₂ → DECIDE (QC₂)
//
// Replicas lock on QC₁; a later leader may only displace a lock with a
// justification QC from a higher view, which yields safety under f < n/3.
// View synchronization uses timeout certificates: a replica that times out
// broadcasts a TIMEOUT share, and n−f shares form a TC that moves everyone
// to the next view. Before GST messages stall (the simulator delays, never
// drops), so views cannot churn past an unreachable quorum — exactly the
// behaviour the paper's Figure 11 relies on.
//
// The replica is embedded in a parent simnet handler (the ICPS protocol in
// internal/core) and driven through Deliver; inputs arrive lazily via the
// Propose callback so the parent can withhold a proposal until its
// dissemination phase is ready.
package hotstuff

import (
	"fmt"
	"time"

	"partialtor/internal/sig"
	"partialtor/internal/simnet"
)

// Value is an opaque proposal payload. Implementations must be immutable.
type Value interface {
	Digest() sig.Digest
	Size() int64
}

// DefaultBaseTimeout is the initial view timeout.
const DefaultBaseTimeout = 10 * time.Second

// DefaultMaxTimeout caps exponential backoff.
const DefaultMaxTimeout = 320 * time.Second

// Signature domains.
const (
	domainVote1   = "hotstuff/vote1"
	domainVote2   = "hotstuff/vote2"
	domainTimeout = "hotstuff/timeout"
)

// Config parameterizes one agreement instance, shared by all replicas.
type Config struct {
	Keys []*sig.KeyPair
	// Propose returns the value replica `index` proposes when it leads
	// `view`, or nil if its input is not ready yet (the replica will retry
	// on NotifyReady and at later views).
	Propose func(index, view int) Value
	// Validate is the external-validity predicate applied to every
	// proposal (and decide) before acceptance. Nil accepts everything.
	Validate func(Value) bool
	// OnDecide fires exactly once per replica.
	OnDecide func(ctx *simnet.Context, index int, v Value)
	// OnEnterView fires when a replica enters a view (including view 1).
	OnEnterView func(ctx *simnet.Context, index, view int)
	// BaseTimeout is the pacemaker's first view timeout (0 means
	// DefaultBaseTimeout); it doubles per view up to DefaultMaxTimeout.
	BaseTimeout time.Duration
	// Silent marks Byzantine replicas that never propose nor vote.
	Silent map[int]bool
	// Equivocator marks Byzantine leaders that propose the Propose value
	// to even-indexed peers and the AltPropose value to odd-indexed peers.
	Equivocator map[int]bool
	// AltPropose supplies the equivocator's second value.
	AltPropose func(index, view int) Value
	pubs       *sig.Registry // built by Pubs
}

// Pubs returns the run's one verification registry, built from Keys on first
// use: every replica of the Config and the parent embedding them share it.
func (c *Config) Pubs() *sig.Registry {
	if c.pubs == nil {
		c.pubs = sig.PublicSet(c.Keys)
	}
	return c.pubs
}

// N returns the replica count.
func (c *Config) N() int { return len(c.Keys) }

// F returns the fault tolerance ⌊(n−1)/3⌋.
func (c *Config) F() int { return (c.N() - 1) / 3 }

// Quorum returns n−f.
func (c *Config) Quorum() int { return c.N() - c.F() }

// Leader returns the round-robin leader of a view.
func (c *Config) Leader(view int) int {
	if view < 1 {
		view = 1
	}
	return (view - 1) % c.N()
}

func (c *Config) baseTimeout() time.Duration {
	if c.BaseTimeout > 0 {
		return c.BaseTimeout
	}
	return DefaultBaseTimeout
}

func (c *Config) viewTimeout(view int) time.Duration {
	d := c.baseTimeout()
	for i := 1; i < view; i++ {
		d *= 2
		if d >= DefaultMaxTimeout {
			return DefaultMaxTimeout
		}
	}
	return d
}

func (c *Config) validate(v Value) bool {
	if v == nil {
		return false
	}
	if c.Validate == nil {
		return true
	}
	return c.Validate(v)
}

// --- certificates ---

// QC is a quorum certificate: n−f signatures over (phase, view, digest).
type QC struct {
	Phase  int // 1 = lock phase, 2 = commit phase
	View   int
	Digest sig.Digest
	Sigs   []sig.Signature
}

// WireSize accounts a QC's transport size.
func (q *QC) WireSize() int64 {
	if q == nil {
		return 1
	}
	return 16 + sig.DigestSize + int64(len(q.Sigs))*sig.WireSize
}

func qcInput(phase, view int, digest sig.Digest) []byte {
	return []byte(fmt.Sprintf("%d|%d|%x", phase, view, digest[:]))
}

func voteDomain(phase int) string {
	if phase == 1 {
		return domainVote1
	}
	return domainVote2
}

// Verify checks the certificate against the replica set.
func (q *QC) Verify(pubs *sig.Registry, quorum int) bool {
	return q != nil &&
		sig.VerifyQuorum(pubs, voteDomain(q.Phase), qcInput(q.Phase, q.View, q.Digest), q.Sigs, quorum) == nil
}

// TC is a timeout certificate: n−f signatures over a view number, plus the
// highest lock certificate reported by the timing-out replicas.
type TC struct {
	View   int
	Sigs   []sig.Signature
	HighQC *QC
}

// WireSize accounts a TC's transport size.
func (t *TC) WireSize() int64 {
	if t == nil {
		return 1
	}
	return 16 + int64(len(t.Sigs))*sig.WireSize + t.HighQC.WireSize()
}

func tcInput(view int) []byte { return []byte(fmt.Sprintf("timeout|%d", view)) }

// Verify checks the certificate (the HighQC is checked separately when
// used; safety never depends on it — replicas trust only their own locks).
func (t *TC) Verify(pubs *sig.Registry, quorum int) bool {
	return t != nil && sig.VerifyQuorum(pubs, domainTimeout, tcInput(t.View), t.Sigs, quorum) == nil
}
