package faults

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"partialtor/internal/attack"
)

// Kind enumerates the fault varieties a plan can schedule.
type Kind int

const (
	// Crash takes the target fully offline for the window: both access
	// pipes drop to zero rate, and a crashed cache forgets its document
	// (the restart re-fetches or catches up over the mesh).
	Crash Kind = iota
	// Churn removes the target mirrors from the gossip mesh at Start and
	// rejoins them at End: the node goes offline like a crash, survivors
	// rebuild their neighbour lists around the hole, and the returnee
	// rejoins empty-handed and catches up by anti-entropy.
	Churn
)

func (k Kind) String() string {
	switch k {
	case Crash:
		return "crash"
	case Churn:
		return "churn"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Fault is one fault window against a set of nodes in one tier, named by
// tier-relative indices under attack.ValidateScope's rules. Compile files it
// under its targets before the clock starts, so a faulted run stays
// byte-identically deterministic.
type Fault struct {
	// Kind selects the failure mode.
	Kind Kind
	// Tier selects the faulted layer; the zero value is TierAuthority.
	// Churn is a mesh-membership fault and requires TierCache.
	Tier attack.Tier
	// Targets are node indices under fault, relative to the fault's tier.
	Targets []int
	// Start and End bound the window [Start, End).
	Start, End time.Duration
}

// Validate rejects malformed faults. Unlike a flood plan, a fault's window
// must not be empty: a fault that never turns on has no recovery to measure.
func (f *Fault) Validate() error {
	if err := attack.ValidateScope(f.Tier, f.Targets, ""); err != nil {
		return fmt.Errorf("faults: %w", err)
	}
	if f.Start < 0 {
		return fmt.Errorf("faults: %v window starts at negative time %v", f.Kind, f.Start)
	}
	if f.End <= f.Start {
		return fmt.Errorf("faults: %v window ends (%v) at or before its start (%v)", f.Kind, f.End, f.Start)
	}
	switch f.Kind {
	case Crash:
	case Churn:
		if f.Tier != attack.TierCache {
			return errors.New("faults: churn is a mesh-membership fault and only applies to the cache tier")
		}
	default:
		return fmt.Errorf("faults: unknown fault kind %v", f.Kind)
	}
	return nil
}

// Plan is a run's whole fault schedule.
type Plan struct {
	// Faults are the scheduled fault windows; they may overlap.
	Faults []Fault
}

// Validate rejects a plan with any malformed fault.
func (p *Plan) Validate() error {
	for i := range p.Faults {
		if err := p.Faults[i].Validate(); err != nil {
			return fmt.Errorf("fault %d: %w", i, err)
		}
	}
	return nil
}

// MidWindowChaos is the chaos plan the commands stress a tier of n caches
// with, its windows placed relative to the client fetch window so that a run
// measures the recovery, not just the outage: a spread crashFrac of the
// mirrors crashes over [window/6, window/6+window/4) — once the tier is warm,
// clearing mid-run — and a spread churnFrac leaves the mesh over
// [window/4, window/2), overlapping the crash and stretching to the window's
// midpoint. A positive fraction hits at least one mirror; crashes spare
// mirror 0 (the seeded one) and churn mirror 1 as well. Both fractions zero
// is no plan: nil.
func MidWindowChaos(n int, window time.Duration, crashFrac, churnFrac float64) *Plan {
	var faults []Fault
	add := func(kind Kind, frac float64, first int, start, end time.Duration) {
		if frac > 0 {
			count := max(1, int(math.Round(frac*float64(n))))
			faults = append(faults, Fault{Kind: kind, Tier: attack.TierCache, Targets: SpreadTargets(first, n, count), Start: start, End: end})
		}
	}
	add(Crash, crashFrac, 1, window/6, window/6+window/4)
	add(Churn, churnFrac, 2, window/4, window/2)
	if faults == nil {
		return nil
	}
	return &Plan{Faults: faults}
}

// backoffFactor is the backoff's per-attempt multiplier: each retry delay
// doubles the one before, up to Backoff.Cap.
const backoffFactor = 2

// Backoff configures the client fleets' retry schedule: a capped, seeded-
// jitter exponential backoff replacing the fixed-delay coalesced retry.
// Jittering from the run's deterministic RNG keeps the simulation
// reproducible while desynchronizing retry bursts across fleets — the
// fixed delay lands every fleet's refused fetches back on the flooded tier
// as one synchronized spike.
type Backoff struct {
	// Base is the first retry delay. 0 selects the default 15s.
	Base time.Duration
	// Cap bounds the grown delay. 0 selects the default 4m.
	Cap time.Duration
	// Jitter is the fraction of each delay that is randomized: the delay
	// becomes d·(1−Jitter) + U[0,1)·d·Jitter. 0 selects the default 0.5.
	Jitter float64
	// Budget caps the retry bursts one fleet fires over the whole run; once
	// spent, further refused fetches are shed and counted instead of
	// retried. 0 means unlimited.
	Budget int
}

// WithDefaults returns a copy with zero fields defaulted.
func (b Backoff) WithDefaults() Backoff {
	if b.Base == 0 {
		b.Base = 15 * time.Second
	}
	if b.Cap == 0 {
		b.Cap = 4 * time.Minute
	}
	if b.Jitter == 0 {
		b.Jitter = 0.5
	}
	return b
}

// Validate rejects a malformed configuration (call after WithDefaults).
func (b *Backoff) Validate() error {
	if b.Base <= 0 {
		return fmt.Errorf("faults: backoff base %v not positive", b.Base)
	}
	if b.Cap < b.Base {
		return fmt.Errorf("faults: backoff cap %v below base %v", b.Cap, b.Base)
	}
	if !(b.Jitter >= 0 && b.Jitter <= 1) {
		return fmt.Errorf("faults: backoff jitter %g outside [0, 1]", b.Jitter)
	}
	if b.Budget < 0 {
		return fmt.Errorf("faults: negative backoff budget %d", b.Budget)
	}
	return nil
}

// Delay returns the attempt-th retry delay (0-based): Base grown by
// backoffFactor per attempt, capped at Cap, then jittered from rng. It draws
// exactly one rng value per call when Jitter > 0 and none otherwise, so the
// RNG stream consumed by a run is a pure function of the retry sequence.
//
//detlint:hotpath
func (b *Backoff) Delay(attempt int, rng *rand.Rand) time.Duration {
	d := float64(b.Base)
	limit := float64(b.Cap)
	for i := 0; i < attempt; i++ {
		d *= backoffFactor
		if d >= limit {
			d = limit
			break
		}
	}
	if b.Jitter > 0 {
		d = float64(d*(1-b.Jitter)) + float64(rng.Float64()*d*b.Jitter)
	}
	return time.Duration(d)
}

// Recovery is one fault's graceful-degradation outcome: how long after the
// fault cleared the run took to regain target coverage.
type Recovery struct {
	// Fault is the index into the plan's Faults.
	Fault int
	// ClearedAt is the fault's End.
	ClearedAt time.Duration
	// MTTR is the time from ClearedAt until cumulative coverage first
	// (re)reached the run's target: 0 when coverage never dipped below it,
	// simnet.Never when the run ended still below target.
	MTTR time.Duration
}

// WorstMTTR returns the largest MTTR across recoveries (0 for none).
// A never-recovered fault dominates: the result is simnet.Never.
func WorstMTTR(recoveries []Recovery) time.Duration {
	worst := time.Duration(0)
	for _, r := range recoveries {
		if r.MTTR > worst {
			worst = r.MTTR
		}
	}
	return worst
}

// SpreadTargets returns count node indices spread evenly over [first, n) —
// the fault-plan analogue of attack.FirstTargets for scenarios that want
// failures scattered across a tier (e.g. sparing a seeded mirror at index
// 0) rather than clustered at its front. count <= 0 yields an empty set;
// count is clamped to the span.
func SpreadTargets(first, n, count int) []int {
	span := n - first
	if count <= 0 || span <= 0 {
		return nil
	}
	if count > span {
		count = span
	}
	out := make([]int, count)
	for i := range out {
		out[i] = first + i*span/count
	}
	return out
}
