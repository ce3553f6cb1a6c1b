package faults

import (
	"fmt"
	"time"

	"partialtor/internal/attack"
	"partialtor/internal/obs"
	"partialtor/internal/simnet"
	"partialtor/internal/topo"
)

// Window is one perturbation of one node: its capacity is capped at Residual
// over [Start, End). Fault is the fault it comes from, nil for a flood.
type Window struct {
	Start, End time.Duration
	Residual   float64
	Fault      *Fault
}

// Schedule is a run's floods and faults compiled against its placement: each
// window filed under every node it hits, floods first and then faults, each
// in plan order. A runner throttles a node's pipes and arms its fault events
// in that order, so the scheduler's sequence numbers, and with them the run,
// depend on it.
type Schedule struct {
	nodes [2][][]Window   // by attack.Tier, then tier-relative node index
	churn []time.Duration // each churn fault's Start and End, in plan order
}

// Compile resolves the floods' region scopes against the topology, traces the
// ground truth into tr (one on/off pair per listed target, floods first) and
// files each window under its targets; a target listed twice in one plan gets
// one window. sizes holds each tier's node count, indexed by attack.Tier. The
// plans must have passed their runner's validation. Compile modifies neither
// floods nor plan, and a nil plan has no faults.
func Compile(t topo.Topology, sizes [2]int, floods []attack.Plan, plan *Plan, tr obs.Tracer) (*Schedule, error) {
	s := &Schedule{}
	for tier, n := range sizes {
		s.nodes[tier] = make([][]Window, n)
	}
	for i := range floods {
		p := floods[i] // a copy: resolving it leaves the caller's plan as it was
		if err := p.ResolveRegion(t, sizes[p.Tier]); err != nil {
			return nil, fmt.Errorf("attack %d: %w", i, err)
		}
		label := p.Tier.String()
		trace(tr, p.Targets,
			obs.Event{Type: obs.EvAttackOn, At: p.Start, F: p.Residual, Label: label},
			obs.Event{Type: obs.EvAttackOff, At: p.End, F: p.Residual, Label: label})
		s.file(p.Tier, p.Targets, Window{Start: p.Start, End: p.End, Residual: p.Residual})
	}
	if plan == nil {
		return s, nil
	}
	for i := range plan.Faults {
		f := &plan.Faults[i]
		label := f.Kind.String()
		trace(tr, f.Targets,
			obs.Event{Type: obs.EvFaultOn, At: f.Start, A: int64(i), B: int64(f.Tier), Label: label},
			obs.Event{Type: obs.EvFaultOff, At: f.End, A: int64(i), B: int64(f.Tier), Label: label})
		s.file(f.Tier, f.Targets, Window{Start: f.Start, End: f.End, Fault: f})
		if f.Kind == Churn {
			s.churn = append(s.churn, f.Start, f.End)
		}
	}
	return s, nil
}

// trace emits one on/off event pair per listed target; a nil tracer is a
// no-op.
func trace(tr obs.Tracer, targets []int, on, off obs.Event) {
	if tr == nil {
		return
	}
	for _, x := range targets {
		on.Node, off.Node = x, x
		tr.Event(on)
		tr.Event(off)
	}
}

// file appends w to each target's windows. A target whose last window is
// already w, listed twice in one plan, keeps the one.
func (s *Schedule) file(tier attack.Tier, targets []int, w Window) {
	nodes := s.nodes[tier]
	for _, x := range targets {
		if ws := nodes[x]; len(ws) > 0 && ws[len(ws)-1] == w {
			continue
		}
		nodes[x] = append(nodes[x], w)
	}
}

// Windows returns the windows filed under one node, in schedule order.
func (s *Schedule) Windows(tier attack.Tier, i int) []Window { return s.nodes[tier][i] }

// Throttle caps one node's pipes with every window filed under it, so the
// whole schedule lands in the piecewise-constant rate functions before the
// clock starts. Both fault kinds take the node offline (residual 0): what is
// in flight waits for the window's end, delayed and never dropped.
func (s *Schedule) Throttle(tier attack.Tier, i int, up, down *simnet.Profile) {
	for _, w := range s.nodes[tier][i] {
		up.ThrottleMin(w.Start, w.End, w.Residual)
		down.ThrottleMin(w.Start, w.End, w.Residual)
	}
}

// AwayAt reports whether a churn fault holds the cache out of the gossip mesh
// at virtual time t: away from the fault's Start, back at its End.
func (s *Schedule) AwayAt(cache int, t time.Duration) bool {
	for _, w := range s.nodes[attack.TierCache][cache] {
		if w.Fault != nil && w.Fault.Kind == Churn && t >= w.Start && t < w.End {
			return true
		}
	}
	return false
}

// ChurnBoundaries returns each churn fault's Start and End, in plan order:
// the instants the mesh's membership changes.
func (s *Schedule) ChurnBoundaries() []time.Duration { return s.churn }
