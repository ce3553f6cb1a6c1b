// Package client models the consumer side of the directory protocol: how
// Tor clients treat consensus documents over time (paper §2.1, §3.1).
//
// A consensus document is generated (at most) once per hour. Clients treat
// it as fresh for one hour, keep using it for up to three hours, and refuse
// it afterwards. The network is effectively down whenever no valid
// consensus exists — which is why "several failed consensus generations
// render the whole network unavailable": a sustained attack that breaks
// every hourly run halts Tor three hours after the last successful run.
//
// The package turns a sequence of run outcomes into an availability
// timeline, which the availability example and the sustained-attack
// analysis build on.
package client

import (
	"fmt"
	"sort"
	"time"

	"partialtor/internal/obs"
)

// Policy models the consensus lifetime rules.
type Policy struct {
	// Interval is the time between consensus runs (1 hour).
	Interval time.Duration
	// ValidFor is how long clients will still use it (3 hours).
	ValidFor time.Duration
}

// DefaultPolicy returns the deployed lifetimes.
func DefaultPolicy() Policy {
	return Policy{
		Interval: time.Hour,
		ValidFor: 3 * time.Hour,
	}
}

// Run is the outcome of one hourly consensus attempt.
type Run struct {
	// At is when the run produced its document (generation instant); for
	// failed runs it is the scheduled slot.
	At time.Duration
	// Success reports whether a valid consensus was published.
	Success bool
}

// Window is a half-open interval [From, To).
type Window struct {
	From, To time.Duration
}

// Duration returns the window length.
func (w Window) Duration() time.Duration { return w.To - w.From }

func (w Window) String() string { return fmt.Sprintf("[%v, %v)", w.From, w.To) }

// Timeline is a sequence of run outcomes under a policy.
type Timeline struct {
	Policy Policy
	Runs   []Run
}

// NewTimeline builds a timeline with runs sorted by time.
func NewTimeline(p Policy, runs []Run) *Timeline {
	sorted := make([]Run, len(runs))
	copy(sorted, runs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].At < sorted[j].At })
	return &Timeline{Policy: p, Runs: sorted}
}

// HourlySchedule builds a timeline of n hourly runs where success(i)
// decides the i-th outcome. This assumes an initial successful consensus
// exists at t = 0 when success(0) is true.
func HourlySchedule(p Policy, n int, success func(i int) bool) *Timeline {
	runs := make([]Run, n)
	for i := range runs {
		runs[i] = Run{At: time.Duration(i) * p.Interval, Success: success(i)}
	}
	return NewTimeline(p, runs)
}

// lastSuccessBefore returns the most recent successful run at or before t,
// or ok = false.
func (tl *Timeline) lastSuccessBefore(t time.Duration) (Run, bool) {
	var best Run
	ok := false
	for _, r := range tl.Runs {
		if r.Success && r.At <= t {
			best, ok = r, true
		}
	}
	return best, ok
}

// ValidAt reports whether clients hold a usable consensus at time t.
func (tl *Timeline) ValidAt(t time.Duration) bool {
	r, ok := tl.lastSuccessBefore(t)
	return ok && t < r.At+tl.Policy.ValidFor
}

// Horizon is the end of the timeline's observation window: one interval
// past the last run.
func (tl *Timeline) Horizon() time.Duration {
	if len(tl.Runs) == 0 {
		return 0
	}
	return tl.Runs[len(tl.Runs)-1].At + tl.Policy.Interval
}

// Outages returns the maximal windows within [0, Horizon) during which no
// valid consensus exists.
func (tl *Timeline) Outages() []Window {
	horizon := tl.Horizon()
	var out []Window
	// Candidate boundaries: run instants and validity expiries.
	bounds := []time.Duration{0, horizon}
	for _, r := range tl.Runs {
		bounds = append(bounds, r.At)
		if r.Success {
			bounds = append(bounds, r.At+tl.Policy.ValidFor)
		}
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
	var cur *Window
	for i := 0; i+1 < len(bounds); i++ {
		from, to := bounds[i], bounds[i+1]
		if to <= from || to > horizon {
			continue
		}
		if !tl.ValidAt(from) {
			if cur != nil && cur.To == from {
				cur.To = to
			} else {
				out = append(out, Window{From: from, To: to})
				cur = &out[len(out)-1]
			}
		} else {
			cur = nil
		}
	}
	return out
}

// DownTime sums the outage windows.
func (tl *Timeline) DownTime() time.Duration {
	var total time.Duration
	for _, w := range tl.Outages() {
		total += w.Duration()
	}
	return total
}

// FirstOutage returns when the network first loses every valid consensus,
// or -1 if it never does (within the horizon). An initial window before the
// first successful run is reported as starting at 0.
func (tl *Timeline) FirstOutage() time.Duration {
	outs := tl.Outages()
	if len(outs) == 0 {
		return -1
	}
	return outs[0].From
}

// Availability returns the fraction of the horizon with a valid consensus.
func (tl *Timeline) Availability() float64 {
	h := tl.Horizon()
	if h == 0 {
		return 1
	}
	return 1 - float64(tl.DownTime())/float64(h)
}

// TraceTimeline emits the timeline's availability ground truth into a
// trace: one outage event per maximal window without a valid consensus,
// stamped with the "avail" layer. The Chrome exporter renders them as
// slices, so a multi-period campaign shows at a glance when the network
// was dark. A nil tracer (or timeline) is a no-op.
func TraceTimeline(tr obs.Tracer, tl *Timeline) {
	if tr == nil || tl == nil {
		return
	}
	for _, w := range tl.Outages() {
		tr.Event(obs.Event{Type: obs.EvOutage, At: w.From, B: int64(w.To), Layer: "avail"})
	}
}
