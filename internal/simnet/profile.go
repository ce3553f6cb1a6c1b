package simnet

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// ratePoint is a breakpoint: from instant at onward the rate is rate, until
// the next breakpoint.
type ratePoint struct {
	at   time.Duration
	rate float64 // bits per second, >= 0
}

// Profile is a piecewise-constant, nonnegative bandwidth function of virtual
// time, in bits per second. The zero of time is the start of the simulation;
// the final segment extends forever.
//
// Profiles must be fully configured before the simulation runs: pipes read
// them lazily, so mutating a profile after transfers have started on it
// yields undefined (though still deterministic) behaviour. Lookups cache a
// segment cursor, so a Profile must not be shared between concurrently
// running simulations (each run builds its own profiles; reusing one across
// sequential runs is fine).
type Profile struct {
	points []ratePoint // sorted by at; points[0].at == 0
	cur    int         // cursor: segment of the last lookup (queries are mostly monotone)
}

// seg returns the index of the segment containing t: the last point with
// at <= t (clamped to 0). Pipes advance monotonically through virtual time,
// so the answer is almost always the cached cursor or its successor; only a
// backward query (a fresh simulation reusing a profile) pays the binary
// search.
func (p *Profile) seg(t time.Duration) int {
	i := p.cur
	if i >= len(p.points) {
		i = len(p.points) - 1
	}
	if p.points[i].at <= t {
		for i+1 < len(p.points) && p.points[i+1].at <= t {
			i++
		}
	} else {
		i = sort.Search(len(p.points), func(j int) bool { return p.points[j].at > t }) - 1
		if i < 0 {
			i = 0
		}
	}
	p.cur = i
	return i
}

// NewProfile returns a constant-rate profile.
func NewProfile(bitsPerSecond float64) *Profile {
	if bitsPerSecond < 0 {
		bitsPerSecond = 0
	}
	return &Profile{points: []ratePoint{{at: 0, rate: bitsPerSecond}}}
}

// Clone returns an independent copy.
func (p *Profile) Clone() *Profile {
	cp := &Profile{points: make([]ratePoint, len(p.points))}
	copy(cp.points, p.points)
	return cp
}

// RateAt returns the rate in effect at instant t.
func (p *Profile) RateAt(t time.Duration) float64 {
	return p.points[p.seg(t)].rate
}

// nextChange returns the first breakpoint strictly after t, or Never.
func (p *Profile) nextChange(t time.Duration) time.Duration {
	i := p.seg(t) + 1
	if i == len(p.points) {
		return Never
	}
	return p.points[i].at
}

// Each calls fn for every breakpoint in order: from instant at onward the
// rate is rate, until the next breakpoint. The observability layer walks
// profiles once at network start to emit the full capacity schedule
// (including attack throttles) as cap-change events.
func (p *Profile) Each(fn func(at time.Duration, rate float64)) {
	for _, pt := range p.points {
		fn(pt.at, pt.rate)
	}
}

// transform rewrites the window [from, to) with f applied to the existing
// rate of each overlapped segment. to == Never rewrites everything from
// `from` onward.
func (p *Profile) transform(from, to time.Duration, f func(old float64) float64) {
	if from < 0 {
		from = 0
	}
	if to <= from {
		return
	}
	rateAtTo := p.RateAt(to)
	out := make([]ratePoint, 0, len(p.points)+2)
	for _, pt := range p.points {
		if pt.at < from {
			out = append(out, pt)
		}
	}
	out = append(out, ratePoint{at: from, rate: f(p.RateAt(from))})
	for _, pt := range p.points {
		if pt.at > from && pt.at < to {
			out = append(out, ratePoint{at: pt.at, rate: f(pt.rate)})
		}
	}
	if to != Never {
		out = append(out, ratePoint{at: to, rate: rateAtTo})
		for _, pt := range p.points {
			if pt.at > to {
				out = append(out, pt)
			} else if pt.at == to {
				// An existing breakpoint exactly at the window end keeps
				// its rate; it equals rateAtTo by construction.
				continue
			}
		}
	}
	p.points = normalize(out)
	p.cur = 0
}

// SetRate forces the rate to r over [from, to).
func (p *Profile) SetRate(from, to time.Duration, r float64) {
	if r < 0 {
		r = 0
	}
	p.transform(from, to, func(float64) float64 { return r })
}

// ThrottleMin caps the rate at r over [from, to), keeping lower existing
// rates. This is the composition rule for overlapping attack windows.
func (p *Profile) ThrottleMin(from, to time.Duration, r float64) {
	if r < 0 {
		r = 0
	}
	p.transform(from, to, func(old float64) float64 {
		if old < r {
			return old
		}
		return r
	})
}

// normalize sorts points, keeps the last point for duplicate instants, and
// merges consecutive points with equal rates.
func normalize(pts []ratePoint) []ratePoint {
	sort.SliceStable(pts, func(i, j int) bool { return pts[i].at < pts[j].at })
	out := pts[:0]
	for _, pt := range pts {
		if len(out) > 0 && out[len(out)-1].at == pt.at {
			out[len(out)-1] = pt
			continue
		}
		out = append(out, pt)
	}
	merged := out[:0]
	for _, pt := range out {
		if len(merged) > 0 && merged[len(merged)-1].rate == pt.rate {
			continue
		}
		merged = append(merged, pt)
	}
	if len(merged) == 0 || merged[0].at != 0 {
		merged = append([]ratePoint{{at: 0, rate: 0}}, merged...)
	}
	return merged
}

// String renders the profile for debugging, e.g. "0s:10Mbit 5m0s:0.5Mbit".
func (p *Profile) String() string {
	var b strings.Builder
	for i, pt := range p.points {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%v:%.3gMbit", pt.at, pt.rate/1e6)
	}
	return b.String()
}
