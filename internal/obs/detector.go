package obs

import (
	"math"
	"time"
)

// The Danner-style detector's tuning. Every run uses these values, so they
// are constants rather than configuration.
const (
	// detWindow is the rolling baseline length in samples. At the kernel's
	// one-second sample cadence that is a 30-second memory — long enough to
	// absorb a protocol round's burstiness, short enough that a five-minute
	// flood dominates it.
	detWindow = 30
	// detK is the deviation threshold in standard deviations.
	detK = 3.0
	// detM is how many consecutive deviating samples flag an attack — a
	// single queued burst is normal, a sustained one is not.
	detM = 3
	// detMinSamples is the minimum baseline size before any flagging: a
	// victim needs to have seen healthy traffic to know what unhealthy
	// looks like.
	detMinSamples = 10
	// detQueueFloor is the standard-deviation floor for the queue-depth
	// signal, in transfers. An idle pipe's baseline is all zeros with zero
	// variance; without a floor the first queued message would be an
	// "attack".
	detQueueFloor = 2.0
)

// Detection is one flagged attack onset, reported from the victim's chair:
// the node saw its own pipes deviate from their rolling baseline, without
// any knowledge of the attack plan. Latency relates the flag to the plan's
// ground truth when the trace carries attack events.
type Detection struct {
	Layer  string
	Node   int
	Signal string // "queue-depth": the queue stayed high
	// At is the simulation time of the flagging sample.
	At time.Duration
	// Latency is At minus the matching attack plan's start, or -1 when the
	// trace carries no attack event for this node.
	Latency time.Duration
}

// Detector consumes the metrics stream as a Tracer and flags attack onsets
// Danner-style: per node and pipe direction it keeps a rolling baseline
// (mean/std over the last detWindow samples) of queue depth, and flags when
// detM consecutive samples deviate high by more than detK standard
// deviations. Each (node, direction) flags at most once; detection latency
// is measured against the EvAttackOn events in the same stream.
//
// Like every Tracer, a Detector observes without perturbing: it keeps all
// state internally and never touches the simulation.
type Detector struct {
	states map[detKey]*baseline
	onsets []Event
	dets   []Detection
}

type detKey struct {
	layer string
	node  int
	dir   string
}

// baseline is one pipe's rolling window with incrementally maintained
// sum and sum of squares.
type baseline struct {
	win     []float64
	next    int
	full    bool
	sum     float64
	sumSq   float64
	streak  int
	flagged bool
}

func (b *baseline) count() int {
	if b.full {
		return len(b.win)
	}
	return b.next
}

func (b *baseline) meanStd() (float64, float64) {
	n := float64(b.count())
	mean := b.sum / n
	variance := b.sumSq/n - float64(mean*mean)
	if variance < 0 {
		variance = 0
	}
	return mean, math.Sqrt(variance)
}

func (b *baseline) push(x float64) {
	if b.full {
		old := b.win[b.next]
		b.sum -= old
		b.sumSq -= float64(old * old)
		b.win[b.next] = x
	} else {
		b.win[b.next] = x
	}
	b.sum += x
	b.sumSq += float64(x * x)
	b.next++
	if b.next == len(b.win) {
		b.next = 0
		b.full = true
	}
}

// NewDetector builds a detector.
func NewDetector() *Detector {
	return &Detector{states: make(map[detKey]*baseline)}
}

// Event feeds one trace event into the detector. Only EvPipeSample and
// EvAttackOn are consumed; everything else passes through untouched (tee
// the detector with a recorder to keep the full stream).
func (d *Detector) Event(ev Event) {
	switch ev.Type {
	case EvAttackOn:
		d.onsets = append(d.onsets, ev)
	case EvPipeSample:
		d.sample(ev)
	}
}

// sample checks one queue-depth sample against its pipe's baseline, then
// admits it.
func (d *Detector) sample(ev Event) {
	x := float64(ev.A)
	key := detKey{layer: ev.Layer, node: ev.Node, dir: ev.Label}
	b := d.states[key]
	if b == nil {
		b = &baseline{win: make([]float64, detWindow)}
		d.states[key] = b
	}
	if b.count() >= detMinSamples && !b.flagged {
		mean, std := b.meanStd()
		if std < detQueueFloor {
			std = detQueueFloor
		}
		deviates := x > mean+float64(detK*std)
		if deviates {
			b.streak++
			if b.streak >= detM {
				b.flagged = true
				d.flag(ev)
			}
		} else {
			b.streak = 0
		}
		// A deviating sample is not admitted into the baseline: under a
		// sustained flood the window would otherwise learn the attack as
		// the new normal before the streak completes.
		if deviates {
			return
		}
	}
	b.push(x)
}

func (d *Detector) flag(ev Event) {
	det := Detection{
		Layer:   ev.Layer,
		Node:    ev.Node,
		Signal:  "queue-depth",
		At:      ev.At,
		Latency: -1,
	}
	if onset, ok := d.onsetFor(ev); ok {
		det.Latency = ev.At - onset
	}
	d.dets = append(d.dets, det)
}

// onsetFor finds the ground-truth attack onset to score a flag against:
// the latest EvAttackOn at or before the flag, preferring an exact
// (layer, node) match, then a layer match, then any onset.
func (d *Detector) onsetFor(ev Event) (time.Duration, bool) {
	best, bestRank := time.Duration(-1), -1
	for _, on := range d.onsets {
		if on.At > ev.At {
			continue
		}
		rank := 0
		if on.Layer == ev.Layer {
			rank = 1
			if on.Node == ev.Node {
				rank = 2
			}
		}
		if rank > bestRank || (rank == bestRank && on.At > best) {
			best, bestRank = on.At, rank
		}
	}
	return best, bestRank >= 0
}

// Detections returns the attacks flagged so far, in flag order.
func (d *Detector) Detections() []Detection {
	out := make([]Detection, len(d.dets))
	copy(out, d.dets)
	return out
}

// First returns the earliest detection by flag time (ok = false when
// nothing was flagged).
func First(dets []Detection) (Detection, bool) {
	var first Detection
	ok := false
	for _, det := range dets {
		if !ok || det.At < first.At {
			first, ok = det, true
		}
	}
	return first, ok
}
