// Package obs is the simulation-time tracing and metrics layer: a
// zero-cost-when-disabled event stream threaded through the simnet kernel,
// the protocol drivers, the distribution tier and the attack machinery.
//
// The contract has three parts:
//
//   - Tracer is a single-method sink. A nil Tracer disables the whole
//     subsystem behind one branch, so the allocation-free hot paths of the
//     kernel stay allocation-free; emitters pass Event by value and must
//     never allocate to build one.
//   - Recording must not perturb the simulation. Event callbacks only read
//     simulator state — they never mutate pipes, schedule events, or touch
//     the deterministic RNG — so a run's golden digests are byte-identical
//     with tracing disabled and enabled. The golden corpus pins this.
//   - Events are typed and flat (fixed scalar fields, static label
//     strings), so sinks can be rings of values and exporters need no
//     per-event type switches beyond EventType.
//
// Two sinks ship with the package: Recorder, a ring-buffered JSONL
// recorder, and WriteChromeTrace, a Chrome trace_event exporter whose
// output opens directly in chrome://tracing or Perfetto. On top of the
// metrics stream, Detector implements Danner-style attack detection from
// the victim's chair: rolling per-pipe baselines over queue depth flag the
// onset of a flood and report the detection latency.
package obs

import "time"

// EventType enumerates the trace event kinds each layer emits.
type EventType uint8

// The event kinds, grouped by emitting layer.
const (
	// EvTransferStart marks a message entering its source uplink.
	// Node = sender, Peer = receiver, A = transfer id, B = size in bytes,
	// Label = message kind.
	EvTransferStart EventType = iota
	// EvTransferEnd marks the same message's delivery. Fields as in
	// EvTransferStart.
	EvTransferEnd
	// EvCapChange marks a breakpoint of a node's access-pipe capacity
	// profile. F = rate in bits/s, Label = "up" or "down". Emitted once per
	// breakpoint at network start: profiles are precompiled, so the full
	// capacity schedule (including attack throttles) is known up front.
	EvCapChange
	// EvPipeSample is the periodic per-pipe metrics sample. A = queue
	// depth (transfers in flight), B = bits moved since the previous
	// sample, F = utilization of the profile's current rate, Label = "up"
	// or "down".
	EvPipeSample
	// EvPhase marks a protocol phase/round/view boundary. Label names the
	// phase; A carries the round or view number where one exists.
	EvPhase
	// EvVote marks one accepted vote (or an equivalent protocol message).
	// Peer = the voter.
	EvVote
	// EvTimeout marks a protocol-level timeout (a peer given up on, a
	// pacemaker firing). Peer = the timed-out peer where one exists.
	EvTimeout
	// EvCacheFetch marks a directory cache starting a consensus fetch
	// attempt. Peer = the authority asked.
	EvCacheFetch
	// EvCacheFallback marks a cache giving up on an authority and falling
	// back to the next. Peer = the authority abandoned.
	EvCacheFallback
	// EvServe marks a cache serving a consensus downstream. Label = "full"
	// or "diff", B = bytes served.
	EvServe
	// EvCoverage is a client-fleet coverage tick. A = clients newly
	// covered this tick, B = the fleet's covered total.
	EvCoverage
	// EvAttackOn marks a flood plan's onset against one target. Node = the
	// target, F = residual bandwidth in bits/s, Label = the tier attacked.
	EvAttackOn
	// EvAttackOff marks the same plan's offset. Fields as in EvAttackOn.
	EvAttackOff
	// EvOutage marks a window without a valid consensus in the client
	// availability timeline. At = window start, B = window end in
	// nanoseconds.
	EvOutage
	// EvGossipPush marks a cache pushing (or relaying) a consensus digest to
	// one mesh peer. Peer = the receiving cache node, A = the announced
	// epoch, B = the digest's remaining hop budget.
	EvGossipPush
	// EvGossipPull marks a cache pulling the document behind a digest or
	// anti-entropy miss. Peer = the node pulled from, A = the wanted epoch.
	EvGossipPull
	// EvGossipAntiEntropy marks a cache initiating one anti-entropy round.
	// Peer = the partner cache node, A = the sender's current epoch.
	EvGossipAntiEntropy
	// EvFaultOn marks an injected fault's onset against one target. Node =
	// the target, A = the fault's index in its plan, B = the tier, Label =
	// the fault kind.
	EvFaultOn
	// EvFaultOff marks the same fault's offset. Fields as in EvFaultOn.
	EvFaultOff
	// EvRetry marks one client-fleet retry burst firing. A = fetches
	// re-issued in the burst, B = the backoff attempt number (0 for the
	// legacy fixed-delay retry).
	EvRetry
)

var eventTypeNames = [...]string{
	EvTransferStart: "transfer-start",
	EvTransferEnd:   "transfer-end",
	EvCapChange:     "cap-change",
	EvPipeSample:    "pipe-sample",
	EvPhase:         "phase",
	EvVote:          "vote",
	EvTimeout:       "timeout",
	EvCacheFetch:    "cache-fetch",
	EvCacheFallback: "cache-fallback",
	EvServe:         "serve",
	EvCoverage:      "coverage",
	EvAttackOn:      "attack-on",
	EvAttackOff:     "attack-off",
	EvOutage:        "outage",

	EvGossipPush:        "gossip-push",
	EvGossipPull:        "gossip-pull",
	EvGossipAntiEntropy: "gossip-antientropy",

	EvFaultOn:  "fault-on",
	EvFaultOff: "fault-off",
	EvRetry:    "retry",
}

// String returns the event kind's wire name.
func (t EventType) String() string {
	if int(t) < len(eventTypeNames) {
		return eventTypeNames[t]
	}
	return "unknown"
}

// MarshalJSON renders the kind as its wire name.
func (t EventType) MarshalJSON() ([]byte, error) {
	return []byte(`"` + t.String() + `"`), nil
}

// Event is one trace event. It is a flat value — emitters build it on the
// stack and sinks may store it in rings of values; no field ever points
// into simulator state. Which scalar fields are meaningful depends on Type
// (see the EventType constants).
type Event struct {
	Type  EventType     `json:"type"`
	At    time.Duration `json:"at"`
	Layer string        `json:"layer,omitempty"`
	Node  int           `json:"node"`
	Peer  int           `json:"peer,omitempty"`
	A     int64         `json:"a,omitempty"`
	B     int64         `json:"b,omitempty"`
	F     float64       `json:"f,omitempty"`
	Label string        `json:"label,omitempty"`
}

// Tracer receives the event stream. Implementations must treat the
// simulation as read-only: an Event callback that mutates simulator state,
// schedules events or draws from the deterministic RNG breaks the
// digests-identical-under-tracing contract.
//
// A nil Tracer means tracing is disabled; every emitter guards with a
// single nil check so the disabled path costs one branch and zero
// allocations.
type Tracer interface {
	Event(Event)
}

// DetectionSource is implemented by tracers that derive attack detections
// from the event stream (Detector, and Tee when any child does). The
// harness asks the scenario's tracer for it to fill RunResult.Detections.
type DetectionSource interface {
	Detections() []Detection
}

// layerTracer stamps a fixed layer name on every event before forwarding.
type layerTracer struct {
	next  Tracer
	layer string
}

// WithLayer returns a tracer that stamps every event's Layer field with
// the given name before forwarding to next. The harness uses it to tell
// the consensus network's events from the distribution tier's when both
// feed one sink. A nil next returns nil, so the emitters' nil guard keeps
// working through the wrapper.
func WithLayer(next Tracer, layer string) Tracer {
	if next == nil {
		return nil
	}
	return &layerTracer{next: next, layer: layer}
}

func (l *layerTracer) Event(ev Event) {
	ev.Layer = l.layer
	l.next.Event(ev)
}

// Detections forwards to the wrapped tracer when it is a DetectionSource.
func (l *layerTracer) Detections() []Detection {
	if ds, ok := l.next.(DetectionSource); ok {
		return ds.Detections()
	}
	return nil
}

// tee fans one event stream out to several sinks.
type tee struct {
	sinks []Tracer
}

// Tee returns a tracer forwarding every event to each non-nil sink, in
// order. With zero non-nil sinks it returns nil (tracing disabled).
func Tee(sinks ...Tracer) Tracer {
	kept := make([]Tracer, 0, len(sinks))
	for _, s := range sinks {
		if s != nil {
			kept = append(kept, s)
		}
	}
	switch len(kept) {
	case 0:
		return nil
	case 1:
		return kept[0]
	}
	return &tee{sinks: kept}
}

func (t *tee) Event(ev Event) {
	for _, s := range t.sinks {
		s.Event(ev)
	}
}

// Detections aggregates the detections of every child DetectionSource.
func (t *tee) Detections() []Detection {
	var out []Detection
	for _, s := range t.sinks {
		if ds, ok := s.(DetectionSource); ok {
			out = append(out, ds.Detections()...)
		}
	}
	return out
}
