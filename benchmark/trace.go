package main

import (
	"encoding/json"
	"hash"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"partialtor/internal/harness"
	"partialtor/internal/obs"
	"partialtor/internal/sig"
	"partialtor/internal/simnet"
	"partialtor/internal/vote"
)

// recorder collects the per-layer numbers of one pass over the op list:
// running sums for counters, sample lists for the timings reported as
// medians. It is shared by campaign-sweep's two workers, hence the lock.
type recorder struct {
	mu      sync.Mutex
	sums    map[string]float64
	samples map[string][]float64
}

func newRecorder() *recorder {
	return &recorder{sums: map[string]float64{}, samples: map[string][]float64{}}
}

func (r *recorder) add(name string, v float64) {
	r.mu.Lock()
	r.sums[name] += v
	r.mu.Unlock()
}

func (r *recorder) max(name string, v float64) {
	r.mu.Lock()
	if v > r.sums[name] {
		r.sums[name] = v
	}
	r.mu.Unlock()
}

func (r *recorder) sample(name string, v float64) {
	r.mu.Lock()
	r.samples[name] = append(r.samples[name], v)
	r.mu.Unlock()
}

// span is one timed interval at a layer boundary. Times are nanoseconds since
// the trace store was created; Parent indexes the span that caused this one
// (-1 for an op) and Op is shared by every span of one op.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// traceStore keeps the spans of a traced invocation in memory; they are
// written out once, when the benchmark ends.
type traceStore struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	ops   int
}

func newTraceStore() *traceStore { return &traceStore{epoch: time.Now()} }

func (t *traceStore) open(name string, parent, op int) int {
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: now, Parent: parent, Op: op})
	return len(t.spans) - 1
}

func (t *traceStore) close(id int) time.Duration {
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	return time.Duration(now - t.spans[id].Start)
}

func (t *traceStore) nextOp() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops - 1
}

// write stores the spans, with each span's self time beside it, as
// <dir>/<workload>.trace.json.
func (t *traceStore) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	type outSpan struct {
		span
		Self int64 `json:"self_ns"`
	}
	self := selfTimes(t.spans)
	out := make([]outSpan, len(t.spans))
	for i, s := range t.spans {
		out[i] = outSpan{s, self[i]}
	}
	data, err := json.Marshal(map[string]any{"workload": workload, "spans": out})
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".trace.json")
	return path, os.WriteFile(path, data, 0o644)
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its child spans cover. Children of one parent may overlap each other
// (campaign-sweep's cells run on two workers), so the covered part is the
// union of the children's intervals, clipped to the parent.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// numEventTypes bounds the counting tracer's table; obs defines 20 kinds.
const numEventTypes = 32

// opCtx is what one op (or one campaign cell) runs with: its inputs, the sink
// of its output digest, and — in the traced invocation only — the recorder
// for its counters and the store for its spans. With rec and tr nil, as in
// the end-to-end invocation, it adds nothing to the op but the digest.
//
// In a traced pass the opCtx itself is the Scenario.Tracer: that makes it the
// counting obs.Tracer, and it is how the shadow driver, which only sees the
// Scenario, finds the op it is building for.
type opCtx struct {
	kind   string
	seed   int64
	digest hash.Hash
	rec    *recorder
	tr     *traceStore

	op, self  int    // ids of the op and of this op's (or cell's) own span
	phase     int    // the open phase span, -1 when none
	phaseName string // its name

	// Filled during a traced consensus run, by the shadow driver.
	layer      string
	buildStart time.Time
	busy       time.Duration
	deliveries int64
	events     [numEventTypes]int64
}

// Event implements obs.Tracer by counting events per type.
func (x *opCtx) Event(ev obs.Event) {
	if int(ev.Type) < numEventTypes {
		x.events[ev.Type]++
	}
}

// tracer is the Scenario.Tracer/Spec.Tracer of this op: nil unless traced.
func (x *opCtx) tracer() obs.Tracer {
	if x.tr == nil {
		return nil
	}
	return x
}

// protocol maps a builtin protocol to its timing shadow in a traced pass.
func (x *opCtx) protocol(p harness.Protocol) harness.Protocol {
	if x.tr == nil {
		return p
	}
	return shadows[p]
}

// mark closes the open phase span and, for a non-empty name, opens the next.
// It returns how long the closed phase lasted.
func (x *opCtx) mark(name string) time.Duration {
	if x.tr == nil {
		return 0
	}
	var d time.Duration
	if x.phase >= 0 {
		d = x.tr.close(x.phase)
		x.phase = -1
		if x.phaseName == "dircache.run" && x.layer != "" {
			// The distribution phase of a harness run: collector end to
			// RunE's return (or to the next period's Build).
			x.rec.sample("harness.distribute_ms", ms(d))
			x.rec.add("simnet.kernel_ns", float64(d))
		}
	}
	if name != "" {
		x.phase = x.tr.open(name, x.self, x.op)
	}
	x.phaseName = name
	return d
}

// child opens a span under this op for work that runs beside its siblings
// (one campaign cell) and returns the context that work records into.
func (x *opCtx) child(name string) *opCtx {
	cx := &opCtx{kind: x.kind, seed: x.seed, rec: x.rec, tr: x.tr, op: x.op, phase: -1}
	if x.tr != nil {
		cx.self = x.tr.open(name, x.self, x.op)
	}
	return cx
}

// finish closes the op's (or cell's) own span and files what the counting
// tracer saw.
func (x *opCtx) finish() {
	if x.tr == nil {
		return
	}
	x.mark("")
	x.tr.close(x.self)
	var total int64
	for _, n := range x.events {
		total += n
	}
	x.rec.add("obs.events_traced", float64(total))
	if x.layer != "" {
		x.rec.add(x.layer+".votes", float64(x.events[obs.EvVote]))
		x.rec.add(x.layer+".timeouts", float64(x.events[obs.EvTimeout]))
	}
}

// shadows maps each paper protocol to a protocol value registered for its
// timing shadow driver. It is filled once by registerShadows, before any
// traced op runs, and only read afterwards.
var shadows map[harness.Protocol]harness.Protocol

var registerShadows = sync.OnceFunc(func() {
	shadows = map[harness.Protocol]harness.Protocol{}
	for _, s := range []struct {
		p     harness.Protocol
		layer string
	}{{harness.Current, "dirv3"}, {harness.Synchronous, "syncdir"}, {harness.ICPS, "core"}} {
		inner, err := harness.DriverFor(s.p)
		if err != nil {
			panic(err) // the three paper protocols are builtin registrations
		}
		shadows[s.p] = harness.NewProtocol(shadowDriver{inner: inner, layer: s.layer})
	}
})

// shadowDriver times a protocol driver from outside: it delegates Build to
// the real driver, then wraps every node and the collector, so one RunE
// yields driver.build, net.run and driver.collect spans and the handlers'
// busy time without a line of RunE being copied. What follows the collector
// until RunE returns is the distribution phase.
type shadowDriver struct {
	inner harness.Driver
	layer string
}

func (d shadowDriver) Name() string { return d.inner.Name() }

func (d shadowDriver) Build(s harness.Scenario, keys []*sig.KeyPair, docs []*vote.Document) (harness.ProtocolRun, error) {
	x, ok := s.Tracer.(*opCtx)
	if !ok {
		return d.inner.Build(s, keys, docs)
	}
	x.layer = d.layer
	x.busy, x.deliveries = 0, 0
	x.mark("driver.build")
	x.buildStart = time.Now()
	pr, err := d.inner.Build(s, keys, docs)
	x.rec.sample("harness.build_ms", ms(x.mark("net.run")))
	if err != nil {
		return pr, err
	}
	for i, h := range pr.Nodes {
		pr.Nodes[i] = &timedHandler{inner: h, x: x}
	}
	collect := pr.Collect
	pr.Collect = func() harness.Outcome {
		netRun := x.mark("driver.collect")
		out := collect()
		next := ""
		if s.Distribution != nil {
			next = "dircache.run"
		}
		x.rec.sample("harness.collect_ms", ms(x.mark(next)))
		x.rec.sample("harness.generate_ms", ms(time.Since(x.buildStart)))
		x.rec.sample(d.layer+".deliver_ms", ms(x.busy))
		x.rec.sample("simnet.self_ms", ms(netRun-x.busy))
		x.rec.add("simnet.kernel_ns", float64(netRun-x.busy))
		x.rec.add(d.layer+".deliveries", float64(x.deliveries))
		return out
	}
	return pr, nil
}

// timedHandler accumulates the host time a protocol node spends in its
// simnet callbacks. Work the protocol schedules through Context.After runs
// outside both and is only seen by the CPU profile.
type timedHandler struct {
	inner simnet.Handler
	x     *opCtx
}

func (h *timedHandler) Start(c *simnet.Context) {
	t := time.Now()
	h.inner.Start(c)
	h.x.busy += time.Since(t)
}

func (h *timedHandler) Deliver(c *simnet.Context, from simnet.NodeID, m simnet.Message) {
	t := time.Now()
	h.inner.Deliver(c, from, m)
	h.x.busy += time.Since(t)
	h.x.deliveries++
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
