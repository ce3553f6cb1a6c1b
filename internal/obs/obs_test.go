package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestRecorderKeepsAllBelowCapacity(t *testing.T) {
	r := NewRecorder(8)
	for i := 0; i < 5; i++ {
		r.Event(Event{Type: EvVote, A: int64(i)})
	}
	if r.Len() != 5 || r.Dropped() != 0 {
		t.Fatalf("Len=%d Dropped=%d, want 5 and 0", r.Len(), r.Dropped())
	}
	for i, ev := range r.Events() {
		if ev.A != int64(i) {
			t.Fatalf("event %d has A=%d, want %d", i, ev.A, i)
		}
	}
}

func TestRecorderRingEvictsOldest(t *testing.T) {
	r := NewRecorder(4)
	for i := 0; i < 10; i++ {
		r.Event(Event{Type: EvVote, A: int64(i)})
	}
	if r.Len() != 4 {
		t.Fatalf("Len=%d, want 4", r.Len())
	}
	if r.Dropped() != 6 {
		t.Fatalf("Dropped=%d, want 6", r.Dropped())
	}
	got := r.Events()
	for i, want := range []int64{6, 7, 8, 9} {
		if got[i].A != want {
			t.Fatalf("event %d has A=%d, want %d (oldest-first order broken)", i, got[i].A, want)
		}
	}
}

func TestRecorderDefaultCapacity(t *testing.T) {
	r := NewRecorder(0)
	if cap(r.buf) != DefaultRecorderCap {
		t.Fatalf("NewRecorder(0) capacity = %d, want %d", cap(r.buf), DefaultRecorderCap)
	}
}

func TestWriteJSONLRoundTrips(t *testing.T) {
	r := NewRecorder(8)
	r.Event(Event{Type: EvPipeSample, At: 3 * time.Second, Layer: "consensus", Node: 2, A: 7, B: 1e6, F: 0.5, Label: "up"})
	r.Event(Event{Type: EvAttackOn, Node: 0, F: 5e5, Label: "authorities"})
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d JSONL lines, want 2", len(lines))
	}
	var first map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("line 0 is not valid JSON: %v", err)
	}
	if first["type"] != "pipe-sample" || first["layer"] != "consensus" || first["label"] != "up" {
		t.Fatalf("unexpected first line: %v", first)
	}
}

func TestWithLayerStampsAndNilPropagates(t *testing.T) {
	if WithLayer(nil, "consensus") != nil {
		t.Fatal("WithLayer(nil, ...) must stay nil so emitters' nil guard keeps working")
	}
	r := NewRecorder(4)
	WithLayer(r, "dist").Event(Event{Type: EvServe, Layer: "overwritten"})
	if got := r.Events()[0].Layer; got != "dist" {
		t.Fatalf("Layer = %q, want %q", got, "dist")
	}
}

func TestTeeFansOutAndDropsNils(t *testing.T) {
	if Tee() != nil || Tee(nil, nil) != nil {
		t.Fatal("a tee of zero sinks must be nil (tracing disabled)")
	}
	single := NewRecorder(4)
	if got := Tee(nil, single); got != Tracer(single) {
		t.Fatal("a tee of one sink must be that sink, unwrapped")
	}
	a, b := NewRecorder(4), NewRecorder(4)
	Tee(a, nil, b).Event(Event{Type: EvVote})
	if a.Len() != 1 || b.Len() != 1 {
		t.Fatalf("tee delivered %d/%d events, want 1/1", a.Len(), b.Len())
	}
}

func TestTeeAndWithLayerForwardDetections(t *testing.T) {
	det := NewDetector()
	det.dets = append(det.dets, Detection{Node: 3})
	wrapped := WithLayer(Tee(NewRecorder(4), det), "consensus")
	ds, ok := wrapped.(DetectionSource)
	if !ok {
		t.Fatal("WithLayer over a Tee must remain a DetectionSource")
	}
	got := ds.Detections()
	if len(got) != 1 || got[0].Node != 3 {
		t.Fatalf("Detections = %v, want the detector's one detection", got)
	}
}

// TestChromeTraceWellFormed validates the exporter output parses as the
// trace_event JSON shape and carries the expected slice pairs.
func TestChromeTraceWellFormed(t *testing.T) {
	events := []Event{
		{Type: EvCapChange, At: 0, Layer: "consensus", Node: 0, F: 250e6, Label: "up"},
		{Type: EvAttackOn, At: 0, Layer: "consensus", Node: 0, F: 5e5, Label: "authorities"},
		{Type: EvTransferStart, At: time.Second, Layer: "consensus", Node: 0, Peer: 1, A: 1, B: 2048, Label: "vote"},
		{Type: EvPipeSample, At: 2 * time.Second, Layer: "consensus", Node: 0, A: 3, B: 1e6, Label: "up"},
		{Type: EvPhase, At: 2 * time.Second, Layer: "consensus", Node: 0, Label: "vote"},
		{Type: EvPhase, At: 3 * time.Second, Layer: "consensus", Node: 0, Label: "fetch-votes"},
		{Type: EvTransferEnd, At: 4 * time.Second, Layer: "consensus", Node: 1, Peer: 0, A: 1, Label: "vote"},
		{Type: EvVote, At: 4 * time.Second, Layer: "consensus", Node: 1, Peer: 0},
		{Type: EvAttackOff, At: 5 * time.Second, Layer: "consensus", Node: 0, Label: "authorities"},
		{Type: EvCoverage, At: 6 * time.Second, Layer: "dist", Node: 2, A: 10, B: 10},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("exporter output is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events emitted")
	}
	counts := map[string]int{}
	processes := map[string]bool{}
	for _, ce := range doc.TraceEvents {
		ph, _ := ce["ph"].(string)
		counts[ph]++
		if ce["name"] == "process_name" {
			args := ce["args"].(map[string]any)
			processes[args["name"].(string)] = true
		}
	}
	// Both layers become processes; the async transfer pair survives; each
	// B has a matching E (phases are closed at trace end).
	if !processes["consensus"] || !processes["dist"] {
		t.Fatalf("missing layer processes, got %v", processes)
	}
	if counts["b"] != 1 || counts["e"] != 1 {
		t.Fatalf("async transfer pair = %d/%d, want 1/1", counts["b"], counts["e"])
	}
	if counts["B"] != counts["E"] {
		t.Fatalf("unbalanced duration slices: %d B vs %d E", counts["B"], counts["E"])
	}
	if counts["C"] == 0 {
		t.Fatal("no counter samples emitted")
	}
}

// TestChromeTraceDeterministic pins byte-identical exporter output across
// calls (the close-open-phases pass iterates a map and must sort).
func TestChromeTraceDeterministic(t *testing.T) {
	var events []Event
	for node := 0; node < 8; node++ {
		events = append(events, Event{Type: EvPhase, At: time.Second, Layer: "consensus", Node: node, Label: "vote"})
	}
	var a, b bytes.Buffer
	if err := WriteChromeTrace(&a, events); err != nil {
		t.Fatal(err)
	}
	if err := WriteChromeTrace(&b, events); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("exporter output differs between identical calls")
	}
}

// detectorFeed pushes n baseline samples then m attack samples for one
// node/pipe and returns the detections.
func detectorFeed(baseline, flood int64, n, m int) []Detection {
	d := NewDetector()
	at := time.Duration(0)
	for i := 0; i < n; i++ {
		at += time.Second
		d.Event(Event{Type: EvPipeSample, At: at, Layer: "consensus", Node: 0, A: baseline, B: 8e6, Label: "up"})
	}
	d.Event(Event{Type: EvAttackOn, At: at, Layer: "consensus", Node: 0, Label: "authorities"})
	for i := 0; i < m; i++ {
		at += time.Second
		d.Event(Event{Type: EvPipeSample, At: at, Layer: "consensus", Node: 0, A: flood, B: 8e6, Label: "up"})
	}
	return d.Detections()
}

func TestDetectorFlagsSustainedQueueGrowth(t *testing.T) {
	dets := detectorFeed(1, 40, 30, 10)
	if len(dets) != 1 {
		t.Fatalf("got %d detections, want exactly 1 (each pipe flags once)", len(dets))
	}
	det := dets[0]
	if det.Signal != "queue-depth" || det.Node != 0 || det.Layer != "consensus" {
		t.Fatalf("unexpected detection %+v", det)
	}
	// The streak needs M=3 consecutive deviating samples after the onset at
	// t=30s, so the flag lands at t=33s: latency 3s.
	if det.Latency != 3*time.Second {
		t.Fatalf("Latency = %v, want 3s", det.Latency)
	}
	if onset := det.At - det.Latency; onset != 30*time.Second {
		t.Fatalf("flag scored against an onset at %v, want 30s", onset)
	}
}

func TestDetectorQuietOnSteadyTraffic(t *testing.T) {
	if dets := detectorFeed(2, 2, 30, 30); len(dets) != 0 {
		t.Fatalf("steady traffic flagged: %v", dets)
	}
}

func TestDetectorIgnoresSingleBurst(t *testing.T) {
	d := NewDetector()
	at := time.Duration(0)
	for i := 0; i < 30; i++ {
		at += time.Second
		q := int64(1)
		if i == 20 {
			q = 50 // one burst, below the M=3 streak
		}
		d.Event(Event{Type: EvPipeSample, At: at, Layer: "consensus", Node: 0, A: q, B: 8e6, Label: "up"})
	}
	if dets := d.Detections(); len(dets) != 0 {
		t.Fatalf("a single burst flagged: %v", dets)
	}
}

func TestDetectorNeedsMinSamples(t *testing.T) {
	// Only 5 baseline samples (< MinSamples 10): the flood must not flag —
	// a victim that has seen no healthy traffic has no baseline to deviate
	// from — until enough samples accumulate.
	d := NewDetector()
	at := time.Duration(0)
	for i := 0; i < 5; i++ {
		at += time.Second
		d.Event(Event{Type: EvPipeSample, At: at, Layer: "consensus", Node: 0, A: 1, B: 8e6, Label: "up"})
	}
	at += time.Second
	d.Event(Event{Type: EvPipeSample, At: at, Layer: "consensus", Node: 0, A: 40, B: 8e6, Label: "up"})
	if dets := d.Detections(); len(dets) != 0 {
		t.Fatalf("flagged with a %d-sample baseline: %v", 5, dets)
	}
}

func TestFirstDetection(t *testing.T) {
	if _, ok := First(nil); ok {
		t.Fatal("First(nil) reported a detection")
	}
	dets := []Detection{{At: 9 * time.Second}, {At: 3 * time.Second}, {At: 5 * time.Second}}
	first, ok := First(dets)
	if !ok || first.At != 3*time.Second {
		t.Fatalf("First = %+v ok=%v, want the 3s detection", first, ok)
	}
}

func TestEventTypeNames(t *testing.T) {
	if EvOutage.String() != "outage" || EvPipeSample.String() != "pipe-sample" {
		t.Fatal("event type wire names drifted")
	}
	if EventType(200).String() != "unknown" {
		t.Fatal("out-of-range event type must render as unknown")
	}
	b, err := EvVote.MarshalJSON()
	if err != nil || string(b) != `"vote"` {
		t.Fatalf("MarshalJSON = %s, %v", b, err)
	}
}
