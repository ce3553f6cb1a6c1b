package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"partialtor/internal/dircache"
	"partialtor/internal/topo"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSmoke runs every workload for one round with tracing off: every
// invariant holds, the record carries exactly the seven end-to-end metrics,
// and the contract's result line the six BENCHMARK.json names.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			res, err := runWorkload(options{workload: w.name, seed: 1, seconds: frozenSeconds, smoke: true})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted != 2*len(w.kinds) {
				t.Fatalf("correct=%v attempted=%d failed=%d, want %d clean ops (warm-up + one round)",
					res.Correct, res.Attempted, res.Failed, 2*len(w.kinds))
			}
			if len(res.Metrics) != 7 || len(endToEndMetrics) != 7 {
				t.Fatalf("%d metrics of a table of %d, want the 7 end-to-end ones", len(res.Metrics), len(endToEndMetrics))
			}
			line := contractMetrics(res.Metrics)
			for _, m := range endToEndMetrics {
				got, ok := res.Metrics[m.name]
				_, onLine := line[m.name]
				if m.name == failRatio {
					if !ok || got.Value != 0 || onLine {
						t.Errorf("%s = %+v (present %v, on the result line %v), want 0 and off the line", m.name, got, ok, onLine)
					}
					continue
				}
				if !ok || !onLine || got.Unit != m.unit || !(got.Value > 0) {
					t.Errorf("%s = %+v (present %v, on the result line %v), want a positive value in %s", m.name, got, ok, onLine, m.unit)
				}
			}
		})
	}
}

// TestTracingIsNeutral runs one consensus round plain and then through the
// shadow drivers with the counting tracer: the digests must be byte-identical
// (the run loop fails an op whose digest differs from the first run of the
// same inputs), and the traced pass must have seen what it claims to see.
func TestTracingIsNeutral(t *testing.T) {
	registerShadows()
	r := newRun(findWorkload("consensus-healthy"), options{seed: 2})
	defer r.watchdog.stop()
	plain, traced, store := newRecorder(), newRecorder(), newTraceStore()
	r.round(0, plain, nil)
	r.round(0, traced, store)
	if r.failed != 0 || r.attempted != 6 {
		t.Fatalf("%d of %d ops failed", r.failed, r.attempted)
	}
	names := map[string]int{}
	for _, s := range store.spans {
		if s.End < s.Start {
			t.Errorf("span %q ends before it starts", s.Name)
		}
		names[s.Name]++
	}
	for _, want := range []string{"harness.inputs", "driver.build", "net.run", "driver.collect"} {
		if names[want] != 3 {
			t.Errorf("%d %q spans, want one per protocol run (spans: %v)", names[want], want, names)
		}
	}
	for _, p := range []string{"dirv3", "syncdir", "core"} {
		if traced.sums[p+".deliveries"] == 0 || traced.sums[p+".votes"] == 0 {
			t.Errorf("%s: traced pass counted %v deliveries and %v votes", p, traced.sums[p+".deliveries"], traced.sums[p+".votes"])
		}
		if traced.sums[p+".deliveries"] != plain.sums[p+".messages"] {
			t.Errorf("%s: %v deliveries through the wrappers, %v messages in the stats", p, traced.sums[p+".deliveries"], plain.sums[p+".messages"])
		}
		if n := traced.sums[p+".timeouts"]; n != 0 {
			t.Errorf("%s: %v timeouts on the healthy workload, want 0", p, n)
		}
	}
}

// TestLayerTable checks the per-layer table against the contract's limits,
// and that every probe the table reads is one runProbes produces.
func TestLayerTable(t *testing.T) {
	if n := len(layerMetrics); n == 0 || n > 128 {
		t.Fatalf("%d per-layer metrics, want 1..128", n)
	}
	probes := runProbes(1)
	env := &layerEnv{plain: newRecorder(), traced: newRecorder(), probes: probes, cpu: map[string]float64{}}
	values := layerValues(env)
	seen := map[string]bool{}
	for _, m := range layerMetrics {
		if !nameRE.MatchString(m.name) || !unitRE.MatchString(m.unit) {
			t.Errorf("%q (%q): malformed name or unit", m.name, m.unit)
		}
		if m.better != "lower" && m.better != "higher" {
			t.Errorf("%s: direction %q", m.name, m.better)
		}
		if seen[m.name] {
			t.Errorf("%s listed twice", m.name)
		}
		seen[m.name] = true
		if strings.Contains(m.name, ".probe_") && !(values[m.name].Value > 0) {
			t.Errorf("%s = %v: no probe feeds it", m.name, values[m.name].Value)
		}
	}
	for _, m := range endToEndMetrics {
		if seen[m.name] {
			t.Errorf("%s is both an end-to-end and a per-layer name", m.name)
		}
	}
	if values["vote.doc_bytes"].Value <= 0 || !values["vote.doc_bytes"].Exact {
		t.Errorf("vote.doc_bytes = %+v, want an exact positive size", values["vote.doc_bytes"])
	}
}

// TestContractFile keeps BENCHMARK.json, the one copy of the contract, in step
// with the tables it names things from, and inside the limits the contract
// sets.
func TestContractFile(t *testing.T) {
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              *float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(got))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(got) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(got))
	}
	if strings.Join(doc.Command, " ") != "bash benchmark/run.sh" || len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" {
		t.Errorf("command %v, paths %v", doc.Command, doc.Paths)
	}
	if doc.RunSeconds != frozenSeconds {
		t.Errorf("run_seconds %d, the round counts are calibrated for %d", doc.RunSeconds, frozenSeconds)
	}

	script, err := os.ReadFile("run.sh")
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != 5 || len(workloads) != 5 {
		t.Fatalf("%d workloads in the file, %d in the table, want 5", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if !nameRE.MatchString(w.Name) || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad name or why (%d chars)", w.Name, len(w.Why))
		}
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d is %q in the file and %q in the table (or their whys differ)", i, w.Name, workloads[i].name)
		}
		if !strings.Contains(string(script), " "+w.Name) {
			t.Errorf("run.sh suite does not run workload %q", w.Name)
		}
	}

	// The file holds the table's metrics with a relative bound: all seven
	// but fail_ratio.
	if len(endToEndMetrics) != 7 || len(doc.EndToEnd) != 6 {
		t.Fatalf("%d end-to-end metrics in the table, %d in the file, want 7 and 6", len(endToEndMetrics), len(doc.EndToEnd))
	}
	for i, m := range doc.EndToEnd {
		want := endToEndMetrics[i]
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end %q: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Fatalf("end-to-end %q: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name != want.name || m.Unit != want.unit || m.Better != want.better || *m.Bound != want.bound {
			t.Errorf("end-to-end %d is %s %s %s %v in the file, %+v in the table", i, m.Name, m.Unit, m.Better, *m.Bound, want)
		}
		if want.sameSeed <= 0 || want.sameSeed > want.bound {
			t.Errorf("%s: same-seed bound %v, want within (0, %v]", want.name, want.sameSeed, want.bound)
		}
	}
	if m := doc.EndToEnd[0]; m.Name != "setup_s" || m.Unit != "s" || m.Better != "lower" {
		t.Error(`the first end-to-end metric is not "setup_s" in s, lower is better`)
	}
	if last := endToEndMetrics[6]; last.name != failRatio || last.bound != 0 {
		t.Errorf("the table's seventh metric is %+v, want fail_ratio with the absolute bound 0", last)
	}

	if len(doc.PerLayer) != len(layerMetrics) || len(doc.PerLayer) > 128 {
		t.Fatalf("%d per-layer metrics in the file, %d in the table, limit 128", len(doc.PerLayer), len(layerMetrics))
	}
	for i, m := range doc.PerLayer {
		if want := layerMetrics[i]; m.Name != want.name || m.Unit != want.unit || m.Better != want.better {
			t.Errorf("per-layer %d is %s %s %s in the file, %s %s %s in the table", i, m.Name, m.Unit, m.Better, want.name, want.unit, want.better)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0},   // overlaps a: the union covers 10..60
		{Name: "c", Start: 90, End: 120, Parent: 0},  // runs past the parent: clipped to 90..100
		{Name: "a1", Start: 12, End: 20, Parent: 1},  // grandchild: only a's self time
		{Name: "lone", Start: 5, End: 9, Parent: -1}, // another op
	}
	want := []int64{100 - 50 - 10, 30 - 8, 30, 30, 8, 4}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %q = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestTailRule(t *testing.T) {
	series := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64((i*7)%n + 1) // a permutation of 1..n for n coprime to 7
		}
		return out
	}
	for _, c := range []struct {
		n, pct int
		value  float64
	}{
		{24, 58, 14}, // 10 of 24 rounds lie beyond the 14th
		{100, 90, 90},
		{26, 61, 16},
		{20, 50, 10},
		{19, 50, 10}, // under twenty rounds the tail is the median
		{3, 50, 2},
	} {
		v, pct := tail(series(c.n))
		if v != c.value || pct != c.pct {
			t.Errorf("n=%d: tail = %v at p%d, want %v at p%d", c.n, v, pct, c.value, c.pct)
		}
	}
}

// TestQuartiles pins the quartiles to what Python's
// statistics.quantiles(values, n=4) returns for the same ten values.
func TestQuartiles(t *testing.T) {
	vals := []float64{5.1, 4.9, 5.4, 5.0, 5.2, 4.8, 5.6, 5.05, 5.15, 4.95}
	q1, q3 := quartiles(vals)
	if d := q1 - 4.9375; d > 1e-12 || d < -1e-12 {
		t.Errorf("q1 = %v, want 4.9375", q1)
	}
	if d := q3 - 5.25; d > 1e-12 || d < -1e-12 {
		t.Errorf("q3 = %v, want 5.25", q3)
	}
	if s := spread([]float64{7}); s != 0 {
		t.Errorf("spread of one value = %v", s)
	}
}

// TestProfileAttribution profiles a hashing loop for real and reads the
// profile back with the in-tree reader.
func TestProfileAttribution(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	block := make([]byte, 1<<20)
	for start := time.Now(); time.Since(start) < 400*time.Millisecond; {
		sink = sha256.Sum256(block)
	}
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) < 10 {
		t.Skipf("only %d samples", len(samples))
	}
	if share := cpuShares(samples)["crypto.sha256"]; share < 0.5 {
		t.Errorf("crypto.sha256 share of a hashing loop = %.2f, want > 0.5", share)
	}

	// Attribution rules on hand-made stacks, leaf first.
	shares := cpuShares([]stackSample{
		{2, []string{"crypto/internal/fips140/sha256.blockSHANI", "partialtor/internal/sig.Hash", "partialtor/internal/vote.(*Document).Digest", "partialtor/internal/dirv3.(*Authority).Deliver"}},
		{1, []string{"crypto/internal/fips140/sha512.blockAVX2", "crypto/internal/fips140/ed25519.verify", "partialtor/internal/sig.Verify", "partialtor/internal/core.(*Node).onVote"}},
		{1, []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}},
	})
	for bucket, want := range map[string]float64{"sig": 0.75, "crypto.sha256": 0.5, "crypto.ed25519": 0.25, "runtime.gc": 0.25, "vote": 0, "dirv3": 0} {
		if shares[bucket] != want {
			t.Errorf("share of %s = %v, want %v", bucket, shares[bucket], want)
		}
	}
}

// TestRacingFence keeps every racing op outside the race-batch livelock
// region and checks that a spec inside it is refused before it runs.
func TestRacingFence(t *testing.T) {
	for k := 0; k <= 2; k++ {
		if sp := raceSpec(k)(1); sp.Clients > maxRacingClients {
			t.Errorf("race%d runs %d clients, fence is %d", k, sp.Clients, maxRacingClients)
		}
	}
	unsafe := distOp(func(seed int64) dircache.Spec {
		return dircache.Spec{Clients: 1_000_000, Caches: 24, Fleets: 12, Topology: topo.Continents(), RaceK: 1, Seed: seed}
	}, nil)
	x := &opCtx{kind: "unsafe", seed: 1, digest: sha256.New(), phase: -1}
	if err := unsafe(x); err == nil || !strings.Contains(err.Error(), "livelock") {
		t.Errorf("a 1 M-client racing op was not refused: %v", err)
	}
}

func TestCompare(t *testing.T) {
	m := endToEnd{"round_ms_p50", "ms", "lower", 0.25, 0.10}
	base := []float64{100, 101, 99, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100}
	shift := func(by float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * by
		}
		return out
	}
	for _, c := range []struct {
		name string
		new  []float64
		want string
	}{
		{"same", base, "unchanged"},
		{"5% slower is inside the same-seed bound", shift(1.05), "unchanged"},
		{"12% slower is outside it, whatever the cross-seed bound", shift(1.12), "regressed"},
		{"5% faster wins every pair and beats the spread", shift(0.95), "improved"},
		{"a better median that wins only 7 of 10 pairs", []float64{98, 99, 97, 98.5, 97.5, 98.2, 97.8, 100.2, 100.1, 100.3}, "unchanged"},
		{"noisy", []float64{80, 120, 100, 70, 130, 100, 90, 110, 100, 100}, "unresolved"},
		{"missing", nil, "unresolved"},
	} {
		if got := verdict(m, base, c.new); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	if got := verdict(endToEnd{"ops_per_s", "1/s", "higher", 0.25, 0.10}, base, shift(0.85)); got != "regressed" {
		t.Errorf("15%% fewer ops per second: verdict %q, want regressed", got)
	}

	// Two files: identical end-to-end runs, one exact count that moved.
	dir := t.TempDir()
	write := func(name string, seed int64, events float64) string {
		path := filepath.Join(dir, name)
		for _, v := range base {
			rec := &result{Workload: "dist-fleet", Seed: seed, Seconds: 15, Correct: true, Attempted: 100,
				Metrics: map[string]measured{"round_ms_p50": {Value: v, Unit: "ms"}}}
			if err := appendRecord(path, rec); err != nil {
				t.Fatal(err)
			}
		}
		rec := &result{Workload: "dist-fleet", Seed: seed, Seconds: 15, Trace: 1, Correct: true, Attempted: 100,
			Metrics: map[string]measured{"simnet.events": {Value: events, Unit: "count", Exact: true}}}
		if err := appendRecord(path, rec); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, b, c := write("a.jsonl", 1, 1000), write("b.jsonl", 1, 1000), write("c.jsonl", 1, 1001)
	var out bytes.Buffer
	if clean, err := compareFiles(&out, a, b); err != nil || !clean {
		t.Errorf("identical sets: clean=%v err=%v\n%s", clean, err, out.String())
	}
	out.Reset()
	if clean, err := compareFiles(&out, a, c); err != nil || clean || !strings.Contains(out.String(), "exact mismatch") {
		t.Errorf("a moved exact count went unnoticed: clean=%v err=%v\n%s", clean, err, out.String())
	}
	if _, err := compareFiles(&out, a, write("d.jsonl", 2, 1000)); err == nil {
		t.Error("runs recorded at different seeds were compared as pairs")
	}
}
