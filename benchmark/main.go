// Command benchmark is the one benchmark of the whole simulator: five fixed
// workloads run against the public functions of each layer, every output is
// checked, and every metric is printed by name with its unit.
//
//	benchmark -workload <name> -seed <n> -seconds <s> -trace <0|1>
//
// runs one workload in its own process. With -trace 0 it measures the
// end-to-end metrics (set-up time, scenario runs per second, the median and
// tail round time, allocation per round, peak memory, the share of failed
// ops) with tracing off; with -trace 1 it re-runs the same op list untraced
// and traced, pair by pair, and reports the per-layer metrics: spans recorded
// from the benchmark's own files, a counting obs.Tracer, counts read from the
// results, CPU-sample attribution and micro-probes. The last line of
// standard output is one JSON object {"correct", "attempted", "failed",
// "metrics"}; the process exits non-zero when any op failed.
//
//	benchmark -compare old.jsonl new.jsonl
//
// compares two sets of runs recorded with -out. README.md in this directory
// has the workloads, the metric glossary and the comparison protocol;
// BENCHMARK.json at the root of the repository has the contract.
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"sync/atomic"
	"time"

	"partialtor/internal/harness"
)

// opDeadline is the host time one op may take. No op comes within a factor
// of ten of it; crossing it means a livelock (see README, "Unsafe region").
const opDeadline = 60 * time.Second

// options are the command line of one workload run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// smoke is set by -smoke and the tests only: one round (or round pair)
	// and no set-up children. It is not a flag of a measuring run, so two
	// records of one (workload, seed, seconds) always did the same work.
	smoke  bool
	dir    string
	record bool
}

// setupChildren is how many fresh processes setup_s is the median of.
const setupChildren = 5

// result is what one run reports: the contract's last line, plus the
// identifying fields a -out record carries.
type result struct {
	Workload  string              `json:"workload,omitempty"`
	Seed      int64               `json:"seed,omitempty"`
	Seconds   int                 `json:"seconds,omitempty"`
	Trace     int                 `json:"trace"`
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run (BENCHMARK.json names the five)")
	flag.Int64Var(&o.seed, "seed", 1, "seed the scenario seeds derive from")
	flag.IntVar(&o.seconds, "seconds", frozenSeconds, "length of the timed phase on the calibration machine; scales the round count")
	flag.IntVar(&trace, "trace", 0, "0 = end-to-end metrics with tracing off, 1 = per-layer metrics from a traced run")
	flag.StringVar(&o.dir, "dir", "benchmark", "the benchmark's directory (expected_digests.json, out/)")
	flag.BoolVar(&o.record, "record", false, "pin this run's op digests into expected_digests.json")
	setupOnly := flag.Bool("setup-only", false, "set up, run the warm-up round and exit (what the setup_s children do)")
	smoke := flag.Bool("smoke", false, "run every workload for one round, untraced then traced, checking invariants")
	compare := flag.Bool("compare", false, "compare two -out files: -compare old.jsonl new.jsonl")
	out := flag.String("out", "", "append this run's full record to a JSON-lines file")
	flag.Parse()
	o.trace = trace != 0

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(errors.New("-compare needs two files"))
		}
		clean, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !clean {
			os.Exit(1)
		}
		return
	case *smoke:
		for _, w := range workloads {
			for _, traced := range []bool{false, true} {
				so := options{workload: w.name, seed: o.seed, seconds: o.seconds, trace: traced, smoke: true, dir: o.dir}
				res, err := runWorkload(so)
				if err != nil {
					fatal(err)
				}
				fmt.Printf("%-18s trace=%v attempted=%d failed=%d\n", w.name, traced, res.Attempted, res.Failed)
				if !res.Correct {
					os.Exit(1)
				}
			}
		}
		return
	}

	w := findWorkload(o.workload)
	if w == nil {
		fatal(fmt.Errorf("unknown workload %q", o.workload))
	}
	if *setupOnly {
		r := newRun(w, o)
		r.setUp()
		r.watchdog.stop()
		if r.failed > 0 {
			os.Exit(1)
		}
		return
	}
	res, err := runWorkload(o)
	if err != nil {
		fatal(err)
	}
	if *out != "" {
		if err := appendRecord(*out, res); err != nil {
			fatal(err)
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool                `json:"correct"`
		Attempted int                 `json:"attempted"`
		Failed    int                 `json:"failed"`
		Metrics   map[string]measured `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, contractMetrics(res.Metrics)})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// contractMetrics is what the contract's result line carries: a value and a
// unit per metric, without the -out-only exact marks, and without fail_ratio,
// which that line gives as the failed/attempted pair.
func contractMetrics(in map[string]measured) map[string]measured {
	out := make(map[string]measured, len(in))
	for k, v := range in {
		if k != failRatio {
			out[k] = measured{Value: v.Value, Unit: v.Unit}
		}
	}
	return out
}

func appendRecord(path string, res *result) error {
	data, err := json.Marshal(res)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// run is the state of one workload run in this process.
type run struct {
	w     *workload
	o     options
	seeds []int64

	attempted, failed int
	// digests remembers the first digest of every (kind, seed):
	// an op whose digest differs from an earlier run of the same inputs in
	// this process — traced or not — has failed.
	digests map[string]string
	pinned  map[string]string
	drift   int

	inputsMS float64
	watchdog *watchdog
}

func newRun(w *workload, o options) *run {
	return &run{w: w, o: o, seeds: deriveSeeds(o.seed), digests: map[string]string{}, watchdog: startWatchdog()}
}

// setUp builds the workload's inputs and runs the untimed warm-up round.
func (r *run) setUp() {
	if r.w.inputs != nil {
		start := time.Now()
		for _, s := range r.w.inputs(r.seeds) {
			harness.Inputs(s)
		}
		r.inputsMS = ms(time.Since(start))
	}
	r.round(0, nil, nil)
}

// round runs every op kind once with the round's seed. rec and tr are nil in
// an end-to-end pass; an untraced pass of the traced invocation has rec only.
func (r *run) round(index int, rec *recorder, tr *traceStore) {
	seed := r.seeds[index%len(r.seeds)]
	for i := range r.w.kinds {
		r.op(&r.w.kinds[i], seed, rec, tr)
	}
}

func (r *run) op(k *kind, seed int64, rec *recorder, tr *traceStore) {
	x := &opCtx{kind: k.name, seed: seed, digest: sha256.New(), rec: rec, tr: tr, phase: -1}
	if tr != nil {
		x.op = tr.nextOp()
		x.self = tr.open("op "+k.name, -1, x.op)
	}
	r.watchdog.arm(r.w.name + "/" + k.name)
	start := time.Now()
	err := runGuarded(k, x)
	wall := time.Since(start)
	r.watchdog.disarm()
	x.finish()

	r.attempted++
	key := fmt.Sprintf("%s/%s/seed=%d", r.w.name, k.name, seed)
	digest := hex.EncodeToString(x.digest.Sum(nil))
	if err == nil {
		if first, seen := r.digests[key]; !seen {
			r.digests[key] = digest
		} else if first != digest {
			err = fmt.Errorf("digest %s differs from the first run of the same inputs (%s)", digest[:12], first[:12])
		}
	}
	if err != nil {
		r.failed++
		fmt.Fprintf(os.Stderr, "FAILED %s: %v\n", key, err)
		return
	}
	if want, ok := r.pinned[key]; ok && want != digest && tr == nil {
		r.drift++
	}
	if rec != nil && tr == nil && k.timing != "" {
		rec.sample(k.timing, ms(wall))
	}
}

// runGuarded turns a panic inside an op into that op's failure.
func runGuarded(k *kind, x *opCtx) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return k.run(x)
}

// roundCount scales the workload's calibrated round count to -seconds.
func (r *run) roundCount() int {
	if r.o.smoke {
		return 1
	}
	return max(1, (r.w.rounds*r.o.seconds+frozenSeconds/2)/frozenSeconds)
}

func runWorkload(o options) (*result, error) {
	w := findWorkload(o.workload)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	r := newRun(w, o)
	defer r.watchdog.stop()
	pinned, err := loadExpectedDigests()
	if err != nil {
		return nil, err
	}
	r.pinned = pinned

	var metrics map[string]measured
	notes := map[string]string{}
	if o.trace {
		metrics, err = r.tracedRun()
	} else {
		metrics, err = r.endToEndRun(notes)
	}
	if err != nil {
		return nil, err
	}
	if o.record {
		if err := recordDigests(o.dir, r.digests); err != nil {
			return nil, err
		}
	}
	fmt.Printf("workload %s  seed %d  trace %v  ops %d  failed %d\n", w.name, o.seed, o.trace, r.attempted, r.failed)
	printMetrics(metrics, notes)
	res := &result{
		Workload: w.name, Seed: o.seed, Seconds: o.seconds,
		Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: metrics,
	}
	if o.trace {
		res.Trace = 1
	}
	return res, nil
}

// endToEndRun measures the end-to-end metrics with tracing off.
func (r *run) endToEndRun(notes map[string]string) (map[string]measured, error) {
	setups, err := r.timeSetUps()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	r.setUp()
	if r.o.smoke {
		// This process's own set-up stands in; it lacks process start.
		setups = []float64{time.Since(start).Seconds()}
	}
	rounds := r.roundCount()
	walls := make([]float64, rounds)
	peaks := make([]float64, rounds)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start = time.Now()
	for i := range walls {
		resetPeakRSS()
		t := time.Now()
		r.round(i, nil, nil)
		walls[i] = ms(time.Since(t))
		if peaks[i], err = peakRSSMB(); err != nil {
			return nil, err
		}
	}
	timed := time.Since(start)
	runtime.ReadMemStats(&after)

	fmt.Printf("round walls (ms): %.0f\n", walls)
	fmt.Printf("round peak resident sets (MB): %.1f\n", peaks)
	tailMS, pct := tail(walls)
	notes["round_ms_p50"] = fmt.Sprintf("n=%d", rounds)
	notes["peak_rss_mb"] = fmt.Sprintf("median of %d round peaks, highest %.1f", rounds, slices.Max(peaks))
	notes["round_ms_tail"] = fmt.Sprintf("p%d, n=%d", pct, rounds)
	notes["setup_s"] = fmt.Sprintf("median of %d child set-ups", len(setups))
	notes["ops_per_s"] = fmt.Sprintf("%d ops in %.2f s", rounds*len(r.w.kinds), timed.Seconds())
	values := map[string]float64{
		"setup_s":            median(setups),
		"ops_per_s":          float64(rounds*len(r.w.kinds)) / timed.Seconds(),
		"round_ms_p50":       median(walls),
		"round_ms_tail":      tailMS,
		"alloc_mb_per_round": float64(after.TotalAlloc-before.TotalAlloc) / 1e6 / float64(rounds),
		"peak_rss_mb":        median(peaks),
		failRatio:            float64(r.failed) / float64(r.attempted),
	}
	out := make(map[string]measured, len(endToEndMetrics))
	for _, m := range endToEndMetrics {
		out[m.name] = measured{Value: values[m.name], Unit: m.unit}
	}
	return out, nil
}

// timeSetUps measures set-up the way a user pays for it: a fresh process
// from start to the end of the warm-up round, several times, one at a time.
// The children are this binary with -setup-only.
func (r *run) timeSetUps() ([]float64, error) {
	if r.o.smoke {
		return nil, nil
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	walls := make([]float64, setupChildren)
	for i := range walls {
		ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
		cmd := exec.CommandContext(ctx, exe, "-setup-only", "-workload", r.w.name, "-seed", fmt.Sprint(r.o.seed))
		cmd.Stderr = os.Stderr
		start := time.Now()
		err := cmd.Run()
		walls[i] = time.Since(start).Seconds()
		cancel()
		if err != nil {
			return nil, fmt.Errorf("set-up child: %w", err)
		}
	}
	return walls, nil
}

// tracedRun produces the per-layer metrics. Every round runs twice with the
// same seed: untraced (counters and per-kind walls) and then traced (spans,
// shadow drivers, counting tracer). The digest check spans both, so tracing
// that perturbed an output would fail the op. The CPU profile covers the
// whole timed phase.
func (r *run) tracedRun() (map[string]measured, error) {
	registerShadows()
	r.setUp()
	pairs := max(1, r.roundCount()/2)
	env := &layerEnv{plain: newRecorder(), traced: newRecorder(), rounds: 2 * pairs, inputsMS: r.inputsMS}
	store := newTraceStore()

	var profile bytes.Buffer
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := pprof.StartCPUProfile(&profile); err != nil {
		return nil, err
	}
	for i := 0; i < pairs; i++ {
		t := time.Now()
		r.round(i, env.plain, nil)
		env.plainWall += time.Since(t).Seconds()
		t = time.Now()
		r.round(i, env.traced, store)
		env.tracedWall += time.Since(t).Seconds()
	}
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&after)
	env.mallocs = after.Mallocs - before.Mallocs
	env.gcCycles = after.NumGC - before.NumGC
	env.drift = r.drift

	samples, err := parseProfile(profile.Bytes())
	if err != nil {
		return nil, err
	}
	env.cpu = cpuShares(samples)
	env.probes = runProbes(r.seeds[0])

	path, err := store.write(filepath.Join(r.o.dir, "out"), r.w.name)
	if err != nil {
		return nil, err
	}
	fmt.Printf("trace: %d spans of %d ops in %s\n", len(store.spans), store.ops, path)
	return layerValues(env), nil
}

// watchdog enforces opDeadline from its own goroutine: a livelocked op never
// returns, so the runner cannot time it out itself. On expiry it reports the
// op and ends the process non-zero; the ops that did not run count as failed.
type watchdog struct {
	deadline atomic.Int64 // unix nanoseconds; 0 = disarmed
	name     atomic.Value
	done     chan struct{}
	exited   chan struct{}
}

func startWatchdog() *watchdog {
	wd := &watchdog{done: make(chan struct{}), exited: make(chan struct{})}
	go func() {
		defer close(wd.exited)
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-wd.done:
				return
			case now := <-tick.C:
				if d := wd.deadline.Load(); d != 0 && now.UnixNano() > d {
					fmt.Fprintf(os.Stderr, "FAILED %v: no result within the %v host deadline; the remaining ops count as failed\n",
						wd.name.Load(), opDeadline)
					os.Exit(3)
				}
			}
		}
	}()
	return wd
}

func (wd *watchdog) arm(name string) {
	wd.name.Store(name)
	wd.deadline.Store(time.Now().Add(opDeadline).UnixNano())
}

func (wd *watchdog) disarm() { wd.deadline.Store(0) }

// stop ends the watchdog goroutine and waits for it.
func (wd *watchdog) stop() {
	close(wd.done)
	<-wd.exited
}
