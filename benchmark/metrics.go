package main

import (
	"fmt"
	"sort"
)

// endToEnd is one metric a user of the simulator would see, measured with
// tracing off.
//
// bound is the share of the parent's median by which the metric may worsen
// before a change counts as a regression, for runs that each draw another
// -seed: BENCHMARK.json repeats it and a test keeps the two equal. sameSeed
// is the bound -compare applies, to sets that run.sh suite recorded at one
// seed, where the spread is the machine's alone. The two differ where the
// seed moves the metric more than the machine does. README.md, "Measured
// spreads", has the numbers behind both columns.
type endToEnd struct {
	name, unit, better string
	bound, sameSeed    float64
}

// failRatio has an absolute bound of 0: any failed op is a regression. It is
// printed and recorded with the other six, but the contract's result line and
// BENCHMARK.json cannot hold it (they want metrics that are never 0, under a
// relative bound): there it is the failed/attempted pair.
const failRatio = "fail_ratio"

var endToEndMetrics = []endToEnd{
	{"setup_s", "s", "lower", 0.25, 0.25},
	{"ops_per_s", "1/s", "higher", 0.25, 0.25},
	{"round_ms_p50", "ms", "lower", 0.25, 0.25},
	{"round_ms_tail", "ms", "lower", 0.25, 0.25},
	// Allocation repeats to five digits at one seed; across seeds it steps by
	// a sixth on consensus-ddos (ICPS aggregates five or nine votes).
	{"alloc_mb_per_round", "MB", "lower", 0.25, 0.02},
	{"peak_rss_mb", "MB", "lower", 0.25, 0.25},
	{failRatio, "ratio", "lower", 0, 0},
}

// layerEnv is everything a traced invocation measured, from which the
// per-layer metrics are read: plain is the recorder of the untraced passes
// (counters, per-kind op walls), traced that of the traced passes (what the
// spans, the shadow drivers and the counting tracer saw).
type layerEnv struct {
	plain, traced *recorder
	probes        map[string]float64
	cpu           map[string]float64 // CPU-sample share per bucket
	plainWall     float64            // seconds spent in untraced rounds
	tracedWall    float64            // seconds spent in traced rounds
	rounds        int                // untraced + traced rounds
	inputsMS      float64
	mallocs       uint64
	gcCycles      uint32
	drift         int
}

// layerMetric is one per-layer metric. exact marks the counts that must
// repeat exactly for a given -seed and -seconds, so that a later change may
// rest a claim on them.
type layerMetric struct {
	name, unit, better string
	exact              bool
	value              func(e *layerEnv) float64
}

func sum(r func(*layerEnv) *recorder, key string) func(*layerEnv) float64 {
	return func(e *layerEnv) float64 { return r(e).sums[key] }
}

func p50(r func(*layerEnv) *recorder, key string) func(*layerEnv) float64 {
	return func(e *layerEnv) float64 { return median(r(e).samples[key]) }
}

// mean sums in sorted order, so the result does not depend on the order in
// which concurrent cells filed their samples.
func mean(r func(*layerEnv) *recorder, key string) func(*layerEnv) float64 {
	return func(e *layerEnv) float64 {
		s := append([]float64(nil), r(e).samples[key]...)
		if len(s) == 0 {
			return 0
		}
		sort.Float64s(s)
		total := 0.0
		for _, v := range s {
			total += v
		}
		return total / float64(len(s))
	}
}

// scaled divides a raw quantity (bytes, nanoseconds) into its display unit.
func scaled(f func(*layerEnv) float64, by float64) func(*layerEnv) float64 {
	return func(e *layerEnv) float64 { return f(e) / by }
}

func plain(e *layerEnv) *recorder  { return e.plain }
func traced(e *layerEnv) *recorder { return e.traced }

func probe(key string) func(*layerEnv) float64 {
	return func(e *layerEnv) float64 { return e.probes[key] }
}

func cpuShare(bucket string) func(*layerEnv) float64 {
	return func(e *layerEnv) float64 { return e.cpu[bucket] }
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// distKinds are the distribution op kinds with metrics of their own.
var distKinds = []string{"healthy", "cacheflood", "authflood", "fanin", "race0", "race1", "race2", "chaos", "verify"}

var layerMetrics = buildLayerMetrics()

func buildLayerMetrics() []layerMetric {
	m := []layerMetric{
		// sig and the crypto it wraps
		{"sig.probe_hash_mb_per_s", "MB/s", "higher", false, probe("sig.hash_mb_per_s")},
		{"sig.probe_sign_us", "us", "lower", false, probe("sig.sign_us")},
		{"sig.probe_verify_us", "us", "lower", false, probe("sig.verify_us")},
		{"crypto.sha256_cpu_share", "ratio", "lower", false, cpuShare("crypto.sha256")},
		{"crypto.ed25519_cpu_share", "ratio", "lower", false, cpuShare("crypto.ed25519")},

		// vote and relay
		{"vote.doc_bytes", "bytes", "lower", true, probe("vote.doc_bytes")},
		{"vote.probe_encode_ms", "ms", "lower", false, probe("vote.encode_ms")},
		{"vote.probe_digest_ms", "ms", "lower", false, probe("vote.digest_ms")},
		{"vote.probe_parse_ms", "ms", "lower", false, probe("vote.parse_ms")},
		{"vote.probe_aggregate_ms", "ms", "lower", false, probe("vote.aggregate_ms")},
		{"vote.cpu_share", "ratio", "lower", false, cpuShare("vote")},
		{"relay.probe_population_ms", "ms", "lower", false, probe("relay.population_ms")},
	}

	// the three protocols
	for _, p := range []string{"dirv3", "syncdir", "core"} {
		m = append(m,
			layerMetric{p + ".run_ms_p50", "ms", "lower", false, p50(plain, p+".run_ms")},
			layerMetric{p + ".deliver_ms_p50", "ms", "lower", false, p50(traced, p+".deliver_ms")},
			layerMetric{p + ".deliveries", "count", "lower", true, sum(traced, p+".deliveries")},
			layerMetric{p + ".messages", "count", "lower", true, sum(plain, p+".messages")},
			layerMetric{p + ".bytes", "bytes", "lower", true, sum(plain, p+".bytes")},
			layerMetric{p + ".sim_latency_s", "s", "lower", true, scaled(mean(plain, p+".sim_latency_ns"), 1e9)},
			layerMetric{p + ".votes", "count", "lower", true, sum(traced, p+".votes")},
			layerMetric{p + ".timeouts", "count", "lower", true, sum(traced, p+".timeouts")},
			layerMetric{p + ".cpu_share", "ratio", "lower", false, cpuShare(p)},
		)
	}
	m = append(m, layerMetric{"hotstuff.cpu_share", "ratio", "lower", false, cpuShare("hotstuff")})

	// simnet
	m = append(m,
		layerMetric{"simnet.events", "count", "lower", true, sum(plain, "simnet.events")},
		layerMetric{"simnet.events_per_s", "1/s", "higher", false, func(e *layerEnv) float64 {
			return ratio(e.plain.sums["simnet.events"], e.plainWall)
		}},
		layerMetric{"simnet.ns_per_event", "ns", "lower", false, func(e *layerEnv) float64 {
			return ratio(e.traced.sums["simnet.kernel_ns"], e.traced.sums["simnet.events"])
		}},
		layerMetric{"simnet.self_ms_p50", "ms", "lower", false, p50(traced, "simnet.self_ms")},
		layerMetric{"simnet.messages", "count", "lower", true, sum(plain, "simnet.messages")},
		layerMetric{"simnet.bytes_sent", "bytes", "lower", true, sum(plain, "simnet.bytes_sent")},
		layerMetric{"simnet.probe_sched_ns_per_event", "ns", "lower", false, probe("simnet.sched_ns_per_event")},
		layerMetric{"simnet.probe_fanin_us_per_transfer", "us", "lower", false, probe("simnet.fanin_us_per_transfer")},
		layerMetric{"simnet.cpu_share", "ratio", "lower", false, cpuShare("simnet")},
	)

	// dircache
	for _, k := range distKinds {
		m = append(m, layerMetric{"dircache." + k + "_ms_p50", "ms", "lower", false, p50(plain, "dircache."+k+"_ms")})
	}
	for _, k := range distKinds {
		m = append(m, layerMetric{"dircache.coverage_" + k, "ratio", "higher", true, mean(plain, "dircache.coverage_"+k)})
	}
	for _, k := range distKinds {
		m = append(m, layerMetric{"dircache.time_to_target_s_" + k, "s", "lower", true, scaled(mean(plain, "dircache.time_to_target_ns_"+k), 1e9)})
	}
	m = append(m,
		layerMetric{"dircache.failed_fetches", "count", "lower", true, sum(plain, "dircache.failed_fetches")},
		layerMetric{"dircache.cache_fallbacks", "count", "lower", true, sum(plain, "dircache.cache_fallbacks")},
		layerMetric{"dircache.race_timeouts", "count", "lower", true, sum(plain, "dircache.race_timeouts")},
		layerMetric{"dircache.race_waste_mb", "MB", "lower", true, scaled(sum(plain, "dircache.race_waste_bytes"), 1e6)},
		layerMetric{"dircache.race_useful_ratio", "ratio", "higher", true, func(e *layerEnv) float64 {
			egress := e.plain.sums["dircache.cache_egress_bytes"]
			if egress == 0 {
				return 0
			}
			return 1 - e.plain.sums["dircache.race_waste_bytes"]/egress
		}},
		layerMetric{"dircache.retry_bursts", "count", "lower", true, sum(plain, "dircache.retry_bursts")},
		layerMetric{"dircache.retry_dropped", "count", "lower", true, sum(plain, "dircache.retry_dropped")},
		layerMetric{"dircache.cpu_share", "ratio", "lower", false, cpuShare("dircache")},
	)

	// gossip, faults, topo
	m = append(m,
		layerMetric{"gossip.pushes", "count", "lower", true, sum(plain, "gossip.pushes")},
		layerMetric{"gossip.pulls", "count", "lower", true, sum(plain, "gossip.pulls")},
		layerMetric{"gossip.rounds", "count", "lower", true, sum(plain, "gossip.rounds")},
		layerMetric{"gossip.bytes_mb", "MB", "lower", true, scaled(sum(plain, "gossip.bytes"), 1e6)},
		layerMetric{"gossip.probe_buildmesh_ms", "ms", "lower", false, probe("gossip.buildmesh_ms")},
		layerMetric{"gossip.probe_selectpeers_ns", "ns", "lower", false, probe("gossip.selectpeers_ns")},
		layerMetric{"faults.events", "count", "lower", true, sum(plain, "faults.events")},
		layerMetric{"faults.worst_mttr_s", "s", "lower", true, scaled(sum(plain, "faults.worst_mttr_ns"), 1e9)},
		layerMetric{"faults.time_below_target_s", "s", "lower", true, scaled(sum(plain, "faults.time_below_target_ns"), 1e9)},
		layerMetric{"faults.probe_backoff_ns", "ns", "lower", false, probe("faults.backoff_ns")},
		layerMetric{"topo.probe_place_us", "us", "lower", false, probe("topo.place_us")},
	)

	// chain and client
	m = append(m,
		layerMetric{"client.probe_verify_first_us", "us", "lower", false, probe("client.verify_first_us")},
		layerMetric{"client.probe_verify_memo_ns", "ns", "lower", false, probe("client.verify_memo_ns")},
		layerMetric{"client.fork_detections", "count", "lower", true, sum(plain, "client.fork_detections")},
		layerMetric{"client.stale_rejections", "count", "lower", true, sum(plain, "client.stale_rejections")},
		layerMetric{"client.extra_fetches", "count", "lower", true, sum(plain, "client.extra_fetches")},
		layerMetric{"client.timeline_us", "us", "lower", false, p50(traced, "client.timeline_us")},
		layerMetric{"client.availability", "ratio", "higher", true, mean(plain, "client.availability")},
	)

	// harness, sweep and the facade
	m = append(m,
		layerMetric{"harness.inputs_ms", "ms", "lower", false, func(e *layerEnv) float64 { return e.inputsMS }},
		layerMetric{"harness.build_ms_p50", "ms", "lower", false, p50(traced, "harness.build_ms")},
		layerMetric{"harness.collect_ms_p50", "ms", "lower", false, p50(traced, "harness.collect_ms")},
		layerMetric{"harness.generate_ms_p50", "ms", "lower", false, p50(traced, "harness.generate_ms")},
		layerMetric{"harness.distribute_ms_p50", "ms", "lower", false, p50(traced, "harness.distribute_ms")},
		layerMetric{"harness.experiment_ms_p50", "ms", "lower", false, p50(plain, "harness.experiment_ms")},
		layerMetric{"harness.render_ms", "ms", "lower", false, p50(traced, "harness.render_ms")},
		layerMetric{"sweep.probe_overhead_us_per_cell", "us", "lower", false, probe("sweep.overhead_us_per_cell")},
		layerMetric{"sweep.parallel_efficiency", "ratio", "higher", false, func(e *layerEnv) float64 {
			return ratio(e.plain.sums["sweep.cell_wall_s"], campaignWorkers*e.plain.sums["sweep.grid_wall_s"])
		}},
	)

	// obs, the runtime and the benchmark itself
	m = append(m,
		layerMetric{"obs.events_traced", "count", "lower", true, sum(traced, "obs.events_traced")},
		layerMetric{"obs.trace_overhead_pct", "%", "lower", false, func(e *layerEnv) float64 {
			return 100 * ratio(e.tracedWall-e.plainWall, e.plainWall)
		}},
		layerMetric{"runtime.mallocs_per_round", "count", "lower", false, func(e *layerEnv) float64 {
			return ratio(float64(e.mallocs), float64(e.rounds))
		}},
		layerMetric{"runtime.gc_cycles", "count", "lower", false, func(e *layerEnv) float64 { return float64(e.gcCycles) }},
		layerMetric{"runtime.gc_cpu_share", "ratio", "lower", false, cpuShare("runtime.gc")},
		layerMetric{"benchmark.digest_drift", "count", "lower", false, func(e *layerEnv) float64 { return float64(e.drift) }},
	)
	return m
}

// measured is one reported value.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Exact is set, in -out records only, on the per-layer counts that must
	// repeat exactly for the same workload, -seed and -seconds.
	Exact bool `json:"exact,omitempty"`
}

func layerValues(e *layerEnv) map[string]measured {
	out := make(map[string]measured, len(layerMetrics))
	for _, lm := range layerMetrics {
		out[lm.name] = measured{Value: lm.value(e), Unit: lm.unit, Exact: lm.exact}
	}
	return out
}

// printMetrics lists every metric by name with its unit, in table order.
func printMetrics(values map[string]measured, notes map[string]string) {
	names := make([]string, 0, len(values))
	if _, ok := values[endToEndMetrics[0].name]; ok {
		for _, m := range endToEndMetrics {
			names = append(names, m.name)
		}
	} else {
		for _, m := range layerMetrics {
			names = append(names, m.name)
		}
	}
	for _, n := range names {
		v := values[n]
		line := fmt.Sprintf("%-36s %16.6g %s", n, v.Value, v.Unit)
		if v.Exact {
			line += "  (exact)"
		}
		if note := notes[n]; note != "" {
			line += "  " + note
		}
		fmt.Println(line)
	}
}
