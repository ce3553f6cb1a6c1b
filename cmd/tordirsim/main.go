// Command tordirsim runs one directory-protocol scenario on the simulator:
// choose a protocol, a relay count, authority bandwidth and (optionally) a
// DDoS attack window, and observe whether a consensus document is produced
// and how long it takes.
//
// With -clients the run continues into the distribution phase: the consensus
// fans out through directory caches to a synthetic client population. On
// -topology continents both tiers sit on the builtin continental map and the
// report gains a per-region coverage/p50/p99 breakdown; -race K makes each
// client race its fetch against K caches (first response wins).
//
// The chaos flags stress the distribution tier: -crash F crashes that
// fraction of the mirrors mid-window (state lost, restart and re-fetch),
// -churn F makes that fraction leave and rejoin the gossip mesh (-gossip N
// meshes the tier with push fanout N), and -backoff switches the fleets to
// capped seeded-jitter exponential retry backoff. The report then carries
// the graceful-degradation numbers: fault events, time below target
// coverage, worst MTTR.
//
// The observability flags record the run's full event stream — kernel
// transfers and per-pipe samples, protocol phases, votes and timeouts, attack
// windows — and export it as a Chrome trace (-trace, load in chrome://tracing
// or https://ui.perfetto.dev) and/or a JSONL metrics log (-metrics). -detect
// feeds the stream through the Danner-style detector and reports the
// attack-detection latency from the victim's chair: how long after the flood
// began the attacked authorities' own pipe baselines flagged it, and how far
// ahead of the consensus loss that is. On the paper's Figure-10 flood
// (-protocol current -attack) the flood slows the initial vote exchange to a
// crawl; the detector's baselines absorb that crawl as "normal" but the
// round-boundary traffic piling onto the still-throttled pipes deviates hard,
// so the victims flag the attack hundreds of seconds before the v3 monitor
// declares the consensus lost. With -detect the exit status is the detector's
// verdict: nonzero when the flood went undetected or was flagged only after
// the consensus was lost, or when a healthy run raised a false positive.
//
// Examples:
//
//	tordirsim -protocol current -relays 8000
//	tordirsim -protocol current -relays 8000 -attack -attack-minutes 5
//	tordirsim -protocol ours -relays 8000 -bandwidth 0.5
//	tordirsim -protocol ours -clients 100000 -topology continents -race 2
//	tordirsim -protocol ours -clients 100000 -gossip 3 -crash 0.3 -churn 0.2 -backoff
//	tordirsim -protocol current -attack -trace trace.json   # chrome://tracing
//	tordirsim -protocol current -attack -detect
//	tordirsim -attack -metrics events.jsonl -detect
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"strings"
	"time"

	"partialtor"
	"partialtor/internal/simnet"
)

// fmtCoverageTime renders a time-to-coverage value; Never means the fraction
// was not reached within the fetch window.
func fmtCoverageTime(d time.Duration) string {
	if d == partialtor.Never {
		return "never"
	}
	return d.Round(time.Second).String()
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tordirsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		protoName     = fs.String("protocol", "ours", "protocol: current | synchronous | ours")
		relays        = fs.Int("relays", 8000, "number of relays in the synthetic population")
		bandwidthMbit = fs.Float64("bandwidth", 250, "authority access bandwidth in Mbit/s")
		round         = fs.Duration("round", 150*time.Second, "lock-step round length (baselines)")
		doAttack      = fs.Bool("attack", false, "throttle the majority of the authorities")
		attackMinutes = fs.Float64("attack-minutes", 5, "attack window length in minutes")
		residualMbit  = fs.Float64("attack-residual", 0.5, "bandwidth left to attacked authorities (Mbit/s); 0 = offline")
		seed          = fs.Int64("seed", 1, "simulation seed")
		topoName      = fs.String("topology", "flat", "topology: flat or continents")
		clients       = fs.Int("clients", 0, "run the distribution phase with this many clients (0 = skip)")
		caches        = fs.Int("caches", 20, "directory caches in the distribution phase")
		raceK         = fs.Int("race", 0, "racing-client width K (0 = legacy client)")
		gossipFanout  = fs.Int("gossip", 0, "mesh the cache tier with this push fanout (0 = star topology)")
		crashFrac     = fs.Float64("crash", 0, "crash this fraction of the mirrors mid-window (0 = none)")
		churnFrac     = fs.Float64("churn", 0, "churn this fraction of the mesh membership (0 = none; needs -gossip)")
		backoffOn     = fs.Bool("backoff", false, "fleets retry with capped seeded-jitter exponential backoff")
		showLog       = fs.Int("log", -1, "print the protocol log of this authority (-1 = none)")
		tracePath     = fs.String("trace", "", "write a Chrome trace of the run (chrome://tracing, Perfetto)")
		metricsPath   = fs.String("metrics", "", "write the run's event stream as JSONL to this file")
		detect        = fs.Bool("detect", false, "run the flood detector and report detection latency")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	// authorities is the scenario's authority count (the Scenario default).
	const authorities = 9
	for _, f := range []struct {
		name string
		frac float64
	}{{"-crash", *crashFrac}, {"-churn", *churnFrac}} {
		if f.frac < 0 || f.frac > 1 {
			fmt.Fprintf(stderr, "tordirsim: %s %g outside [0, 1]\n", f.name, f.frac)
			return 2
		}
	}
	if !(*bandwidthMbit > 0 && *bandwidthMbit <= math.MaxFloat64) { // NaN fails every comparison
		fmt.Fprintf(stderr, "tordirsim: -bandwidth %g is not a positive number of Mbit/s\n", *bandwidthMbit)
		return 2
	}
	// The scenario replaces a zero count, round or seed with its default, a
	// negative client count skips the distribution phase, an empty attack
	// window is no attack and a negative fanout is no mesh: each would run
	// something other than what was asked. The harness rejects the rest, but
	// only as a failed run, whose exit status is the lost consensus's.
	for _, bad := range []struct {
		on  bool
		msg string
	}{
		{*relays <= 0, fmt.Sprintf("-relays %d is not a positive relay count", *relays)},
		{*round <= 0, fmt.Sprintf("-round %v is not a positive round length", *round)},
		{*seed == 0, "-seed 0 is not a seed: the scenario would run seed 1"},
		{*caches <= 0, fmt.Sprintf("-caches %d is not a positive cache count", *caches)},
		{*clients < 0, fmt.Sprintf("-clients %d is negative (0 skips the distribution phase)", *clients)},
		{!(*attackMinutes > 0 && *attackMinutes*float64(time.Minute) < math.MaxInt64),
			fmt.Sprintf("-attack-minutes %g is not a positive window length", *attackMinutes)},
		{!(*residualMbit >= 0), fmt.Sprintf("-attack-residual %g is not a bandwidth in Mbit/s (0 = offline)", *residualMbit)},
		{*raceK < 0, fmt.Sprintf("-race %d is negative (0 is the legacy client)", *raceK)},
		{*gossipFanout < 0, fmt.Sprintf("-gossip %d is negative (0 keeps the star topology)", *gossipFanout)},
	} {
		if bad.on {
			fmt.Fprintf(stderr, "tordirsim: %s\n", bad.msg)
			return 2
		}
	}
	if *showLog < -1 || *showLog >= authorities {
		fmt.Fprintf(stderr, "tordirsim: -log %d outside [-1, %d): there are %d authorities\n", *showLog, authorities, authorities)
		return 2
	}

	var proto partialtor.Protocol
	switch strings.ToLower(*protoName) {
	case "current", "dirv3":
		proto = partialtor.Current
	case "synchronous", "sync", "luo":
		proto = partialtor.Synchronous
	case "ours", "icps", "partial":
		proto = partialtor.ICPS
	default:
		fmt.Fprintf(stderr, "unknown protocol %q\n", *protoName)
		return 2
	}

	topology, err := partialtor.TopologyByName(*topoName)
	if err != nil {
		fmt.Fprintf(stderr, "tordirsim: %v\n", err)
		return 2
	}
	s := partialtor.Scenario{
		Protocol:     proto,
		Relays:       *relays,
		EntryPadding: -1,
		Bandwidth:    *bandwidthMbit * 1e6,
		Round:        *round,
		Seed:         *seed,
		Topology:     topology,
	}
	if *clients > 0 {
		s.Distribution = &partialtor.DistributionSpec{
			Clients: *clients,
			Caches:  *caches,
			Seed:    *seed,
			RaceK:   *raceK,
		}
		if *gossipFanout > 0 {
			s.Distribution.Gossip = &partialtor.GossipConfig{
				Fanout: *gossipFanout,
				Seeds:  partialtor.FirstTargets(1),
			}
		}
		if *backoffOn {
			// The zero value selects the backoff defaults at validation.
			s.Distribution.Backoff = &partialtor.RetryBackoff{}
		}
		if *churnFrac > 0 && *gossipFanout <= 0 {
			fmt.Fprintln(stderr, "tordirsim: -churn needs -gossip: churn is mirrors leaving the mesh")
			return 2
		}
		// The fault windows sit against the default fetch window.
		s.Distribution.Faults = partialtor.MidWindowChaos(*caches, 30*time.Minute, *crashFrac, *churnFrac)
	} else if *raceK > 0 || *gossipFanout > 0 || *crashFrac > 0 || *churnFrac > 0 || *backoffOn {
		fmt.Fprintln(stderr, "tordirsim: -race, -gossip, -crash, -churn and -backoff need a distribution phase; set -clients")
		return 2
	}
	// The tracer pipeline: a recorder for the export sinks, a detector when
	// asked; with neither, a nil tracer.
	var rec *partialtor.TraceRecorder
	var sinks []partialtor.Tracer
	if *tracePath != "" || *metricsPath != "" {
		rec = partialtor.NewTraceRecorder(1 << 20)
		sinks = append(sinks, rec)
	}
	if *detect {
		sinks = append(sinks, partialtor.NewDetector())
	}
	s.Tracer = partialtor.TraceTee(sinks...)
	if *doAttack {
		plan := partialtor.AttackPlan{
			Targets:  partialtor.MajorityTargets(authorities),
			Start:    0,
			End:      time.Duration(*attackMinutes * float64(time.Minute)),
			Residual: *residualMbit * 1e6,
		}
		s.Attack = &plan
		fmt.Fprintf(stdout, "attack: %d targets, window %v, residual %.2f Mbit/s\n",
			len(plan.Targets), plan.End, plan.Residual/1e6)
	}

	fmt.Fprintf(stdout, "running %v with %d relays at %.2f Mbit/s (seed %d)...\n",
		proto, *relays, *bandwidthMbit, *seed)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	res, err := partialtor.RunE(ctx, s)
	if err != nil {
		fmt.Fprintf(stderr, "tordirsim: %v\n", err)
		return 1
	}

	if res.Success {
		fmt.Fprintf(stdout, "SUCCESS: consensus generated, network-time latency %.1fs\n", res.Latency.Seconds())
	} else {
		fmt.Fprintln(stdout, "FAILURE: no valid consensus document this period")
		fmt.Fprintf(stdout, "cause: %s\n", res.Cause())
	}
	fmt.Fprintf(stdout, "transport: %d messages, %.2f MB sent\n", res.Messages, float64(res.BytesSent)/1e6)
	if d := res.Distribution; d != nil {
		fmt.Fprintf(stdout, "distribution: %s\n", d.Summary())
		for _, rc := range d.Regions {
			fmt.Fprintf(stdout, "  region %-4s clients %-9d coverage %5.1f%%  p50 %-10s p99 %s\n",
				rc.Name, rc.Clients, 100*rc.Coverage(),
				fmtCoverageTime(rc.P50), fmtCoverageTime(rc.P99))
		}
	}
	if rec != nil {
		if d := rec.Dropped(); d > 0 {
			fmt.Fprintf(stderr, "tordirsim: the recorder dropped the %d oldest events\n", d)
		}
		for _, out := range []struct {
			name, path string
			write      func(io.Writer) error
		}{
			{"metrics", *metricsPath, rec.WriteJSONL},
			{"trace", *tracePath, rec.WriteChromeTrace},
		} {
			if out.path == "" {
				continue
			}
			if err := partialtor.WriteTraceFile(out.path, out.write); err != nil {
				fmt.Fprintf(stderr, "tordirsim: %v\n", err)
				return 1
			}
			fmt.Fprintf(stdout, "%s: %d events -> %s\n", out.name, rec.Len(), out.path)
		}
	}
	if *showLog >= 0 {
		fmt.Fprintf(stdout, "\n--- authority %d log ---\n", *showLog)
		for _, e := range res.Net.NodeLog(simnet.NodeID(*showLog)) {
			fmt.Fprintf(stdout, "%10.3fs [%s] %s\n", e.At.Seconds(), e.Level, e.Text)
		}
	}
	if *detect {
		// The consensus this period is lost when the protocol's schedule
		// ends without a document: the v3 monitor's final check at 4 rounds.
		// Other protocols get the paper's fallback accounting.
		lost := partialtor.FallbackLatency
		if proto == partialtor.Current {
			lost = 4 * *round
		}
		return reportDetections(stdout, res, lost, *doAttack)
	}
	if !res.Success {
		return 1
	}
	return 0
}

// reportDetections prints the detector's verdicts and returns the exit
// code: nonzero when the flood went undetected (or, on a failed run, was only
// detected after the consensus was already lost), or when a run without a
// flood flagged one.
func reportDetections(w io.Writer, res *partialtor.RunResult, lost time.Duration, attacked bool) int {
	dets := res.Detections
	if len(dets) == 0 {
		if !attacked {
			fmt.Fprintln(w, "detector: quiet (no attack, no false positives)")
			return 0
		}
		fmt.Fprintln(w, "detector: the flood went UNDETECTED")
		return 1
	}
	first, _ := partialtor.FirstDetection(dets)
	fmt.Fprintf(w, "detector: %d signals flagged; first at %.1fs (node %d, %s, %s)\n",
		len(dets), first.At.Seconds(), first.Node, first.Layer, first.Signal)
	if !attacked {
		fmt.Fprintln(w, "detector: FALSE POSITIVE on a healthy run")
		return 1
	}
	if first.Latency >= 0 {
		fmt.Fprintf(w, "detector: detection latency %.1fs after the flood began\n", first.Latency.Seconds())
	}
	if !res.Success {
		if first.At < lost {
			fmt.Fprintf(w, "detector: flagged %.1fs before the consensus was lost at %.1fs\n",
				(lost - first.At).Seconds(), lost.Seconds())
		} else {
			fmt.Fprintf(w, "detector: flagged only at %.1fs, AFTER the consensus was lost at %.1fs\n",
				first.At.Seconds(), lost.Seconds())
			return 1
		}
	}
	return 0
}
