// Command tracerun runs one directory-protocol scenario with the
// observability layer on: it records the full event stream — kernel
// transfers and per-pipe samples, protocol phases, votes and timeouts,
// attack windows — and exports it as a Chrome trace (-trace, load in
// chrome://tracing or https://ui.perfetto.dev) and/or a JSONL metrics log
// (-metrics). With -detect it additionally feeds the stream through the
// Danner-style detector and reports the attack-detection latency from the
// victim's chair: how long after the flood began the attacked authorities'
// own pipe baselines flagged it, and how far ahead of the consensus loss
// that is.
//
// The default scenario is the paper's Figure-10 flood: the current
// protocol, 8000 relays, a five-minute majority flood from t=0. The flood
// slows the initial vote exchange to a crawl; the detector's baselines
// absorb that crawl as "normal" but the round-boundary traffic piling onto
// the still-throttled pipes deviates hard, so the victims flag the attack
// hundreds of seconds before the v3 monitor declares the consensus lost.
//
// Examples:
//
//	tracerun -trace trace.json
//	tracerun -detect
//	tracerun -protocol ours -metrics events.jsonl -detect
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"time"

	"partialtor"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tracerun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		protoName     = fs.String("protocol", "current", "protocol: current | synchronous | ours")
		relays        = fs.Int("relays", 8000, "number of relays in the synthetic population")
		bandwidthMbit = fs.Float64("bandwidth", 250, "authority access bandwidth in Mbit/s")
		round         = fs.Duration("round", 150*time.Second, "lock-step round length (baselines)")
		seed          = fs.Int64("seed", 1, "simulation seed")
		noAttack      = fs.Bool("no-attack", false, "trace a healthy run instead of the flood")
		attackStart   = fs.Duration("attack-start", 0, "flood onset")
		attackMinutes = fs.Float64("attack-minutes", 5, "flood window length in minutes")
		residualMbit  = fs.Float64("attack-residual", 0.5, "bandwidth left to flooded authorities (Mbit/s)")
		tracePath     = fs.String("trace", "", "write a Chrome trace (chrome://tracing, Perfetto) to this file")
		metricsPath   = fs.String("metrics", "", "write the event stream as JSONL to this file")
		detect        = fs.Bool("detect", false, "run the flood detector and report detection latency")
		events        = fs.Int("events", 1<<20, "recorder capacity (oldest events beyond it are dropped)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "tracerun: "+format+"\n", args...)
		return 1
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
		return fail("unknown protocol %q", *protoName)
	}
	if *tracePath == "" && *metricsPath == "" && !*detect {
		return fail("nothing to do: give -trace, -metrics or -detect")
	}

	// Assemble the tracer pipeline: a recorder for the export sinks, a
	// detector when asked. Tee drops the nils.
	var rec *partialtor.TraceRecorder
	if *tracePath != "" || *metricsPath != "" {
		rec = partialtor.NewTraceRecorder(*events)
	}
	var det *partialtor.Detector
	if *detect {
		det = partialtor.NewDetector()
	}
	var sinks []partialtor.Tracer
	if rec != nil {
		sinks = append(sinks, rec)
	}
	if det != nil {
		sinks = append(sinks, det)
	}
	tracer := partialtor.TraceTee(sinks...)

	s := partialtor.Scenario{
		Protocol:     proto,
		Relays:       *relays,
		EntryPadding: -1,
		Bandwidth:    *bandwidthMbit * 1e6,
		Round:        *round,
		Seed:         *seed,
		Tracer:       tracer,
	}
	if !*noAttack {
		plan := partialtor.AttackPlan{
			Targets:  partialtor.MajorityTargets(9),
			Start:    *attackStart,
			End:      *attackStart + time.Duration(*attackMinutes*float64(time.Minute)),
			Residual: *residualMbit * 1e6,
		}
		s.Attack = &plan
		fmt.Fprintf(stdout, "flood: %d targets, window %v..%v, residual %.2f Mbit/s\n",
			len(plan.Targets), plan.Start, plan.End, plan.Residual/1e6)
	}

	fmt.Fprintf(stdout, "running %v with %d relays at %.2f Mbit/s (seed %d)...\n",
		proto, *relays, *bandwidthMbit, *seed)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	res, err := partialtor.RunE(ctx, s)
	if err != nil {
		return fail("%v", err)
	}

	if res.Success {
		fmt.Fprintf(stdout, "consensus generated, network-time latency %.1fs\n", res.Latency.Seconds())
	} else {
		fmt.Fprintln(stdout, "no valid consensus document this period")
	}

	if rec != nil {
		evs := rec.Events()
		if d := rec.Dropped(); d > 0 {
			fmt.Fprintf(stderr, "tracerun: recorder dropped %d events (raise -events)\n", d)
		}
		if *metricsPath != "" {
			if err := writeTo(*metricsPath, func(f *os.File) error { return rec.WriteJSONL(f) }); err != nil {
				return fail("writing %s: %v", *metricsPath, err)
			}
			fmt.Fprintf(stdout, "metrics: %d events -> %s\n", len(evs), *metricsPath)
		}
		if *tracePath != "" {
			if err := writeTo(*tracePath, func(f *os.File) error { return partialtor.WriteChromeTrace(f, evs) }); err != nil {
				return fail("writing %s: %v", *tracePath, err)
			}
			fmt.Fprintf(stdout, "trace: %d events -> %s (open in chrome://tracing or ui.perfetto.dev)\n",
				len(evs), *tracePath)
		}
	}

	if det != nil {
		// The consensus this period is lost when the protocol's schedule
		// ends without a document: the v3 monitor's final check at 4 rounds.
		// Other protocols get the paper's fallback accounting.
		lost := partialtor.FallbackLatency
		if proto == partialtor.Current {
			lost = 4 * *round
		}
		return reportDetections(stdout, res, lost, *noAttack)
	}
	if !res.Success {
		return 1
	}
	return 0
}

// writeTo writes via fn to path, reporting the first error of fn and Close.
func writeTo(path string, fn func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// reportDetections prints the detector's verdicts and returns the exit
// code: nonzero when the flood went undetected (or, on a failed run, was only
// detected after the consensus was already lost).
func reportDetections(w io.Writer, res *partialtor.RunResult, lost time.Duration, noAttack bool) int {
	dets := res.Detections
	if len(dets) == 0 {
		if noAttack {
			fmt.Fprintln(w, "detector: quiet (no attack, no false positives)")
			return 0
		}
		fmt.Fprintln(w, "detector: the flood went UNDETECTED")
		return 1
	}
	first, _ := partialtor.FirstDetection(dets)
	fmt.Fprintf(w, "detector: %d signals flagged; first at %.1fs (node %d, %s, %s)\n",
		len(dets), first.At.Seconds(), first.Node, first.Layer, first.Signal)
	if noAttack {
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
