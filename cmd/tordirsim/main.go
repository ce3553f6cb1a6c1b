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
// Examples:
//
//	tordirsim -protocol current -relays 8000
//	tordirsim -protocol current -relays 8000 -attack -attack-minutes 5
//	tordirsim -protocol ours -relays 8000 -bandwidth 0.5
//	tordirsim -protocol ours -clients 100000 -topology continents -race 2
//	tordirsim -protocol ours -clients 100000 -gossip 3 -crash 0.3 -churn 0.2 -backoff
//	tordirsim -protocol current -attack -trace trace.json   # chrome://tracing
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
		// The default fetch window, against which the fault windows sit: the
		// crash hits once the tier is warm and clears mid-run, the churn
		// overlaps it and stretches to the window's midpoint.
		const window = 30 * time.Minute
		var plan partialtor.FaultPlan
		if *crashFrac > 0 {
			n := max(1, int(*crashFrac*float64(*caches)+0.5))
			plan.Faults = append(plan.Faults, partialtor.FaultSpec{
				Kind:    partialtor.FaultCrash,
				Tier:    partialtor.TierCache,
				Targets: partialtor.SpreadTargets(1, *caches, n),
				Start:   window / 6,
				End:     window/6 + window/4,
			})
		}
		if *churnFrac > 0 {
			if *gossipFanout <= 0 {
				fmt.Fprintln(stderr, "tordirsim: -churn needs -gossip: churn is mirrors leaving the mesh")
				return 2
			}
			n := max(1, int(*churnFrac*float64(*caches)+0.5))
			plan.Faults = append(plan.Faults, partialtor.FaultSpec{
				Kind:    partialtor.FaultChurn,
				Tier:    partialtor.TierCache,
				Targets: partialtor.SpreadTargets(2, *caches, n),
				Start:   window / 4,
				End:     window / 2,
			})
		}
		if len(plan.Faults) > 0 {
			s.Distribution.Faults = &plan
		}
	} else if *raceK > 0 || *gossipFanout > 0 || *crashFrac > 0 || *churnFrac > 0 || *backoffOn {
		fmt.Fprintln(stderr, "tordirsim: -race, -gossip, -crash, -churn and -backoff need a distribution phase; set -clients")
		return 2
	}
	var rec *partialtor.TraceRecorder
	if *tracePath != "" {
		rec = partialtor.NewTraceRecorder(1 << 20)
		s.Tracer = rec
	}
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
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintf(stderr, "tordirsim: %v\n", err)
			return 1
		}
		werr := partialtor.WriteChromeTrace(f, rec.Events())
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintf(stderr, "tordirsim: writing %s: %v\n", *tracePath, werr)
			return 1
		}
		fmt.Fprintf(stdout, "trace: %d events -> %s\n", rec.Len(), *tracePath)
	}
	if *showLog >= 0 {
		fmt.Fprintf(stdout, "\n--- authority %d log ---\n", *showLog)
		for _, e := range res.Net.NodeLog(simnet.NodeID(*showLog)) {
			fmt.Fprintf(stdout, "%10.3fs [%s] %s\n", e.At.Seconds(), e.Level, e.Text)
		}
	}
	if !res.Success {
		return 1
	}
	return 0
}
