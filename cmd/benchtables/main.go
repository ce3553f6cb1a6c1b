// Command benchtables regenerates every table and figure of the paper's
// evaluation as text tables. It is one loop over the artifact registry
// (partialtor.Artifacts), which names them:
//
//	fig6     — relay-count time series (avg 7141.79)
//	cost     — §4.3 attack pricing
//	tab2     — sub-protocol round counts
//	fig1     — authority log under the 5-authority attack
//	tab1     — design comparison with measured transport cost
//	fig7     — bandwidth requirement vs. relay count (5 attacked)
//	fig10    — latency of the three protocols across bandwidths
//	fig11    — recovery after the 5-minute outage
//	regional — racing clients vs a regional mirror flood (continents)
//	gossip   — cache mesh vs a total authority flood, with partition pricing
//	ablation — entry size, dissemination wait Δ, pacemaker base timeout
//
// By default everything runs at paper scale (150s rounds, up to 10000
// relays), which takes a few minutes; -quick switches every artifact to the
// reduced preset declared beside its paper-scale one, for a fast smoke
// pass. Select individual artifacts with -only. Every sweep fans its grid
// out over -workers goroutines (default: all cores) on the shared sweep
// engine; the rendered tables are byte-identical for any worker count, and
// each sweep reports live cell progress to stderr. Ctrl-C cancels the run
// cleanly between sweep cells.
//
// What the simulator costs to run is measured by benchmark/ (see its README),
// not here.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"slices"
	"strings"

	"partialtor"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	artifacts := partialtor.Artifacts()
	names := make([]string, len(artifacts))
	for i, a := range artifacts {
		names[i] = a.Name
	}
	fs := flag.NewFlagSet("benchtables", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		quick   = fs.Bool("quick", false, "run reduced sweeps (seconds instead of minutes)")
		only    = fs.String("only", "", "comma-separated subset: "+strings.Join(names, ","))
		workers = fs.Int("workers", 0, "sweep worker pool (0 = all cores, 1 = serial)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	want := map[string]bool{}
	if *only != "" {
		for _, k := range strings.Split(*only, ",") {
			k = strings.TrimSpace(strings.ToLower(k))
			if !slices.Contains(names, k) {
				fmt.Fprintf(stderr, "unknown artifact %q\n", k)
				return 2
			}
			want[k] = true
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	for _, a := range artifacts {
		if len(want) > 0 && !want[a.Name] {
			continue
		}
		// One live "name: done/total cells" line on stderr per sweep.
		sp := partialtor.SweepParams{Workers: *workers, OnCell: func(done, total int, cellErr error) {
			mark := ""
			if cellErr != nil {
				mark = " (error)"
			}
			fmt.Fprintf(stderr, "\r%s: %d/%d cells%s", a.Name, done, total, mark)
			if done == total {
				fmt.Fprintln(stderr)
			}
		}}
		text, err := a.Run(ctx, *quick, sp)
		if err != nil {
			fmt.Fprintf(stderr, "benchtables: %s: %v\n", a.Name, err)
			return 1
		}
		fmt.Fprintln(stdout, text)
	}
	return 0
}
