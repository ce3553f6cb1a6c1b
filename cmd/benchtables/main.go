// Command benchtables regenerates every table and figure of the paper's
// evaluation as text tables:
//
//	Figure 1  — authority log under the 5-authority attack
//	Figure 6  — relay-count time series (avg 7141.79)
//	Figure 7  — bandwidth requirement vs. relay count (5 attacked)
//	Figure 10 — latency of the three protocols across bandwidths
//	Figure 11 — recovery after the 5-minute outage
//	Table 1   — design comparison with measured transport cost
//	Table 2   — sub-protocol round counts
//	Cost      — §4.3 attack pricing
//	Regional  — racing clients vs a regional mirror flood (continents)
//	Gossip    — cache mesh vs a total authority flood, with partition pricing
//
// By default everything runs at paper scale (150s rounds, up to 10000
// relays), which takes a few minutes; -quick shrinks the sweeps for a fast
// smoke pass. Select individual artifacts with -only. Every sweep fans its
// grid out over -workers goroutines (default: all cores) on the shared
// sweep engine; the rendered tables are byte-identical for any worker
// count, and each sweep reports live cell progress to stderr. Ctrl-C
// cancels the run cleanly between sweep cells.
//
// What the simulator costs to run is measured by benchmark/ (see its README),
// not here.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"partialtor"
)

// artifact is one regenerable piece of the evaluation and its renderer.
type artifact struct {
	name string
	run  func(ctx context.Context) (render string, err error)
}

func main() {
	var (
		quick   = flag.Bool("quick", false, "run reduced sweeps (seconds instead of minutes)")
		only    = flag.String("only", "", "comma-separated subset: fig1,fig6,fig7,fig10,fig11,tab1,tab2,cost,regional,gossip,ablation")
		workers = flag.Int("workers", 0, "sweep worker pool (0 = all cores, 1 = serial)")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	artifacts := buildArtifacts(*quick, *workers)
	want := map[string]bool{}
	if *only != "" {
		known := map[string]bool{}
		for _, a := range artifacts {
			known[a.name] = true
		}
		for _, k := range strings.Split(*only, ",") {
			k = strings.TrimSpace(strings.ToLower(k))
			if !known[k] {
				fmt.Fprintf(os.Stderr, "unknown artifact %q\n", k)
				os.Exit(2)
			}
			want[k] = true
		}
	}
	sel := func(k string) bool { return len(want) == 0 || want[k] }

	for _, a := range artifacts {
		if !sel(a.name) {
			continue
		}
		render, err := a.run(ctx)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtables: %s: %v\n", a.name, err)
			os.Exit(1)
		}
		fmt.Println(render)
	}
}

// progressFor returns a sweep progress callback that keeps one live
// "name: done/total cells" line on stderr for the named artifact.
func progressFor(name string) func(done, total int, cellErr error) {
	return func(done, total int, cellErr error) {
		mark := ""
		if cellErr != nil {
			mark = " (error)"
		}
		fmt.Fprintf(os.Stderr, "%s: %d/%d cells%s", name, done, total, mark)
		if done == total {
			fmt.Fprintln(os.Stderr)
		}
	}
}

// buildArtifacts assembles the artifact list at the requested scale. The
// order matches the paper's presentation (cheap artifacts first).
func buildArtifacts(quick bool, workers int) []artifact {
	return []artifact{
		{name: "fig6", run: func(context.Context) (string, error) {
			return partialtor.Figure6().Render(), nil
		}},
		{name: "cost", run: func(context.Context) (string, error) {
			return partialtor.CostTable().Render(), nil
		}},
		{name: "tab2", run: func(ctx context.Context) (string, error) {
			return rendered(partialtor.Table2(ctx))
		}},
		{name: "fig1", run: func(ctx context.Context) (string, error) {
			p := partialtor.Figure1Params{}
			if quick {
				p = partialtor.Figure1Params{Relays: 400, Round: 15 * time.Second, Residual: 5e3}
			}
			return rendered(partialtor.Figure1(ctx, p))
		}},
		{name: "tab1", run: func(ctx context.Context) (string, error) {
			p := partialtor.Table1Params{}
			if quick {
				p = partialtor.Table1Params{Relays: 300, Bandwidth: 100e6, Round: 20 * time.Second}
			}
			p.Workers = workers
			p.OnCell = progressFor("tab1")
			return rendered(partialtor.Table1(ctx, p))
		}},
		{name: "fig7", run: func(ctx context.Context) (string, error) {
			p := partialtor.Figure7Params{}
			if quick {
				p = partialtor.Figure7Params{
					RelayCounts: []int{200, 600, 1200},
					Round:       15 * time.Second,
					MaxMbit:     60,
					Precision:   0.5,
				}
			}
			p.Workers = workers
			p.OnCell = progressFor("fig7")
			return rendered(partialtor.Figure7(ctx, p))
		}},
		{name: "fig10", run: func(ctx context.Context) (string, error) {
			p := partialtor.Figure10Params{}
			if quick {
				p = partialtor.Figure10Params{
					BandwidthsMbit: []float64{100, 10, 1},
					RelayCounts:    []int{300, 900, 1500},
					Round:          15 * time.Second,
				}
			}
			p.Workers = workers
			p.OnCell = progressFor("fig10")
			return rendered(partialtor.Figure10(ctx, p))
		}},
		{name: "fig11", run: func(ctx context.Context) (string, error) {
			p := partialtor.Figure11Params{}
			if quick {
				p = partialtor.Figure11Params{RelayCounts: []int{200, 800}, Outage: time.Minute}
			}
			p.Workers = workers
			p.OnCell = progressFor("fig11")
			return rendered(partialtor.Figure11(ctx, p))
		}},
		{name: "regional", run: func(ctx context.Context) (string, error) {
			p := partialtor.RegionalParams{}
			if quick {
				p = partialtor.RegionalParams{
					Clients: 50_000,
					Caches:  12,
					Window:  20 * time.Minute,
				}
			}
			p.Workers = workers
			p.OnCell = progressFor("regional")
			return rendered(partialtor.RegionalTable(ctx, p))
		}},
		{name: "gossip", run: func(ctx context.Context) (string, error) {
			p := partialtor.GossipParams{}
			if quick {
				p = partialtor.GossipParams{
					Clients: 5_000,
					Caches:  20,
					Fanouts: []int{3},
				}
			}
			p.Workers = workers
			p.OnCell = progressFor("gossip")
			return rendered(partialtor.GossipTable(ctx, p))
		}},
		{name: "ablation", run: func(ctx context.Context) (string, error) {
			es := partialtor.EntrySizeParams{}
			dp := partialtor.DeltaParams{}
			tp := partialtor.TimeoutParams{}
			if quick {
				es = partialtor.EntrySizeParams{
					EntrySizes:    []int{625, 2500},
					RelayCounts:   []int{500, 1000, 2000, 4000, 8000},
					BandwidthMbit: 10,
					Round:         15 * time.Second,
				}
				dp = partialtor.DeltaParams{Relays: 200}
				tp = partialtor.TimeoutParams{Outage: 30 * time.Second, Relays: 150}
			}
			es.Workers, dp.Workers, tp.Workers = workers, workers, workers
			es.OnCell = progressFor("ablation/entry-size")
			dp.OnCell = progressFor("ablation/delta")
			tp.OnCell = progressFor("ablation/timeout")
			esr, err := partialtor.AblationEntrySize(ctx, es)
			if err != nil {
				return "", err
			}
			dpr, err := partialtor.AblationDelta(ctx, dp)
			if err != nil {
				return "", err
			}
			tpr, err := partialtor.AblationTimeout(ctx, tp)
			if err != nil {
				return "", err
			}
			return esr.Render() + "\n" + dpr.Render() + "\n" + tpr.Render(), nil
		}},
	}
}

// rendered turns a generator's (result, error) pair into the artifact's.
func rendered[R interface{ Render() string }](r R, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return r.Render(), nil
}
