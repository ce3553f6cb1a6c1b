// Command cachesweep maps out the distribution tier's resilience surface:
// it sweeps cache count × client population × attack residual ×
// compromised-mirror fraction on the grid engine and reports, for each
// cell, the time to target coverage, the final coverage of the genuine
// consensus, what a chain-blind observer would report (naive), the fork
// detections, and the attack's price.
//
// The residual axis spans the "flood the mirrors" family: -1 means no
// attack, 0 knocks the flooded caches offline, positive values model a
// stressor that leaves that much bandwidth (bits/s). The compromised axis
// spans the "own the mirrors" family: the fraction of caches serving stale
// or forked documents (-mode); with -verify (default) clients run the
// proposal-239 chain-verification path, detect the misbehavior and fall
// back to honest caches — the table shows the coverage cliff as the
// compromised fraction crosses one half.
//
// With -topology continents the tiers are placed on the builtin continental
// map (regional latencies, bandwidth tiers, region-share client
// populations) and each row is followed by its per-region coverage and
// p50/p99 time-to-coverage. -flood-region then scopes the flood to one
// region's caches ("flood the EU mirrors") instead of the majority prefix.
// The -race axis sweeps the racing-client width K: 0 is the legacy
// single-cache client, 1 a failover client, K>=2 races each fetch against K
// caches (first response wins, laggards priced as waste).
//
// Cells fan out over -workers goroutines (default: all cores); the table is
// printed in grid order after the sweep, so any worker count produces
// byte-identical output. Live progress goes to stderr as cells finish. A
// failing cell costs one row, not the sweep: its error is reported with the
// full cell coordinates at the end. Ctrl-C cancels the sweep between cells;
// completed cells still print.
//
// With -gossip the cache tier is meshed into the dissemination layer and
// -fanout becomes a sweep axis: each cell's caches push fresh-consensus
// digests to that many mesh peers, pull on digest miss, and reconcile by
// anti-entropy. -gossip-seeds pre-seeds the first N caches with the current
// consensus, and -authority-residual (>= 0) floods every authority down to
// that bandwidth for the whole run — together they reproduce the
// gossip-outage experiment: authorities unreachable, the mesh the only
// distribution path. Gossip rows gain mesh columns (pushes, pulls,
// anti-entropy rounds, mesh traffic).
//
// The chaos axes inject deterministic faults into every cell: -faults
// sweeps the fraction of mirrors crashed mid-window (state lost, restart
// and catch up), -churn the fraction of the mesh membership that leaves
// and rejoins (needs -gossip), and -backoff switches the fleets from the
// fixed retry delay to capped seeded-jitter exponential backoff. Chaos
// rows gain graceful-degradation columns: fault events, worst MTTR, time
// below target coverage and shed retries.
//
// -flood-seeds prices the mesh-partition economics: the cache-tier flood
// (the residual axis) targets the gossip-seeded mirrors instead of the
// majority prefix — the adversary's cheapest way to starve the mesh — and
// each gossip row adds the MeshPartitionCost of cutting one mirror out of
// a mesh of that fanout. Swept alongside -fanout this shows the coverage
// cliff against seed redundancy.
//
// With -trace the first grid cell (rank 0) runs with the observability
// layer on and its event stream — cache fetches, fallbacks, serves, fleet
// coverage, kernel transfers — is written as a Chrome trace.
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
	"time"

	"partialtor"
)

// fmtDuration renders a time-to-coverage cell; Never means the fraction was
// not reached within the fetch window.
func fmtDuration(d time.Duration) string {
	if d == partialtor.Never {
		return "never"
	}
	return d.Round(time.Second).String()
}

// fmtPrice renders a dollar amount at the given precision; a negative price
// means "not applicable to this cell".
func fmtPrice(prec int, usd float64) string {
	if usd < 0 {
		return "-"
	}
	return fmt.Sprintf("$%.*f", prec, usd)
}

// cellRow is one sweep cell's outcome.
type cellRow struct {
	result *partialtor.DistributionResult
	cost   float64 // stressor price of the cell's flood; <0 = no flood
	rent   float64 // monthly rent of the compromised caches; <0 = none
	cut    float64 // price of cutting one mirror out of the mesh; <0 = n/a
}

// column is one table column, spelled once for the header, the result rows
// and the ERROR rows. An axis column renders a grid coordinate and prints in
// every row; a value column renders a measurement, and in the row of a
// failed cell prints onErr instead ("-" when empty).
type column struct {
	head  string
	width int
	axis  func(partialtor.SweepCell) string
	value func(cellRow) string
	onErr string
}

func intAxis(name string) func(partialtor.SweepCell) string {
	return func(c partialtor.SweepCell) string { return fmt.Sprint(c.Int(name)) }
}

func percentAxis(name string) func(partialtor.SweepCell) string {
	return func(c partialtor.SweepCell) string { return fmt.Sprintf("%.0f%%", 100*c.Float(name)) }
}

// tableColumns lists every column in print order: the base group always, the
// mesh columns under -gossip (plus the cut price under -flood-seeds), the
// graceful-degradation columns when a chaos axis or -backoff is on.
func tableColumns(gossip, floodSeeds, chaos bool) []column {
	groups := []struct {
		on   bool
		cols []column
	}{
		{true, []column{
			{head: "caches", width: 8, axis: intAxis("caches")},
			{head: "clients", width: 10, axis: intAxis("clients")},
			{head: "residual", width: 12, axis: func(c partialtor.SweepCell) string {
				if res := c.Float("residual"); res >= 0 {
					return fmt.Sprintf("%.1fMbit", res/1e6)
				}
				return "none"
			}},
			{head: "comp", width: 6, axis: percentAxis("comp")},
			{head: "race", width: 5, axis: intAxis("race")},
			{head: "t95", width: 12, onErr: "ERROR", value: func(r cellRow) string { return fmtDuration(r.result.TimeToTarget) }},
			{head: "p99", width: 12, value: func(r cellRow) string { return fmtDuration(r.result.TimeToCoverage(0.99)) }},
			{head: "coverage", width: 10, value: func(r cellRow) string { return fmt.Sprintf("%.1f%%", 100*r.result.Coverage()) }},
			{head: "naive", width: 10, value: func(r cellRow) string { return fmt.Sprintf("%.1f%%", 100*r.result.NaiveCoverage()) }},
			{head: "forks", width: 7, value: func(r cellRow) string { return fmt.Sprint(len(r.result.ForkDetections)) }},
			{head: "cost", width: 10, value: func(r cellRow) string { return fmtPrice(2, r.cost) }},
			{head: "rent/mo", width: 10, value: func(r cellRow) string { return fmtPrice(0, r.rent) }},
		}},
		{gossip, []column{
			{head: "fanout", width: 7, axis: intAxis("fanout")},
			{head: "pushes", width: 8, value: func(r cellRow) string { return fmt.Sprint(r.result.GossipPushes) }},
			{head: "pulls", width: 7, value: func(r cellRow) string { return fmt.Sprint(r.result.GossipPulls) }},
			{head: "ae", width: 8, value: func(r cellRow) string { return fmt.Sprint(r.result.GossipRounds) }},
			{head: "mesh", width: 10, value: func(r cellRow) string { return fmt.Sprintf("%.1fMB", float64(r.result.GossipBytes)/1e6) }},
		}},
		{gossip && floodSeeds, []column{
			{head: "cutcost", width: 10, value: func(r cellRow) string { return fmtPrice(2, r.cut) }},
		}},
		{chaos, []column{
			{head: "fault", width: 6, axis: percentAxis("fault")},
			{head: "churn", width: 6, axis: percentAxis("churn")},
			{head: "events", width: 7, value: func(r cellRow) string { return fmt.Sprint(r.result.FaultEvents) }},
			{head: "mttr", width: 10, value: func(r cellRow) string { return fmtDuration(partialtor.WorstMTTR(r.result.Recoveries)) }},
			{head: "below", width: 10, value: func(r cellRow) string { return r.result.TimeBelowTarget.Round(time.Second).String() }},
			{head: "dropped", width: 8, value: func(r cellRow) string { return fmt.Sprint(r.result.RetryDropped) }},
		}},
	}
	var cols []column
	for _, g := range groups {
		if g.on {
			cols = append(cols, g.cols...)
		}
	}
	return cols
}

// printRow prints one table line: every column's text left-aligned in its
// width, single-space separated.
func printRow(w io.Writer, cols []column, text func(column) string) {
	for i, c := range cols {
		if i > 0 {
			fmt.Fprint(w, " ")
		}
		fmt.Fprintf(w, "%-*s", c.width, text(c))
	}
	fmt.Fprintln(w)
}

// fracCount converts an axis fraction into a target count, at least one.
func fracCount(frac float64, n int) int {
	return max(1, int(math.Round(frac*float64(n))))
}

// fractions parses a comma-separated axis of fractions in [0, 1].
func fractions(s string) ([]float64, error) {
	fracs, err := partialtor.ParseSweepFloats(s)
	if err != nil {
		return nil, err
	}
	for _, f := range fracs {
		if f < 0 || f > 1 {
			return nil, fmt.Errorf("fraction %g outside [0, 1]", f)
		}
	}
	return fracs, nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cachesweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		cachesFlag    = fs.String("caches", "10,20,40", "cache counts to sweep")
		clientsFlag   = fs.String("clients", "100000,1000000", "client populations to sweep")
		residualsFlag = fs.String("residuals", "-1,500000,0", "attack residual bits/s (-1 = no attack)")
		compFlag      = fs.String("compromised", "0,0.25,0.6", "compromised-cache fractions to sweep")
		modeFlag      = fs.String("mode", "equivocate", "compromise mode: stale or equivocate")
		topoFlag      = fs.String("topology", "flat", "topology: flat or continents")
		raceFlag      = fs.String("race", "0", "racing-client widths K to sweep (0 = legacy client)")
		floodFlag     = fs.String("flood-region", "", "flood only this region's caches (requires -topology)")
		gossipOn      = fs.Bool("gossip", false, "mesh the cache tier into the gossip dissemination layer")
		fanoutFlag    = fs.String("fanout", "1,3", "gossip push fanouts to sweep (needs -gossip)")
		gossipSeeds   = fs.Int("gossip-seeds", 1, "caches pre-seeded with the current consensus (needs -gossip)")
		authResidual  = fs.Float64("authority-residual", -1, "flood every authority to this residual bits/s for the whole run (-1 = off)")
		faultsFlag    = fs.String("faults", "0", "crashed-mirror fractions to sweep (0 = no crash fault)")
		churnFlag     = fs.String("churn", "0", "churned-mesh fractions to sweep (0 = none; needs -gossip)")
		backoffOn     = fs.Bool("backoff", false, "fleets retry with capped seeded-jitter exponential backoff")
		floodSeeds    = fs.Bool("flood-seeds", false, "cache-tier flood targets the gossip-seeded mirrors (needs -gossip)")
		verify        = fs.Bool("verify", true, "clients run proposal-239 chain verification")
		window        = fs.Duration("window", 30*time.Minute, "client fetch window")
		target        = fs.Float64("target", 0.95, "coverage fraction defining success")
		seed          = fs.Int64("seed", 42, "simulation seed")
		workers       = fs.Int("workers", 0, "sweep worker pool (0 = all cores, 1 = serial)")
		tracePath     = fs.String("trace", "", "write a Chrome trace of the first grid cell (chrome://tracing, Perfetto)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "cachesweep: "+format+"\n", args...)
		return 1
	}

	cacheCounts, err := partialtor.ParseSweepCounts(*cachesFlag)
	if err != nil {
		return fail("invalid -caches: %v", err)
	}
	populations, err := partialtor.ParseSweepCounts(*clientsFlag)
	if err != nil {
		return fail("invalid -clients: %v", err)
	}
	if math.IsNaN(*authResidual) {
		return fail("invalid -authority-residual: NaN")
	}
	// A zero window, target or seed would select the spec's default
	// silently, while the flood and fault windows are still computed from
	// the flag.
	if *window <= 0 {
		return fail("invalid -window %v: not a positive fetch window", *window)
	}
	if !(*target > 0 && *target <= 1) { // NaN fails every comparison
		return fail("invalid -target %g: outside (0, 1]", *target)
	}
	if *seed == 0 {
		return fail("invalid -seed 0: a zero seed runs seed 1")
	}
	residuals, err := partialtor.ParseSweepFloats(*residualsFlag)
	if err != nil {
		return fail("invalid -residuals: %v", err)
	}
	compFracs, err := fractions(*compFlag)
	if err != nil {
		return fail("invalid -compromised: %v", err)
	}
	var mode partialtor.CompromiseMode
	switch *modeFlag {
	case "stale":
		mode = partialtor.CompromiseStale
	case "equivocate":
		mode = partialtor.CompromiseEquivocate
	default:
		return fail("invalid -mode %q: want stale or equivocate", *modeFlag)
	}
	topology, err := partialtor.TopologyByName(*topoFlag)
	if err != nil {
		return fail("invalid -topology: %v", err)
	}
	races, err := partialtor.ParseSweepInts(*raceFlag)
	if err != nil {
		return fail("invalid -race: %v", err)
	}
	for _, k := range races {
		if k < 0 {
			return fail("invalid -race: width %d is negative", k)
		}
	}
	if *floodFlag != "" && topology == nil {
		return fail("-flood-region %q needs -topology", *floodFlag)
	}
	// Without -gossip the fanout axis collapses to a single placeholder
	// cell, so the grid shape — and the table — match the pre-mesh tool.
	fanouts := []int{0}
	if *gossipOn {
		fanouts, err = partialtor.ParseSweepCounts(*fanoutFlag)
		if err != nil {
			return fail("invalid -fanout: %v", err)
		}
		if *gossipSeeds < 1 {
			return fail("invalid -gossip-seeds: need at least one seeded cache, got %d", *gossipSeeds)
		}
	}

	// Like the fanout axis, the chaos axes default to a single placeholder
	// value so a chaos-free invocation keeps the pre-chaos grid shape.
	crashFracs, err := fractions(*faultsFlag)
	if err != nil {
		return fail("invalid -faults: %v", err)
	}
	churnFracs, err := fractions(*churnFlag)
	if err != nil {
		return fail("invalid -churn: %v", err)
	}
	chaosOn := *backoffOn
	for _, f := range crashFracs {
		chaosOn = chaosOn || f > 0
	}
	for _, f := range churnFracs {
		if f > 0 && !*gossipOn {
			return fail("-churn %g needs -gossip: churn is mirrors leaving the mesh", f)
		}
		chaosOn = chaosOn || f > 0
	}
	if *floodSeeds && !*gossipOn {
		return fail("-flood-seeds needs -gossip: it targets the seeded mirrors")
	}
	if *floodSeeds && *floodFlag != "" {
		return fail("-flood-region %q contradicts -flood-seeds: a cache-tier flood has one target scope", *floodFlag)
	}

	grid := partialtor.MustNewSweepGrid(
		partialtor.SweepInts("caches", cacheCounts...),
		partialtor.SweepInts("clients", populations...),
		partialtor.SweepFloats("residual", residuals...),
		partialtor.SweepFloats("comp", compFracs...),
		partialtor.SweepInts("race", races...),
		partialtor.SweepInts("fanout", fanouts...),
		partialtor.SweepFloats("fault", crashFracs...),
		partialtor.SweepFloats("churn", churnFracs...),
	)
	pricing := partialtor.DefaultCostModel()
	// Trace only the first cell: one recorder cannot be shared across the
	// worker pool, and one representative cell is what a trace is for.
	var rec *partialtor.TraceRecorder
	if *tracePath != "" {
		rec = partialtor.NewTraceRecorder(1 << 20)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	start := time.Now()
	sp := partialtor.SweepParams{
		Workers: *workers,
		OnCell: func(done, total int, cellErr error) {
			mark := ""
			if cellErr != nil {
				mark = " (error)"
			}
			fmt.Fprintf(stderr, "\rcachesweep: %d/%d cells%s", done, total, mark)
			if done == total {
				fmt.Fprintln(stderr)
			}
		},
	}
	results := partialtor.RunSweepParams(ctx, grid, sp, func(_ context.Context, c partialtor.SweepCell) (cellRow, error) {
		spec := partialtor.DistributionSpec{
			Caches:         c.Int("caches"),
			Clients:        c.Int("clients"),
			FetchWindow:    *window,
			TargetCoverage: *target,
			Seed:           *seed,
			VerifyClients:  *verify,
			Topology:       topology,
			RaceK:          c.Int("race"),
		}
		if rec != nil && c.Rank == 0 {
			spec.Tracer = rec
		}
		if *gossipOn {
			spec.Gossip = &partialtor.GossipConfig{
				Fanout: c.Int("fanout"),
				Seeds:  partialtor.FirstTargets(*gossipSeeds),
			}
		}
		if *backoffOn {
			// The zero value selects the backoff defaults at validation.
			spec.Backoff = &partialtor.RetryBackoff{}
		}
		spec.Faults = partialtor.MidWindowChaos(spec.Caches, *window, c.Float("fault"), c.Float("churn"))
		row := cellRow{cost: -1, rent: -1, cut: -1}
		if *authResidual >= 0 {
			plan := partialtor.AttackPlan{
				Tier:     partialtor.TierAuthority,
				Targets:  partialtor.FirstTargets(9),
				Start:    0,
				End:      *window + 30*time.Minute,
				Residual: *authResidual,
			}
			spec.Attacks = append(spec.Attacks, plan)
			row.cost = pricing.PlanCost(plan)
		}
		if res := c.Float("residual"); res >= 0 {
			plan := partialtor.AttackPlan{
				Tier:     partialtor.TierCache,
				Start:    0,
				End:      *window + 30*time.Minute,
				Residual: res,
			}
			switch {
			case *floodFlag != "":
				// Resolve "flood region X" against the placement here, so
				// the plan is priced by the caches it actually hits.
				plan.TargetRegion = *floodFlag
				if err := plan.ResolveRegion(topology, spec.Caches); err != nil {
					return cellRow{}, err
				}
			case *floodSeeds:
				// The mesh-partition attack: starve the dissemination layer
				// at its roots instead of flooding a majority of the tier.
				plan.Targets = partialtor.FirstTargets(*gossipSeeds)
			default:
				plan.Targets = partialtor.MajorityTargets(spec.Caches)
			}
			spec.Attacks = append(spec.Attacks, plan)
			row.cost = max(row.cost, 0) + pricing.PlanCost(plan)
			if *floodSeeds {
				row.cut = pricing.MeshPartitionCost(spec.Gossip.Fanout, plan.End-plan.Start, res)
			}
		}
		if frac := c.Float("comp"); frac > 0 {
			n := fracCount(frac, spec.Caches)
			// Compromise the TOP of the cache index range: floods target the
			// majority prefix (MajorityTargets), so the two axes stay
			// independent — a flooded-offline cache cannot also be the one
			// whose misbehavior the comp axis is measuring — until the
			// fractions are large enough that overlap is unavoidable.
			targets := make([]int, n)
			for i := range targets {
				targets[i] = spec.Caches - n + i
			}
			comp := partialtor.CompromisePlan{
				Targets: targets,
				Mode:    mode,
			}
			spec.Compromise = &comp
			row.rent = pricing.CompromiseCostPerMonth(comp)
		}
		r, err := partialtor.RunDistribution(spec)
		if err != nil {
			return cellRow{}, err
		}
		row.result = r
		return row, nil
	})

	cols := tableColumns(*gossipOn, *floodSeeds, chaosOn)
	printRow(stdout, cols, func(c column) string { return c.head })
	failed := 0
	for _, r := range results {
		if r.Err != nil {
			failed++
		}
		printRow(stdout, cols, func(c column) string {
			switch {
			case c.axis != nil:
				return c.axis(r.Cell)
			case r.Err == nil:
				return c.value(r.Value)
			case c.onErr != "":
				return c.onErr
			}
			return "-"
		})
		if r.Err != nil {
			continue
		}
		for _, rc := range r.Value.result.Regions {
			fmt.Fprintf(stdout, "  region %-4s clients %-9d coverage %-7s p50 %-12s p99 %-12s\n",
				rc.Name, rc.Clients,
				fmt.Sprintf("%.1f%%", 100*rc.Coverage()),
				fmtDuration(rc.P50), fmtDuration(rc.P99))
		}
	}
	if rec != nil {
		if err := partialtor.WriteTraceFile(*tracePath, rec.WriteChromeTrace); err != nil {
			return fail("%v", err)
		}
		fmt.Fprintf(stderr, "cachesweep: cell 0 trace: %d events -> %s\n", rec.Len(), *tracePath)
	}
	// Timing goes to stderr: stdout is the table, byte-identical across
	// worker counts and wall clocks.
	fmt.Fprintf(stderr, "\n%d cells in %v\n", grid.Size(), time.Since(start).Round(time.Millisecond))
	if failed > 0 {
		for _, r := range results {
			if r.Err != nil {
				// The cell coordinates carry every axis, residual included.
				fmt.Fprintf(stderr, "cachesweep: cell %s: %v\n", r.Cell, r.Err)
			}
		}
		return 1
	}
	return 0
}
