// Command attackcost evaluates the paper's §4.3 DDoS pricing model: how
// much it costs to rent enough stressor traffic to break every hourly Tor
// consensus run. With the defaults it reproduces the headline numbers,
// $0.074 per instance and $53.28 per month — and, with the tier-aware
// extension, prices the "flood the mirrors" family: what the same stressor
// market charges to knock out a cache tier of hundreds or thousands of
// nodes for a whole fetch window (the over-provisioning defense economics).
//
// Both pricing tables are targets × duration sweeps on the shared grid
// engine, so adding axis values just grows the grid.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"partialtor"
	"partialtor/internal/attack"
)

// priced is one cell of a pricing sweep.
type priced struct {
	targets  int
	window   time.Duration
	instance float64
	month    float64
}

// costGrid prices every (targets, duration) cell of one tier's flood on
// the sweep engine. residual is the bandwidth the attacker leaves each
// target: the paper's authority attack floods to just below the protocol
// requirement (250 − 10 = 240 Mbit/s of stressor traffic), a cache
// knockout floods the whole link.
func costGrid(ctx context.Context, m attack.CostModel, tier attack.Tier, residual float64, targets []int, windows []time.Duration) []priced {
	grid := partialtor.MustNewSweepGrid(
		partialtor.SweepInts("targets", targets...),
		partialtor.SweepDurations("window", windows...),
	)
	results := partialtor.RunSweepParams(ctx, grid, partialtor.SweepParams{}, func(_ context.Context, c partialtor.SweepCell) (priced, error) {
		n, d := c.Int("targets"), c.Duration("window")
		plan := attack.Plan{
			Tier:     tier,
			Targets:  attack.FirstTargets(n),
			Start:    0,
			End:      d,
			Residual: residual,
		}
		inst := m.PlanCost(plan)
		return priced{targets: n, window: d, instance: inst, month: m.PerMonth(inst)}, nil
	})
	out := make([]priced, 0, len(results))
	for _, r := range results {
		if r.Err != nil {
			fmt.Fprintf(os.Stderr, "attackcost: cell %s: %v\n", r.Cell, r.Err)
			os.Exit(1)
		}
		out = append(out, r.Value)
	}
	return out
}

func printGrid(title string, rows []priced) {
	fmt.Println(title)
	fmt.Printf("%-9s %-10s %-14s %-14s\n", "targets", "window", "per-instance", "per-month")
	for _, r := range rows {
		fmt.Printf("%-9d %-10v $%-13.3f $%-13.2f\n", r.targets, r.window, r.instance, r.month)
	}
	fmt.Println()
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "attackcost: "+format+"\n", args...)
	os.Exit(1)
}

// positiveInts parses a comma-separated count list and rejects values < 1.
func positiveInts(flagName, s string) []int {
	out, err := partialtor.ParseSweepCounts(s)
	if err != nil {
		fatalf("invalid -%s: %v", flagName, err)
	}
	return out
}

func main() {
	var (
		targets   = flag.String("targets", "5", "authority target counts to sweep (majority of 9 is 5)")
		minutes   = flag.String("minutes", "5", "attack windows per consensus instance, minutes (fractions allowed)")
		price     = flag.Float64("price", 0.00074, "stressor price per Mbit/s per hour ($)")
		link      = flag.Float64("link", 250, "authority link capacity (Mbit/s)")
		required  = flag.Float64("required", 10, "protocol bandwidth requirement (Mbit/s)")
		caches    = flag.String("caches", "20,100,1000,5000", "cache-tier target counts to sweep")
		cacheWin  = flag.Duration("cachewindow", time.Hour, "cache flood window (the client fetch window)")
		cacheLink = flag.Float64("cachelink", partialtor.DefaultCostModel().CacheLinkMbit,
			"cache link capacity (Mbit/s)")
	)
	flag.Parse()

	targetCounts := positiveInts("targets", *targets)
	cacheCounts := positiveInts("caches", *caches)
	if *cacheWin <= 0 {
		fatalf("invalid -cachewindow: %v must be positive", *cacheWin)
	}
	mins, err := partialtor.ParseSweepFloats(*minutes)
	if err != nil {
		fatalf("invalid -minutes: %v", err)
	}
	var windows []time.Duration
	for _, m := range mins {
		if m <= 0 {
			fatalf("invalid -minutes: window %g must be positive", m)
		}
		windows = append(windows, time.Duration(m*float64(time.Minute)))
	}

	m := attack.CostModel{
		PricePerMbitHour:  *price,
		AuthorityLinkMbit: *link,
		RequiredMbit:      *required,
		CacheLinkMbit:     *cacheLink,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	// The authority grid prices the paper's attack: flood each authority
	// down to just below its protocol requirement, so with the defaults the
	// 5-target 5-minute cell is the headline $0.074 / $53.28.
	printGrid(
		fmt.Sprintf("Authority-tier flood to below the %.0f Mbit/s requirement (%.0f Mbit/s links, $%.5f per Mbit/s/h):",
			m.RequiredMbit, m.AuthorityLinkMbit, m.PricePerMbitHour),
		costGrid(ctx, m, attack.TierAuthority, m.RequiredMbit*1e6, targetCounts, windows))
	printGrid(
		fmt.Sprintf("Cache-tier knockout for one %v fetch window (%.0f Mbit/s links fully flooded):", *cacheWin, m.CacheLinkMbit),
		costGrid(ctx, m, attack.TierCache, 0, cacheCounts, []time.Duration{*cacheWin}))

	fmt.Printf("headline accounting: %s\n", m.Summary(5, 5*time.Minute))
	fmt.Printf("with the paper's defaults: %s\n", partialtor.DefaultCostModel().Summary(5, 5*time.Minute))
}
