// Command attackcost evaluates the paper's §4.3 DDoS pricing model: how
// much it costs to rent enough stressor traffic to break every hourly Tor
// consensus run. With the defaults it reproduces the headline numbers,
// $0.074 per instance and $53.28 per month — and, with the tier-aware
// extension, prices the "flood the mirrors" family: what the same stressor
// market charges to knock out a cache tier of hundreds or thousands of
// nodes for a whole fetch window (the over-provisioning defense economics).
//
// Both pricing tables are targets × duration grids; each cell is one
// CostModel.PlanCost call.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"partialtor"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("attackcost", flag.ContinueOnError)
	fs.SetOutput(stderr)
	m := partialtor.DefaultCostModel()
	var (
		targets  = fs.String("targets", "5", "authority target counts to sweep (majority of 9 is 5)")
		minutes  = fs.String("minutes", "5", "attack windows per consensus instance, minutes (fractions allowed)")
		caches   = fs.String("caches", "20,100,1000,5000", "cache-tier target counts to sweep")
		cacheWin = fs.Duration("cachewindow", time.Hour, "cache flood window (the client fetch window)")
	)
	fs.Float64Var(&m.PricePerMbitHour, "price", m.PricePerMbitHour, "stressor price per Mbit/s per hour ($)")
	fs.Float64Var(&m.AuthorityLinkMbit, "link", m.AuthorityLinkMbit, "authority link capacity (Mbit/s)")
	fs.Float64Var(&m.RequiredMbit, "required", m.RequiredMbit, "protocol bandwidth requirement (Mbit/s)")
	fs.Float64Var(&m.CacheLinkMbit, "cachelink", m.CacheLinkMbit, "cache link capacity (Mbit/s)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "attackcost: "+format+"\n", args...)
		return 1
	}

	targetCounts, err := partialtor.ParseSweepCounts(*targets)
	if err != nil {
		return fail("invalid -targets: %v", err)
	}
	cacheCounts, err := partialtor.ParseSweepCounts(*caches)
	if err != nil {
		return fail("invalid -caches: %v", err)
	}
	if *cacheWin <= 0 {
		return fail("invalid -cachewindow: %v must be positive", *cacheWin)
	}
	mins, err := partialtor.ParseSweepFloats(*minutes)
	if err != nil {
		return fail("invalid -minutes: %v", err)
	}
	var windows []time.Duration
	for _, w := range mins {
		if w <= 0 {
			return fail("invalid -minutes: window %g must be positive", w)
		}
		if w*float64(time.Minute) >= math.MaxInt64 {
			return fail("invalid -minutes: window %g overflows a duration", w)
		}
		windows = append(windows, time.Duration(w*float64(time.Minute)))
	}

	// printGrid prices every (targets, window) cell of one tier's flood.
	// The template carries the tier and the residual bandwidth the attacker
	// leaves each target: the paper's authority attack floods to just below
	// the protocol requirement (250 − 10 = 240 Mbit/s of stressor traffic),
	// a cache knockout floods the whole link.
	printGrid := func(title string, template partialtor.AttackPlan, targets []int, windows []time.Duration) {
		fmt.Fprintln(stdout, title)
		fmt.Fprintf(stdout, "%-9s %-10s %-14s %-14s\n", "targets", "window", "per-instance", "per-month")
		for _, n := range targets {
			for _, d := range windows {
				plan := template
				plan.Targets, plan.End = partialtor.FirstTargets(n), d
				inst := m.PlanCost(plan)
				fmt.Fprintf(stdout, "%-9d %-10v $%-13.3f $%-13.2f\n", n, d, inst, m.PerMonth(inst))
			}
		}
		fmt.Fprintln(stdout)
	}

	// The authority grid prices the paper's attack: flood each authority
	// down to just below its protocol requirement, so with the defaults the
	// 5-target 5-minute cell is the headline $0.074 / $53.28.
	printGrid(
		fmt.Sprintf("Authority-tier flood to below the %.0f Mbit/s requirement (%.0f Mbit/s links, $%.5f per Mbit/s/h):",
			m.RequiredMbit, m.AuthorityLinkMbit, m.PricePerMbitHour),
		partialtor.AttackPlan{Tier: partialtor.TierAuthority, Residual: m.RequiredMbit * 1e6}, targetCounts, windows)
	printGrid(
		fmt.Sprintf("Cache-tier knockout for one %v fetch window (%.0f Mbit/s links fully flooded):", *cacheWin, m.CacheLinkMbit),
		partialtor.AttackPlan{Tier: partialtor.TierCache}, cacheCounts, []time.Duration{*cacheWin})

	fmt.Fprintf(stdout, "headline accounting: %s\n", m.Summary(5, 5*time.Minute))
	fmt.Fprintf(stdout, "with the paper's defaults: %s\n", partialtor.DefaultCostModel().Summary(5, 5*time.Minute))
	return 0
}
