package harness

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"partialtor/internal/attack"
	"partialtor/internal/dircache"
	"partialtor/internal/simnet"
	"partialtor/internal/sweep"
	"partialtor/internal/topo"
)

// RegionalRow is one cell of the regional-flood experiment: a distribution
// run on the continental topology, with or without the flood on one region's
// mirrors, at one racing-client width.
type RegionalRow struct {
	Flood bool // the region's caches knocked offline for the whole window
	RaceK int  // racing-client width (0 = legacy client)
	// Coverage is the fraction of clients covered when the fetch window
	// closes; T99 the time to 99% coverage (simnet.Never if unreached).
	Coverage float64
	T99      time.Duration
	// RegionP99 is the flooded region's own 99th-percentile fetch time —
	// where a regional flood actually bites.
	RegionP99 time.Duration
	// WasteBytes and Timeouts price the racing: duplicate egress from
	// laggard responses, and wave timeouts that triggered a re-race.
	WasteBytes int64
	Timeouts   int
}

// RegionalParams scales the experiment (unset fields = demo scale).
type RegionalParams struct {
	Clients int
	Caches  int
	Fleets  int
	Window  time.Duration
	Region  string // the flooded region
	RaceKs  []int  // racing widths to sweep
	Seed    int64
}

var (
	regionalPaper = RegionalParams{
		Clients: 200_000,
		Caches:  24,
		Fleets:  2 * topo.Continents().NumRegions(), // two per continent
		Window:  30 * time.Minute,
		Region:  "eu",
		RaceKs:  []int{0, 2},
		Seed:    42,
	}
	regionalQuick = RegionalParams{Clients: 50_000, Caches: 12, Window: 20 * time.Minute}

	regionalArtifact = artifact("regional", regionalQuick, RegionalTable)
)

// RegionalTable compares legacy and racing clients under a regional mirror
// flood: it runs the flood × racing-width grid on the continental topology
// and reports per-cell coverage, time to 99%, the flooded region's p99 and
// the racing overhead. The headline: under a flood that strands legacy
// clients for the window, racing K>=2 keeps the flooded region near full
// coverage at the price of duplicate cache egress. Cells fan out over the
// sweep engine.
func RegionalTable(ctx context.Context, p RegionalParams, sp sweep.Params) (*Table[RegionalRow], error) {
	p = overlay(p, regionalPaper)
	tp := topo.Continents()
	grid := sweep.MustNew(
		sweep.Of("flood", false, true),
		sweep.Ints("race", p.RaceKs...),
	)
	return sweepTable(ctx, grid, sp, func(_ context.Context, c sweep.Cell) (RegionalRow, error) {
		row := RegionalRow{Flood: c.Value("flood").(bool), RaceK: c.Int("race")}
		spec := dircache.Spec{
			Clients:     p.Clients,
			Caches:      p.Caches,
			Fleets:      p.Fleets,
			FetchWindow: p.Window,
			Seed:        p.Seed,
			Topology:    tp,
			RaceK:       row.RaceK,
		}
		if row.Flood {
			spec.Attacks = []attack.Plan{{
				Tier:         attack.TierCache,
				TargetRegion: p.Region,
				Start:        0,
				End:          p.Window + time.Hour,
				Residual:     0,
			}}
		}
		r, err := dircache.Run(spec)
		if err != nil {
			return RegionalRow{}, err
		}
		row.Coverage = r.CoverageAt(p.Window)
		row.T99 = r.TimeToCoverage(0.99)
		row.WasteBytes = r.RaceWasteBytes
		row.Timeouts = r.RaceTimeouts
		row.RegionP99 = simnet.Never
		for _, rc := range r.Regions {
			if rc.Name == p.Region {
				row.RegionP99 = rc.P99
			}
		}
		return row, nil
	}, layout[RegionalRow]{
		title: fmt.Sprintf("Regional: %q mirror flood vs racing clients (continents, %v window)", p.Region, p.Window),
		cols: []column[RegionalRow]{
			{"Tier", func(r RegionalRow) string {
				if r.Flood {
					return p.Region + " offline"
				}
				return "healthy"
			}},
			{"Race K", func(r RegionalRow) string { return strconv.Itoa(r.RaceK) }},
			{"Coverage", func(r RegionalRow) string { return fmt.Sprintf("%.1f%%", 100*r.Coverage) }},
			{"t99 (s)", func(r RegionalRow) string { return fmtLatency(r.T99) }},
			{p.Region + " p99 (s)", func(r RegionalRow) string { return fmtLatency(r.RegionP99) }},
			{"Race waste", func(r RegionalRow) string { return fmtBytes(r.WasteBytes) }},
			{"Timeouts", func(r RegionalRow) string { return strconv.Itoa(r.Timeouts) }},
		},
	}.render)
}
