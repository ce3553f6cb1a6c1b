package harness

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"

	"partialtor/internal/attack"
	"partialtor/internal/relay"
	"partialtor/internal/simnet"
	"partialtor/internal/sweep"
)

// ---------------------------------------------------------------- Figure 1

// Figure1Result reproduces the paper's Figure 1: the log of a healthy
// authority while five authorities are under attack — missing votes, failed
// fetches, and the "not enough votes" failure.
type Figure1Result struct {
	Observer int      // the healthy authority whose log is rendered
	Lines    []string // wall-clock formatted log lines
	Run      *RunResult
}

// Figure1Params scales the experiment (unset fields = paper scale).
type Figure1Params struct {
	Relays       int
	Round        time.Duration
	EntryPadding int     // -1 = calibrated
	Residual     float64 // attacker-imposed bandwidth, bits/s
}

var (
	figure1Paper = Figure1Params{Relays: 8000, Round: 150 * time.Second, EntryPadding: -1, Residual: attack.ResidualUnderDDoS}
	figure1Quick = Figure1Params{Relays: 400, Round: 15 * time.Second, Residual: 5e3}

	figure1Artifact = artifact("fig1", figure1Quick, func(ctx context.Context, p Figure1Params, _ sweep.Params) (*Figure1Result, error) {
		return Figure1(ctx, p)
	})
)

// Figure1 runs the current protocol under the headline attack and renders a
// healthy authority's log.
func Figure1(ctx context.Context, p Figure1Params) (*Figure1Result, error) {
	p = overlay(p, figure1Paper)
	plan := attack.Plan{
		Targets:  attack.MajorityTargets(9),
		Start:    0,
		End:      2 * p.Round,
		Residual: p.Residual,
	}
	run, err := RunE(ctx, Scenario{
		Protocol:     Current,
		Relays:       p.Relays,
		EntryPadding: p.EntryPadding,
		Round:        p.Round,
		FetchTimeout: p.Round / 15, // dead peers are given up on quickly
		Attack:       &plan,
	})
	if err != nil {
		return nil, err
	}
	observer := 8 // a healthy authority
	res := &Figure1Result{Observer: observer, Run: run}
	// Render with wall-clock timestamps in the style of the paper's log:
	// the fetch round starts at 01:24:30, i.e. base = start − round.
	base := time.Date(2021, 1, 1, 1, 24, 30, 0, time.UTC).Add(-p.Round)
	for _, e := range run.Net.NodeLog(simnet.NodeID(observer)) {
		stamp := base.Add(e.At).Format("Jan 02 15:04:05.000")
		res.Lines = append(res.Lines, fmt.Sprintf("%s [%s] %s", stamp, e.Level, e.Text))
	}
	return res, nil
}

// Render returns the log as the paper displays it.
func (r *Figure1Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 1: authority %d log while 5 authorities are under attack\n", r.Observer)
	for _, l := range r.Lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	return b.String()
}

// ---------------------------------------------------------------- Figure 6

// Figure6Result is the relay-count time series (Tor Metrics style).
type Figure6Result struct {
	Points  []relay.MetricPoint
	Average float64
}

// Figure6 synthesizes the series with the paper's average (7141.79).
func Figure6() *Figure6Result {
	pts := relay.MetricsSeries()
	return &Figure6Result{Points: pts, Average: relay.SeriesAverage(pts)}
}

// Render prints date/count rows and the average.
func (r *Figure6Result) Render() string {
	return layout[relay.MetricPoint]{
		title: "Figure 6: number of Tor relays over time",
		cols: []column[relay.MetricPoint]{
			{"Month", relay.MetricPoint.Date},
			{"Relays", func(p relay.MetricPoint) string { return strconv.Itoa(p.Count) }},
		},
		footer: fmt.Sprintf("Average: %.2f (paper: %.2f)\n", r.Average, relay.Figure6Average),
	}.render(r.Points)
}

var figure6Artifact = Artifact{Name: "fig6", Run: func(context.Context, bool, sweep.Params) (string, error) {
	return Figure6().Render(), nil
}}

// ---------------------------------------------------------------- Figure 7

// Fig7Row is one point of the bandwidth-requirement curve.
type Fig7Row struct {
	Relays       int
	RequiredMbit float64 // minimal residual bandwidth for protocol success; -1 = above the search ceiling
}

// Figure7Params scales the sweep (unset fields = paper scale).
type Figure7Params struct {
	RelayCounts  []int
	Round        time.Duration
	EntryPadding int     // -1 = calibrated
	MaxMbit      float64 // search ceiling
	Precision    float64 // Mbit
}

var (
	figure7Paper = Figure7Params{RelayCounts: relayCounts(1000, 10000, 1000), Round: 150 * time.Second, EntryPadding: -1, MaxMbit: 30, Precision: 0.25}
	figure7Quick = Figure7Params{RelayCounts: []int{200, 600, 1200}, Round: 15 * time.Second, MaxMbit: 60, Precision: 0.5}

	figure7Artifact = artifact("fig7", figure7Quick, Figure7)
)

// Figure7 finds, per relay count, the minimal bandwidth the five attacked
// authorities need for the current protocol to still succeed: a rung of a
// bandwidth ladder up to MaxMbit, in steps of at most Precision, found by
// bisecting the ladder. Success is not monotone along it: above the first
// success lies a failure band, where each flooded authority's vote reaches
// the unflooded ones before the fetch round, so the two sides aggregate
// different vote sets and split into six camps, none with a majority
// (TestFigure7BandCause). Where the bisection's probes land decides which
// edge of the band a cell prints. The relay counts fan out over the sweep
// engine. The footer is the dashed "under attack" line (0.5 Mbit/s).
func Figure7(ctx context.Context, p Figure7Params, sp sweep.Params) (*Table[Fig7Row], error) {
	p = overlay(p, figure7Paper)
	grid := sweep.MustNew(sweep.Ints("relays", p.RelayCounts...))
	return sweepTable(ctx, grid, sp, func(ctx context.Context, c sweep.Cell) (Fig7Row, error) {
		relays := c.Int("relays")
		n := 1 // the rungs: MaxMbit·k/n for k = 1…n, exact dyadic values
		for p.MaxMbit/float64(n) > p.Precision {
			n *= 2
		}
		rung := func(i int) float64 { return p.MaxMbit * float64(i+1) / float64(n) }
		i, err := firstTurn(n, func(i int) (bool, error) {
			plan := attack.Plan{Targets: attack.MajorityTargets(9), End: 2 * p.Round, Residual: rung(i) * 1e6}
			run, err := RunE(ctx, Scenario{
				Protocol:     Current,
				Relays:       relays,
				EntryPadding: p.EntryPadding,
				Round:        p.Round,
				Attack:       &plan,
			})
			return err == nil && run.Success, err
		})
		row := Fig7Row{Relays: relays, RequiredMbit: -1}
		if i < n {
			row.RequiredMbit = rung(i)
		}
		return row, err
	}, layout[Fig7Row]{
		title: "Figure 7: bandwidth requirement for the directory protocol (5 authorities attacked)",
		cols: []column[Fig7Row]{
			{"Relays", func(r Fig7Row) string { return strconv.Itoa(r.Relays) }},
			{"Required Mbit/s", func(r Fig7Row) string {
				if r.RequiredMbit < 0 {
					return ">search ceiling"
				}
				return fmt.Sprintf("%.2f", r.RequiredMbit)
			}},
		},
		footer: fmt.Sprintf("Bandwidth under DDoS attack: %.1f Mbit/s (dashed line)\n", attack.ResidualUnderDDoS/1e6),
	}.render)
}
