package harness

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"partialtor/internal/attack"
	"partialtor/internal/simnet"
	"partialtor/internal/sweep"
)

// Fig11Row is one point of the outage-recovery experiment.
type Fig11Row struct {
	Relays int
	// Recovery is the time our protocol needed after the attack ended.
	Recovery time.Duration
	// Baseline is the paper's accounting for the lock-step protocols
	// (2100s: they fail this run and rerun half an hour later).
	Baseline time.Duration
}

// Figure11Params scales the experiment (unset fields = paper scale).
type Figure11Params struct {
	RelayCounts  []int
	Outage       time.Duration
	EntryPadding int // -1 = calibrated
}

var (
	figure11Paper = Figure11Params{RelayCounts: relayCounts(1000, 10000, 1000), Outage: 5 * time.Minute, EntryPadding: -1}
	figure11Quick = Figure11Params{RelayCounts: []int{200, 800}, Outage: time.Minute}

	figure11Artifact = artifact("fig11", figure11Quick, Figure11)
)

// Figure11 is the complete-outage experiment: it runs the ICPS protocol
// with the majority of the authorities knocked offline for p.Outage at the
// start of the protocol and reports how quickly consensus lands once the
// attack ends. The relay counts fan out over the sweep engine.
func Figure11(ctx context.Context, p Figure11Params, sp sweep.Params) (*Table[Fig11Row], error) {
	p = overlay(p, figure11Paper)
	grid := sweep.MustNew(sweep.Ints("relays", p.RelayCounts...))
	return sweepTable(ctx, grid, sp, func(ctx context.Context, c sweep.Cell) (Fig11Row, error) {
		relays := c.Int("relays")
		plan := attack.FiveMinuteOutage(attack.MajorityTargets(9))
		plan.End = p.Outage
		run, err := RunE(ctx, Scenario{
			Protocol:     ICPS,
			Relays:       relays,
			EntryPadding: p.EntryPadding,
			Attack:       &plan,
		})
		if err != nil {
			return Fig11Row{}, err
		}
		return Fig11Row{Relays: relays, Recovery: recoveryAfter(run, p.Outage), Baseline: FallbackLatency}, nil
	}, layout[Fig11Row]{
		title: fmt.Sprintf("Figure 11: consensus latency after a %v outage of 5 authorities", p.Outage),
		cols: []column[Fig11Row]{
			{"Relays", func(r Fig11Row) string { return strconv.Itoa(r.Relays) }},
			{"Ours after attack (s)", func(r Fig11Row) string { return fmtLatency(r.Recovery) }},
			{"Current/Synchronous (s)", func(r Fig11Row) string { return fmtLatency(r.Baseline) }},
		},
	}.render)
}

// recoveryAfter is how long after the outage ended the run reached
// consensus: 0 if it landed during the outage, Never if it never did.
func recoveryAfter(run *RunResult, outage time.Duration) time.Duration {
	if !run.Success || run.DoneAt == simnet.Never {
		return simnet.Never
	}
	return max(run.DoneAt-outage, 0)
}
