package harness

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"

	"partialtor/internal/attack"
	"partialtor/internal/core"
	"partialtor/internal/sweep"
)

// This file holds the ablations (cmd/benchtables -only ablation): how
// sensitive the headline results are to (a) the calibrated vote entry size,
// (b) the ICPS dissemination wait Δ, and (c) the agreement pacemaker's base
// timeout.

// ablationArtifact groups the three ablations under one -only name, in the
// order above.
var ablationArtifact = Artifact{Name: "ablation", Run: func(ctx context.Context, quick bool, sp sweep.Params) (string, error) {
	var parts []string
	for _, a := range []Artifact{
		artifact("entry-size", entryBytesQuick, AblationEntrySize),
		artifact("delta", deltaQuick, AblationDelta),
		artifact("timeout", timeoutQuick, AblationTimeout),
	} {
		text, err := a.Run(ctx, quick, sp)
		if err != nil {
			return "", err
		}
		parts = append(parts, text)
	}
	return strings.Join(parts, "\n"), nil
}}

// ---------------------------------------------------- entry-size ablation

// EntrySizeRow is one calibration point: the current protocol's failure
// threshold (smallest failing relay count) for a given entry size.
type EntrySizeRow struct {
	EntryBytes      int
	ThresholdRelays int // 0 = no failure within the sweep
}

// EntrySizeParams scales the ablation (unset fields = paper scale).
type EntrySizeParams struct {
	EntrySizes    []int
	RelayCounts   []int // ascending; failure must be monotone along them
	BandwidthMbit float64
	Round         time.Duration
}

var (
	entryBytesPaper = EntrySizeParams{
		EntrySizes:    []int{625, 1250, 2500},
		RelayCounts:   relayCounts(2000, 40000, 2000),
		BandwidthMbit: 10,
		Round:         150 * time.Second,
	}
	entryBytesQuick = EntrySizeParams{
		EntrySizes:    []int{625, 2500},
		RelayCounts:   []int{500, 1000, 2000, 4000, 8000},
		BandwidthMbit: 10,
		Round:         15 * time.Second,
	}
)

// AblationEntrySize sweeps the current protocol's failure threshold across
// entry sizes, showing that the *threshold* scales inversely with the
// per-relay byte cost while the qualitative shape is unchanged — the
// justification for calibrating entries to 2.5 kB (the calibration itself is
// argued at vote.DefaultEntryPadding). The entry sizes fan out over the sweep
// engine; each cell bisects the relay ladder for its threshold.
func AblationEntrySize(ctx context.Context, p EntrySizeParams, sp sweep.Params) (*Table[EntrySizeRow], error) {
	p = overlay(p, entryBytesPaper)
	grid := sweep.MustNew(sweep.Ints("entry", p.EntrySizes...))
	return sweepTable(ctx, grid, sp, func(ctx context.Context, c sweep.Cell) (EntrySizeRow, error) {
		entry := c.Int("entry")
		i, err := firstTurn(len(p.RelayCounts), func(i int) (bool, error) {
			run, err := RunE(ctx, Scenario{
				Protocol:     Current,
				Relays:       p.RelayCounts[i],
				EntryPadding: entry,
				Bandwidth:    p.BandwidthMbit * 1e6,
				Round:        p.Round,
			})
			return err == nil && !run.Success, err
		})
		row := EntrySizeRow{EntryBytes: entry}
		if i < len(p.RelayCounts) {
			row.ThresholdRelays = p.RelayCounts[i]
		}
		return row, err
	}, layout[EntrySizeRow]{
		title: fmt.Sprintf("Ablation: current-protocol failure threshold vs entry size (%g Mbit/s)", p.BandwidthMbit),
		cols: []column[EntrySizeRow]{
			{"Entry bytes", func(r EntrySizeRow) string { return strconv.Itoa(r.EntryBytes) }},
			{"Failure threshold (relays)", func(r EntrySizeRow) string {
				if r.ThresholdRelays == 0 {
					return "none in sweep"
				}
				return strconv.Itoa(r.ThresholdRelays)
			}},
		},
	}.render)
}

// ------------------------------------------------------------ Δ ablation

// DeltaRow is one dissemination-wait measurement, with one authority crashed
// or — the control — with none.
type DeltaRow struct {
	Crash   bool
	Delta   time.Duration
	Latency time.Duration
	OKCount int
}

// DeltaParams scales the ablation (unset fields = paper scale).
type DeltaParams struct {
	Deltas []time.Duration
	Relays int
}

var (
	deltaPaper = DeltaParams{Deltas: []time.Duration{2 * time.Second, 10 * time.Second, 30 * time.Second}, Relays: 500}
	deltaQuick = DeltaParams{Relays: 200}
)

// AblationDelta sweeps Δ with one crashed authority and, as control, with
// none — a crash × Δ grid on the sweep engine, crashed rows first. It shows
// the trade-off §5.2.1 encodes in Δ: with a crashed authority the protocol
// cannot collect all n documents, so consensus waits for Δ before settling
// for n−f — larger Δ buys nothing but latency once a fault is real, while on
// healthy runs Δ never binds.
func AblationDelta(ctx context.Context, p DeltaParams, sp sweep.Params) (*Table[DeltaRow], error) {
	p = overlay(p, deltaPaper)
	grid := sweep.MustNew(
		sweep.Of("crash", true, false),
		sweep.Durations("delta", p.Deltas...),
	)
	return sweepTable(ctx, grid, sp, func(_ context.Context, c sweep.Cell) (DeltaRow, error) {
		row := DeltaRow{Crash: c.Value("crash").(bool), Delta: c.Duration("delta")}
		keys, docs := Inputs(Scenario{Relays: p.Relays, EntryPadding: -1}.withDefaults())
		cfg := core.Config{Keys: keys, Docs: docs, Delta: row.Delta, BaseTimeout: 10 * time.Second}
		if row.Crash {
			cfg.Silent = map[int]bool{8: true}
		}
		net, ups, downs, _, err := buildNetwork(Scenario{N: 9, Bandwidth: DefaultBandwidth}.withDefaults())
		if err != nil {
			return row, err
		}
		auths := core.NewAuthorities(cfg)
		for i, a := range auths {
			net.AddNode(a, ups[i], downs[i])
		}
		net.Run(time.Hour)
		if row.Crash {
			auths = auths[:8] // the silent authority 8 need not publish
		}
		out := fold(auths, true)
		row.Latency = out.Latency
		if out.Consensus != nil { // aggregated from every OK entry of the agreed vector
			row.OKCount = len(out.Consensus.Voters)
		}
		return row, nil
	}, func(rows []DeltaRow) string {
		crashed := len(rows) / 2 // crash is the slow axis, true first
		panel := layout[DeltaRow]{
			title: "Ablation: ICPS latency vs Δ with one crashed authority",
			cols: []column[DeltaRow]{
				{"Δ", func(r DeltaRow) string { return r.Delta.String() }},
				{"Latency (s)", func(r DeltaRow) string { return fmtLatency(r.Latency) }},
				{"OK entries", func(r DeltaRow) string { return strconv.Itoa(r.OKCount) }},
			},
		}
		out := panel.render(rows[:crashed])
		panel.title = "Control: same sweep, no faults (Δ must not bind)"
		return out + "\n" + panel.render(rows[crashed:])
	})
}

// ------------------------------------------------------ timeout ablation

// TimeoutRow is one pacemaker measurement.
type TimeoutRow struct {
	BaseTimeout time.Duration
	Recovery    time.Duration // time to consensus after the outage ends
}

// TimeoutParams scales the ablation (unset fields = paper scale).
type TimeoutParams struct {
	BaseTimeouts []time.Duration
	Outage       time.Duration
	Relays       int
}

var (
	timeoutPaper = TimeoutParams{BaseTimeouts: []time.Duration{5 * time.Second, 20 * time.Second, 80 * time.Second}, Outage: time.Minute, Relays: 400}
	timeoutQuick = TimeoutParams{Outage: 30 * time.Second, Relays: 150}
)

// AblationTimeout sweeps the pacemaker base timeout under an outage on the
// sweep engine. It shows that recovery from an outage is insensitive to the
// base timeout: the TC pacemaker cannot advance views while the quorum is
// unreachable, so no timeout tuning is "burned" during the attack; recovery
// is network-bound either way.
func AblationTimeout(ctx context.Context, p TimeoutParams, sp sweep.Params) (*Table[TimeoutRow], error) {
	p = overlay(p, timeoutPaper)
	grid := sweep.MustNew(sweep.Durations("timeout", p.BaseTimeouts...))
	return sweepTable(ctx, grid, sp, func(ctx context.Context, c sweep.Cell) (TimeoutRow, error) {
		bt := c.Duration("timeout")
		plan := attack.Plan{Targets: attack.MajorityTargets(9), Start: 0, End: p.Outage, Residual: 0}
		run, err := RunE(ctx, Scenario{
			Protocol:     ICPS,
			Relays:       p.Relays,
			EntryPadding: -1,
			Attack:       &plan,
			BaseTimeout:  bt,
		})
		if err != nil {
			return TimeoutRow{}, err
		}
		return TimeoutRow{BaseTimeout: bt, Recovery: recoveryAfter(run, p.Outage)}, nil
	}, layout[TimeoutRow]{
		title: fmt.Sprintf("Ablation: recovery after a %v outage vs pacemaker base timeout", p.Outage),
		cols: []column[TimeoutRow]{
			{"Base timeout", func(r TimeoutRow) string { return r.BaseTimeout.String() }},
			{"Recovery (s)", func(r TimeoutRow) string { return fmtLatency(r.Recovery) }},
		},
	}.render)
}
