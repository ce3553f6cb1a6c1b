package harness

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"partialtor/internal/simnet"
	"partialtor/internal/sweep"
)

// Fig10Cell is one measurement of the latency comparison grid.
type Fig10Cell struct {
	Protocol      Protocol
	BandwidthMbit float64
	Relays        int
	Latency       time.Duration // Never when the protocol failed
}

// Figure10Params scales the grid (unset fields = paper scale).
type Figure10Params struct {
	BandwidthsMbit []float64
	RelayCounts    []int
	Protocols      []Protocol
	Round          time.Duration
	EntryPadding   int // -1 = calibrated
}

var (
	figure10Paper = Figure10Params{
		BandwidthsMbit: []float64{50, 20, 10, 1, 0.5},
		RelayCounts:    relayCounts(1000, 10000, 1000),
		Protocols:      []Protocol{Current, Synchronous, ICPS},
		Round:          150 * time.Second,
		EntryPadding:   -1,
	}
	figure10Quick = Figure10Params{
		BandwidthsMbit: []float64{100, 10, 1},
		RelayCounts:    []int{300, 900, 1500},
		Round:          15 * time.Second,
	}

	figure10Artifact = artifact("fig10", figure10Quick, Figure10)
)

// Figure10 measures the latency (or failure) of each protocol on every
// (bandwidth, relays) cell. The full relays × bandwidth × protocol grid
// fans out over the sweep engine; relays is the slowest axis so the cached
// document sets (Inputs) are reused across the inner cells. It renders one
// panel per bandwidth, one series per protocol, relays down the rows — the
// paper's layout.
func Figure10(ctx context.Context, p Figure10Params, sp sweep.Params) (*Table[Fig10Cell], error) {
	p = overlay(p, figure10Paper)
	grid := sweep.MustNew(
		sweep.Ints("relays", p.RelayCounts...),
		sweep.Floats("mbit", p.BandwidthsMbit...),
		sweep.Of("protocol", p.Protocols...),
	)
	return sweepTable(ctx, grid, sp, func(ctx context.Context, c sweep.Cell) (Fig10Cell, error) {
		cell := Fig10Cell{
			Protocol:      c.Value("protocol").(Protocol),
			BandwidthMbit: c.Float("mbit"),
			Relays:        c.Int("relays"),
			Latency:       simnet.Never,
		}
		run, err := RunE(ctx, Scenario{
			Protocol:     cell.Protocol,
			Relays:       cell.Relays,
			EntryPadding: p.EntryPadding,
			Bandwidth:    cell.BandwidthMbit * 1e6,
			Round:        p.Round,
		})
		if err != nil {
			return Fig10Cell{}, err
		}
		if run.Success {
			cell.Latency = run.Latency
		}
		return cell, nil
	}, func(cells []Fig10Cell) string {
		out := ""
		for _, mbit := range p.BandwidthsMbit {
			panel := layout[int]{
				title: fmt.Sprintf("Figure 10 panel: %s Mbit/s", fmtMbit(mbit*1e6)),
				cols:  []column[int]{{"Relays", strconv.Itoa}},
			}
			for _, proto := range p.Protocols {
				panel.cols = append(panel.cols, column[int]{proto.String() + " (s)", func(relays int) string {
					c, ok := Fig10Lookup(cells, proto, mbit, relays)
					if !ok {
						return "-"
					}
					return fmtLatency(c.Latency)
				}})
			}
			out += panel.render(p.RelayCounts) + "\n"
		}
		return out
	})
}

// Fig10Lookup retrieves one measurement.
func Fig10Lookup(cells []Fig10Cell, proto Protocol, mbit float64, relays int) (Fig10Cell, bool) {
	for _, c := range cells {
		if c.Protocol == proto && c.BandwidthMbit == mbit && c.Relays == relays {
			return c, true
		}
	}
	return Fig10Cell{}, false
}
