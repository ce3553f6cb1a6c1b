package harness

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"partialtor/internal/attack"
	"partialtor/internal/sweep"
)

// ---------------------------------------------------------------- Table 1

// Table1Row is one protocol's measured transport cost; table1Design holds
// its design summary.
type Table1Row struct {
	Protocol         Protocol
	MeasuredBytes    int64
	MeasuredMessages int64
}

// Table1Params scales the measurement scenario (unset fields = a scale at
// which every protocol completes; Round 0 = the scenario default).
type Table1Params struct {
	Relays       int
	Bandwidth    float64
	Round        time.Duration
	EntryPadding int // -1 = calibrated
}

var (
	table1Paper = Table1Params{Relays: 2000, Bandwidth: 50e6, EntryPadding: -1}
	table1Quick = Table1Params{Relays: 300, Bandwidth: 100e6, Round: 20 * time.Second}

	table1Artifact = artifact("tab1", table1Quick, Table1)
)

// table1Design is each protocol's network model, security and asymptotic
// complexity, as the paper states them.
var table1Design = map[Protocol][3]string{
	Current:     {"Bounded Synchrony", "Insecure (attacks monitored)", "O(n²d + n²κ)"},
	Synchronous: {"Bounded Synchrony", "Secure (Interactive Consistency)", "O(n³d + n⁴κ)"},
	ICPS:        {"Partial Synchrony", "Secure (IC under Partial Synchrony)", "O(n²d + n⁴κ)"},
}

// Table1 compares the three designs (paper Table 1): it runs the three
// protocols on one scenario and backs the asymptotic columns with measured
// transport totals.
func Table1(ctx context.Context, p Table1Params, sp sweep.Params) (*Table[Table1Row], error) {
	p = overlay(p, table1Paper)
	grid := sweep.MustNew(sweep.Of("protocol", Current, Synchronous, ICPS))
	return sweepTable(ctx, grid, sp, func(ctx context.Context, c sweep.Cell) (Table1Row, error) {
		proto := c.Value("protocol").(Protocol)
		run, err := RunE(ctx, Scenario{
			Protocol:     proto,
			Relays:       p.Relays,
			EntryPadding: p.EntryPadding,
			Bandwidth:    p.Bandwidth,
			Round:        p.Round,
		})
		if err != nil {
			return Table1Row{}, err
		}
		if !run.Success {
			return Table1Row{}, fmt.Errorf("harness: table 1 compares completed runs, and %v failed at this scale", proto)
		}
		return Table1Row{
			Protocol:         proto,
			MeasuredBytes:    run.BytesSent,
			MeasuredMessages: run.Messages,
		}, nil
	}, layout[Table1Row]{
		title: fmt.Sprintf("Table 1: design comparison (measured at %d relays, %g Mbit/s)", p.Relays, p.Bandwidth/1e6),
		cols: []column[Table1Row]{
			{"Protocol", func(r Table1Row) string { return r.Protocol.String() }},
			{"Network Model", func(r Table1Row) string { return table1Design[r.Protocol][0] }},
			{"Security", func(r Table1Row) string { return table1Design[r.Protocol][1] }},
			{"Complexity", func(r Table1Row) string { return table1Design[r.Protocol][2] }},
			{"Bytes", func(r Table1Row) string { return fmtBytes(r.MeasuredBytes) }},
			{"Messages", func(r Table1Row) string { return strconv.FormatInt(r.MeasuredMessages, 10) }},
		},
	}.render)
}

// ---------------------------------------------------------------- Table 2

// Table2Row is one sub-protocol's round count.
type Table2Row struct {
	SubProtocol string
	Rounds      int
	// Kinds are the message kinds that realize the rounds; Table2 fails
	// unless each flows in the verification run.
	Kinds []string
}

// Table2Result is the round-complexity table (paper Table 2): 2 rounds of
// dissemination, 5 of (two-chain HotStuff) agreement, 2 of aggregation.
type Table2Result struct {
	Rows  []Table2Row
	Total int
}

// Table2 verifies the round structure on a small healthy run.
func Table2(ctx context.Context) (*Table2Result, error) {
	run, err := RunE(ctx, Scenario{Protocol: ICPS, Relays: 200, EntryPadding: 0, Seed: 3})
	if err != nil {
		return nil, err
	}
	rows := []Table2Row{
		{SubProtocol: "Dissemination", Rounds: 2, Kinds: []string{"icps/document", "icps/proposal"}},
		{SubProtocol: "Agreement (two-chain HotStuff)", Rounds: 5,
			Kinds: []string{"hotstuff/proposal", "hotstuff/vote", "hotstuff/lock", "hotstuff/decide"}},
		{SubProtocol: "Aggregation", Rounds: 2, Kinds: []string{"icps/sig"}},
	}
	total := 0
	observed := run.Net.Stats().KindCount
	for _, r := range rows {
		total += r.Rounds
		for _, kind := range r.Kinds {
			if observed[kind] == 0 {
				return nil, fmt.Errorf("harness: table 2: no %q message flowed in the verification run", kind)
			}
		}
	}
	return &Table2Result{Rows: rows, Total: total}, nil
}

// Render prints the round table.
func (r *Table2Result) Render() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{row.SubProtocol, fmt.Sprintf("%d", row.Rounds)})
	}
	rows = append(rows, []string{"Total (good case, no GST)", fmt.Sprintf("%d", r.Total)})
	return renderTable("Table 2: rounds of each sub-protocol", []string{"Sub-Protocol", "Rounds"}, rows)
}

var table2Artifact = artifact("tab2", struct{}{}, func(ctx context.Context, _ struct{}, _ sweep.Params) (*Table2Result, error) {
	return Table2(ctx)
})

// ---------------------------------------------------------------- Cost

// CostResult reproduces the §4.3 attack cost analysis.
type CostResult struct {
	Model           attack.CostModel
	Targets         int
	AttackDuration  time.Duration
	FloodMbit       float64
	CostPerInstance float64
	CostPerMonth    float64
}

// CostTable evaluates the paper's cost model: $0.074 per consensus
// instance, $53.28 per month.
func CostTable() *CostResult {
	m := attack.DefaultCostModel()
	const targets = 5
	d := 5 * time.Minute
	return &CostResult{
		Model:           m,
		Targets:         targets,
		AttackDuration:  d,
		FloodMbit:       m.FloodMbit(),
		CostPerInstance: m.CostPerInstance(targets, d),
		CostPerMonth:    m.CostPerMonth(targets, d),
	}
}

// Render prints the cost analysis.
func (r *CostResult) Render() string {
	rows := [][]string{
		{"Authority link capacity", fmt.Sprintf("%.0f Mbit/s", r.Model.AuthorityLinkMbit)},
		{"Protocol bandwidth requirement (8000 relays)", fmt.Sprintf("%.0f Mbit/s", r.Model.RequiredMbit)},
		{"Attack traffic per authority", fmt.Sprintf("%.0f Mbit/s", r.FloodMbit)},
		{"Stressor price per Mbit/s/hour", fmt.Sprintf("$%.5f", r.Model.PricePerMbitHour)},
		{"Targets x duration", fmt.Sprintf("%d x %v", r.Targets, r.AttackDuration)},
		{"Cost per consensus instance", fmt.Sprintf("$%.3f", r.CostPerInstance)},
		{"Cost per month (24 x 30 instances)", fmt.Sprintf("$%.2f", r.CostPerMonth)},
	}
	return renderTable("Attack cost (paper §4.3)", []string{"Quantity", "Value"}, rows)
}

var costArtifact = Artifact{Name: "cost", Run: func(context.Context, bool, sweep.Params) (string, error) {
	return CostTable().Render(), nil
}}
