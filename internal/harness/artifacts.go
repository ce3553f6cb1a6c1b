package harness

import (
	"context"
	"fmt"
	"reflect"

	"partialtor/internal/sweep"
)

// Artifact is one regenerable piece of the evaluation: a figure, a table or
// an ablation group, under the name cmd/benchtables -only selects it by.
type Artifact struct {
	Name string
	// Run regenerates the artifact and returns its rendered text — at paper
	// scale, or from the artifact's reduced quick preset. Sweep artifacts
	// fan their grid out under sp; the text is byte-identical for any
	// worker count.
	Run func(ctx context.Context, quick bool, sp sweep.Params) (string, error)
}

// Artifacts lists every artifact of the evaluation in the paper's
// presentation order (cheap artifacts first). Each entry is declared beside
// its generator, next to its paper-scale and quick presets.
func Artifacts() []Artifact {
	return []Artifact{
		figure6Artifact, costArtifact, table2Artifact, figure1Artifact,
		table1Artifact, figure7Artifact, figure10Artifact, figure11Artifact,
		regionalArtifact, gossipArtifact, ablationArtifact,
	}
}

// artifact registers a generator under name: Run calls it with the zero
// Params (which the generator overlays with its paper-scale preset) or with
// the quick preset, and renders the outcome.
func artifact[P any, R interface{ Render() string }](name string, quick P, gen func(context.Context, P, sweep.Params) (R, error)) Artifact {
	return Artifact{Name: name, Run: func(ctx context.Context, q bool, sp sweep.Params) (string, error) {
		var p P
		if q {
			p = quick
		}
		r, err := gen(ctx, p, sp)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	}}
}

// overlay returns p with every unset field — the zero value, or an empty
// slice — taken from preset: the "zero values = paper scale" rule of every
// Params struct, with the paper scale spelled once as a value.
func overlay[P any](p, preset P) P {
	v, d := reflect.ValueOf(&p).Elem(), reflect.ValueOf(preset)
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if f.IsZero() || (f.Kind() == reflect.Slice && f.Len() == 0) {
			f.Set(d.Field(i))
		}
	}
	return p
}

// Table is the outcome of a sweep artifact: one typed row per grid cell, in
// cell-rank order — the order the serial nested loops would have produced,
// whatever the worker count — and the text rendering of those rows.
type Table[R any] struct {
	Rows   []R
	render func([]R) string
}

// Render returns the table(s) as benchtables prints them.
func (t *Table[R]) Render() string { return t.render(t.Rows) }

// sweepTable is the one path from a grid to a Table: fan the cells out over
// the sweep engine, fold the first per-cell failure — a misconfigured cell,
// a cancelled context — into one error, and collect the rows by rank.
func sweepTable[R any](ctx context.Context, g sweep.Grid, sp sweep.Params, cell func(context.Context, sweep.Cell) (R, error), render func([]R) string) (*Table[R], error) {
	results := sweep.RunParams(ctx, g, sp, cell)
	if err := sweep.FirstErr(results); err != nil {
		return nil, fmt.Errorf("harness: %w", err)
	}
	rows := make([]R, len(results))
	for i, r := range results {
		rows[i] = r.Value
	}
	return &Table[R]{Rows: rows, render: render}, nil
}

// column is one table column: its header and how a row renders in it.
type column[R any] struct {
	header string
	cell   func(R) string
}

// layout is a column-driven text table; footer, when set, is appended
// verbatim below it.
type layout[R any] struct {
	title  string
	cols   []column[R]
	footer string
}

func (l layout[R]) render(rows []R) string {
	headers := make([]string, len(l.cols))
	for i, c := range l.cols {
		headers[i] = c.header
	}
	cells := make([][]string, len(rows))
	for i, r := range rows {
		cells[i] = make([]string, len(l.cols))
		for j, c := range l.cols {
			cells[i][j] = c.cell(r)
		}
	}
	return renderTable(l.title, headers, cells) + l.footer
}

// relayCounts returns first, first+step, ..., last: the relay axis of the
// paper-scale presets.
func relayCounts(first, last, step int) []int {
	var out []int
	for r := first; r <= last; r += step {
		out = append(out, r)
	}
	return out
}

// firstTurn returns the least i in [0, n) at which turned(i) holds, or n if
// none does — sort.Search over a ladder whose probes can fail. turned must be
// monotone along the ladder (once it holds, it holds on every later rung); it
// is called at most ⌈log₂(n+1)⌉ times, and its first error is returned.
func firstTurn(n int, turned func(i int) (bool, error)) (int, error) {
	lo, hi := -1, n // sentinels: turned(lo) is false, turned(hi) true
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		ok, err := turned(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, nil
}
