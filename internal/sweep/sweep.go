package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"
)

// Axis is one named dimension of a grid. Values are heterogeneous on
// purpose: sweeps mix relay counts (int), bandwidths (float64), durations
// and protocol enums along different axes.
type Axis struct {
	Name   string
	Values []any
}

// Ints builds an axis of integer values (relay counts, cache counts, ...).
func Ints(name string, vals ...int) Axis {
	a := Axis{Name: name, Values: make([]any, len(vals))}
	for i, v := range vals {
		a.Values[i] = v
	}
	return a
}

// Floats builds an axis of float values (bandwidths, residuals, ...).
func Floats(name string, vals ...float64) Axis {
	a := Axis{Name: name, Values: make([]any, len(vals))}
	for i, v := range vals {
		a.Values[i] = v
	}
	return a
}

// Durations builds an axis of durations (attack windows, timeouts, ...).
func Durations(name string, vals ...time.Duration) Axis {
	a := Axis{Name: name, Values: make([]any, len(vals))}
	for i, v := range vals {
		a.Values[i] = v
	}
	return a
}

// Of builds an axis from any value slice (protocol enums, booleans, ...).
func Of[T any](name string, vals ...T) Axis {
	a := Axis{Name: name, Values: make([]any, len(vals))}
	for i, v := range vals {
		a.Values[i] = v
	}
	return a
}

// Grid is the cartesian product of its axes.
type Grid struct {
	Axes []Axis
}

// New assembles a grid. Every axis must be named and non-empty; duplicate
// names are rejected (a cell could not address the earlier axis).
func New(axes ...Axis) (Grid, error) {
	seen := make(map[string]bool, len(axes))
	for _, a := range axes {
		if a.Name == "" {
			return Grid{}, fmt.Errorf("sweep: unnamed axis")
		}
		if len(a.Values) == 0 {
			return Grid{}, fmt.Errorf("sweep: axis %q has no values", a.Name)
		}
		if seen[a.Name] {
			return Grid{}, fmt.Errorf("sweep: duplicate axis %q", a.Name)
		}
		seen[a.Name] = true
	}
	return Grid{Axes: axes}, nil
}

// MustNew is New for statically known axes, where a malformed grid is a
// programming error.
func MustNew(axes ...Axis) Grid {
	g, err := New(axes...)
	if err != nil {
		panic(err)
	}
	return g
}

// Size is the number of cells (the product of the axis lengths; 1 for the
// empty grid, which has exactly one cell: the empty coordinate).
func (g Grid) Size() int {
	n := 1
	for _, a := range g.Axes {
		n *= len(a.Values)
	}
	return n
}

// Cell returns the rank-th cell in row-major order (first axis slowest).
func (g Grid) Cell(rank int) Cell {
	if rank < 0 || rank >= g.Size() {
		panic(fmt.Sprintf("sweep: cell rank %d outside grid of %d", rank, g.Size()))
	}
	coords := make([]int, len(g.Axes))
	r := rank
	for i := len(g.Axes) - 1; i >= 0; i-- {
		n := len(g.Axes[i].Values)
		coords[i] = r % n
		r /= n
	}
	return Cell{Rank: rank, coords: coords, axes: g.Axes}
}

// Cell is one grid point: a rank plus a value per axis.
type Cell struct {
	// Rank is the cell's row-major position; RunParams' result slice is indexed
	// by it.
	Rank   int
	coords []int
	axes   []Axis
}

// Value returns the cell's value on the named axis; it panics on an unknown
// axis name (a typo in sweep code, not an input condition).
func (c Cell) Value(name string) any {
	for i, a := range c.axes {
		if a.Name == name {
			return a.Values[c.coords[i]]
		}
	}
	panic(fmt.Sprintf("sweep: no axis %q in cell %s", name, c))
}

// Int returns the named axis value as an int.
func (c Cell) Int(name string) int { return c.Value(name).(int) }

// Float returns the named axis value as a float64.
func (c Cell) Float(name string) float64 { return c.Value(name).(float64) }

// Duration returns the named axis value as a time.Duration.
func (c Cell) Duration(name string) time.Duration { return c.Value(name).(time.Duration) }

// String renders the cell's coordinates ("caches=10 clients=100000"), the
// context every per-cell error is wrapped with.
func (c Cell) String() string {
	var b strings.Builder
	for i, a := range c.axes {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%v", a.Name, a.Values[c.coords[i]])
	}
	return b.String()
}

// Result pairs one cell with its outcome. Exactly one of Value and Err is
// meaningful: Err captures the callback's error (or recovered panic) and
// leaves Value at the zero value.
type Result[T any] struct {
	Cell  Cell
	Value T
	Err   error
}

// Params configures a sweep run beyond the grid and the cell function.
type Params struct {
	// Workers bounds the worker pool (<= 0 selects GOMAXPROCS; 1 is the
	// serial baseline).
	Workers int
	// OnCell, when set, observes progress: it is called once per finished
	// cell — including cells skipped by cancellation — with the running
	// completion count, the grid size, and that cell's error (nil on
	// success). Calls are serialized, so the callback needs no locking of
	// its own, but they come from worker goroutines: a slow callback slows
	// the sweep.
	OnCell func(done, total int, cellErr error)
}

// RunParams evaluates fn on every cell of the grid with a pool of p.Workers
// goroutines. The returned slice is indexed by cell rank, so the result
// order is deterministic and independent of completion order — a parallel
// run of a deterministic fn is indistinguishable from a serial one. A
// panicking fn fails its own cell only; the panic is captured as that cell's
// Err.
//
// The context is handed to every cell and consulted between cells. Once ctx
// is cancelled no new cell starts; cells already in flight run to completion
// (a deterministic fn may watch ctx to abort early), their results are kept,
// and every never-started cell carries ctx's error wrapped in
// ErrCellSkipped. Completed work is never discarded — the property adaptive
// grids and long interactive sweeps rely on.
func RunParams[T any](ctx context.Context, g Grid, p Params, fn func(context.Context, Cell) (T, error)) []Result[T] {
	n := g.Size()
	results := make([]Result[T], n)
	workers := p.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	var progressMu sync.Mutex
	done := 0
	report := func(err error) {
		if p.OnCell == nil {
			return
		}
		progressMu.Lock()
		done++
		p.OnCell(done, n, err)
		progressMu.Unlock()
	}
	ranks := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rank := range ranks {
				cell := g.Cell(rank)
				// A cell can be handed off in the same instant the context
				// dies; re-checking here makes "no cell starts after
				// cancellation" deterministic rather than racy.
				if err := ctx.Err(); err != nil {
					results[rank] = skippedCell[T](cell, err)
					report(results[rank].Err)
					continue
				}
				results[rank] = runCell(ctx, cell, fn)
				report(results[rank].Err)
			}
		}()
	}
	next := 0
dispatch:
	for ; next < n; next++ {
		select {
		case ranks <- next:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(ranks)
	wg.Wait()
	for rank := next; rank < n; rank++ {
		results[rank] = skippedCell[T](g.Cell(rank), ctx.Err())
		report(results[rank].Err)
	}
	return results
}

// ErrCellSkipped marks a cell a cancelled context prevented from running at
// all; errors.Is distinguishes skipped cells from cells that ran and failed.
var ErrCellSkipped = fmt.Errorf("sweep: cell skipped")

// skippedCell is the result of a cell the cancelled context kept from
// running ("sweep: cell skipped: a=1 b=2: context canceled").
func skippedCell[T any](cell Cell, cause error) Result[T] {
	return Result[T]{
		Cell: cell,
		Err:  fmt.Errorf("%w: %s: %w", ErrCellSkipped, cell, cause),
	}
}

// runCell evaluates one cell, converting a panic into the cell's error so a
// single bad configuration cannot abort a long sweep.
func runCell[T any](ctx context.Context, cell Cell, fn func(context.Context, Cell) (T, error)) (res Result[T]) {
	res.Cell = cell
	defer func() {
		if r := recover(); r != nil {
			res.Err = fmt.Errorf("sweep: cell %s panicked: %v", cell, r)
		}
	}()
	res.Value, res.Err = fn(ctx, cell)
	return res
}

// FirstErr returns the first genuinely failed cell's error (by rank), or
// nil if every cell either succeeded or was skipped by cancellation.
//
// Cells carrying ErrCellSkipped are not failures — they are work a
// cancelled context prevented, and the caller that cancelled already knows
// why. Counting them here would make every interrupted sweep look broken
// and bury the one real failure behind whatever skipped cell ranks first.
// To tell a cancelled-but-clean sweep from a complete one, check the
// context's own error; to inspect skipped cells individually, test each
// Result.Err with errors.Is(err, ErrCellSkipped).
func FirstErr[T any](results []Result[T]) error {
	for _, r := range results {
		if r.Err != nil && !errors.Is(r.Err, ErrCellSkipped) {
			return fmt.Errorf("%s: %w", r.Cell, r.Err)
		}
	}
	return nil
}
