package sweep

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestGridEnumeratesRowMajor(t *testing.T) {
	g := MustNew(
		Ints("a", 1, 2),
		Floats("b", 0.5, 1.5, 2.5),
		Of("c", "x", "y"),
	)
	if g.Size() != 12 {
		t.Fatalf("size=%d, want 12", g.Size())
	}
	// The enumeration must match the nested loops the engine replaces:
	// first axis slowest.
	var want []string
	for _, a := range []int{1, 2} {
		for _, b := range []float64{0.5, 1.5, 2.5} {
			for _, c := range []string{"x", "y"} {
				want = append(want, fmt.Sprintf("a=%d b=%g c=%s", a, b, c))
			}
		}
	}
	for rank := 0; rank < g.Size(); rank++ {
		cell := g.Cell(rank)
		if cell.String() != want[rank] {
			t.Fatalf("cell %d = %q, want %q", rank, cell, want[rank])
		}
		if cell.Rank != rank {
			t.Fatalf("cell %d reports rank %d", rank, cell.Rank)
		}
	}
}

func TestCellAccessors(t *testing.T) {
	g := MustNew(
		Ints("relays", 100),
		Floats("mbit", 2.5),
		Durations("window", 5*time.Minute),
		Of("attacked", true),
	)
	c := g.Cell(0)
	if c.Int("relays") != 100 || c.Float("mbit") != 2.5 ||
		c.Duration("window") != 5*time.Minute || c.Value("attacked") != true {
		t.Fatalf("accessors wrong: %s", c)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown axis name did not panic")
		}
	}()
	c.Value("nope")
}

func TestNewRejectsMalformedGrids(t *testing.T) {
	cases := [][]Axis{
		{{Name: "", Values: []any{1}}},
		{{Name: "a"}},
		{Ints("a", 1), Ints("a", 2)},
	}
	for i, axes := range cases {
		if _, err := New(axes...); err == nil {
			t.Fatalf("case %d: malformed grid accepted", i)
		}
	}
	if _, err := New(); err != nil {
		t.Fatalf("empty grid rejected: %v", err)
	}
	if g := MustNew(); g.Size() != 1 {
		t.Fatalf("empty grid size %d, want 1 (a single empty cell)", MustNew().Size())
	}
}

// TestParallelMatchesSerial is the engine's core guarantee: an 8-worker run
// of a deterministic callback produces results identical — same values, same
// order — to the serial baseline, independent of completion order. The
// callback sleeps inversely to rank so late cells finish first.
func TestParallelMatchesSerial(t *testing.T) {
	g := MustNew(Ints("x", 0, 1, 2, 3), Ints("y", 0, 1, 2, 3, 4))
	fn := func(_ context.Context, c Cell) (string, error) {
		// Finish in roughly reverse rank order to exercise reordering.
		time.Sleep(time.Duration(g.Size()-c.Rank) * time.Millisecond)
		if c.Int("x") == 2 && c.Int("y") == 3 {
			return "", fmt.Errorf("boom at %s", c)
		}
		return fmt.Sprintf("%d*%d", c.Int("x"), c.Int("y")), nil
	}
	serial := RunParams(context.Background(), g, Params{Workers: 1}, fn)
	parallel := RunParams(context.Background(), g, Params{Workers: 8}, fn)
	if len(serial) != g.Size() || len(parallel) != g.Size() {
		t.Fatalf("lengths %d/%d, want %d", len(serial), len(parallel), g.Size())
	}
	for i := range serial {
		if serial[i].Cell.Rank != i || parallel[i].Cell.Rank != i {
			t.Fatalf("result %d out of rank order", i)
		}
		if serial[i].Value != parallel[i].Value {
			t.Fatalf("cell %d diverged: %q vs %q", i, serial[i].Value, parallel[i].Value)
		}
		se, pe := serial[i].Err, parallel[i].Err
		if (se == nil) != (pe == nil) || (se != nil && se.Error() != pe.Error()) {
			t.Fatalf("cell %d errors diverged: %v vs %v", i, se, pe)
		}
	}
}

func TestPerCellErrorCapture(t *testing.T) {
	g := MustNew(Ints("i", 0, 1, 2, 3))
	sentinel := errors.New("bad cell")
	results := RunParams(context.Background(), g, Params{Workers: 4}, func(_ context.Context, c Cell) (int, error) {
		switch c.Int("i") {
		case 1:
			return 0, sentinel
		case 2:
			panic("cell exploded")
		}
		return 10 * c.Int("i"), nil
	})
	if results[0].Err != nil || results[3].Err != nil {
		t.Fatalf("healthy cells failed: %v %v", results[0].Err, results[3].Err)
	}
	if results[0].Value != 0 || results[3].Value != 30 {
		t.Fatalf("healthy values wrong: %d %d", results[0].Value, results[3].Value)
	}
	if !errors.Is(results[1].Err, sentinel) {
		t.Fatalf("error cell: %v", results[1].Err)
	}
	// A panicking cell fails alone, with the panic and coordinates captured.
	if results[2].Err == nil || !strings.Contains(results[2].Err.Error(), "cell exploded") ||
		!strings.Contains(results[2].Err.Error(), "i=2") {
		t.Fatalf("panic cell: %v", results[2].Err)
	}
	if err := FirstErr(results); err == nil || !strings.Contains(err.Error(), "i=1") {
		t.Fatalf("FirstErr = %v, want the rank-1 failure", err)
	}
	if err := FirstErr(results[:1]); err != nil {
		t.Fatalf("FirstErr on clean prefix: %v", err)
	}
}

// TestWorkerPoolActuallyFansOut asserts the pool runs cells concurrently:
// with 8 workers and cells that block until at least 4 run at once, the
// sweep can only finish if the pool really fans out.
func TestWorkerPoolActuallyFansOut(t *testing.T) {
	g := MustNew(Ints("i", 0, 1, 2, 3, 4, 5, 6, 7))
	var running, peak atomic.Int32
	results := RunParams(context.Background(), g, Params{Workers: 8}, func(_ context.Context, c Cell) (int, error) {
		now := running.Add(1)
		defer running.Add(-1)
		for {
			old := peak.Load()
			if now <= old || peak.CompareAndSwap(old, now) {
				break
			}
		}
		time.Sleep(20 * time.Millisecond)
		return 0, nil
	})
	if err := FirstErr(results); err != nil {
		t.Fatal(err)
	}
	// On a single-core box the scheduler still interleaves the sleeps, so
	// at least two cells must have been in flight together.
	if peak.Load() < 2 {
		t.Fatalf("peak concurrency %d, want >= 2", peak.Load())
	}
}

// TestRunCtxCancellationKeepsCompletedCells is the cancellation contract:
// cells finished before the context died keep their results, and every cell
// the sweep never started carries ErrCellSkipped wrapping the context error.
func TestRunCtxCancellationKeepsCompletedCells(t *testing.T) {
	g := MustNew(Ints("i", 0, 1, 2, 3, 4, 5, 6, 7))
	ctx, cancel := context.WithCancel(context.Background())
	results := RunParams(ctx, g, Params{Workers: 1}, func(ctx context.Context, c Cell) (int, error) {
		if c.Int("i") == 2 {
			cancel() // die mid-sweep, with cells 0-2 complete
		}
		return 10 * c.Int("i"), nil
	})
	if len(results) != 8 {
		t.Fatalf("results=%d", len(results))
	}
	for i := 0; i <= 2; i++ {
		if results[i].Err != nil || results[i].Value != 10*i {
			t.Fatalf("completed cell %d lost: value=%d err=%v", i, results[i].Value, results[i].Err)
		}
	}
	skipped := 0
	for i := 3; i < 8; i++ {
		r := results[i]
		if r.Err == nil {
			t.Fatalf("cell %d ran after cancellation", i)
		}
		if !errors.Is(r.Err, ErrCellSkipped) || !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("cell %d error %v, want ErrCellSkipped wrapping context.Canceled", i, r.Err)
		}
		skipped++
	}
	if skipped == 0 {
		t.Fatal("cancellation skipped nothing")
	}
}

// TestRunCtxPreCancelled: a context dead on arrival runs nothing.
func TestRunCtxPreCancelled(t *testing.T) {
	g := MustNew(Ints("i", 0, 1, 2))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int32
	results := RunParams(ctx, g, Params{Workers: 4}, func(context.Context, Cell) (int, error) {
		ran.Add(1)
		return 0, nil
	})
	// The unbuffered dispatch channel may still hand out a cell or two
	// before the select observes Done; the guarantee is that skipped cells
	// are marked, in rank order, and nothing is lost.
	for _, r := range results {
		if r.Err == nil && ran.Load() == 0 {
			t.Fatalf("cell %s reported success without running", r.Cell)
		}
	}
	if int(ran.Load()) == g.Size() {
		t.Fatal("pre-cancelled context ran the whole sweep")
	}
}

// TestRunCtxPassesContextToCells: the cell callback receives the sweep's
// context so a long-running cell can abort early.
func TestRunCtxPassesContextToCells(t *testing.T) {
	type ctxKey struct{}
	ctx := context.WithValue(context.Background(), ctxKey{}, "payload")
	g := MustNew(Ints("i", 1))
	results := RunParams(ctx, g, Params{Workers: 1}, func(ctx context.Context, c Cell) (string, error) {
		v, _ := ctx.Value(ctxKey{}).(string)
		return v, nil
	})
	if results[0].Value != "payload" {
		t.Fatalf("cell saw %q", results[0].Value)
	}
}

func TestRunDefaultsWorkers(t *testing.T) {
	g := MustNew(Ints("i", 1, 2, 3))
	results := RunParams(context.Background(), g, Params{Workers: 0}, func(_ context.Context, c Cell) (int, error) { return c.Int("i") * 2, nil })
	for i, r := range results {
		if r.Value != (i+1)*2 {
			t.Fatalf("cell %d value %d", i, r.Value)
		}
	}
}

func TestParseIntsAndFloats(t *testing.T) {
	ints, err := ParseInts(" 10, 20,40")
	if err != nil || len(ints) != 3 || ints[0] != 10 || ints[2] != 40 {
		t.Fatalf("ParseInts: %v %v", ints, err)
	}
	// The offending element is named — "10,,40" used to surface as a bare
	// strconv error with no hint which element was empty.
	if _, err := ParseInts("10,,40"); err == nil || !strings.Contains(err.Error(), `element 2 ("")`) {
		t.Fatalf("ParseInts empty element: %v", err)
	}
	floats, err := ParseFloats("-1,0.5,2.5e6")
	if err != nil || len(floats) != 3 || floats[0] != -1 || floats[2] != 2.5e6 {
		t.Fatalf("ParseFloats: %v %v", floats, err)
	}
	if _, err := ParseFloats("1,x"); err == nil || !strings.Contains(err.Error(), `element 2 ("x")`) {
		t.Fatalf("ParseFloats bad element: %v", err)
	}
	if _, err := ParseFloats("1,NaN"); err == nil || !strings.Contains(err.Error(), `element 2 ("NaN")`) {
		t.Fatalf("ParseFloats non-finite element: %v", err)
	}
}

func TestParsePositiveInts(t *testing.T) {
	if got, err := ParsePositiveInts("5,10"); err != nil || len(got) != 2 {
		t.Fatalf("ParsePositiveInts: %v %v", got, err)
	}
	for _, bad := range []string{"0", "5,-1", "5,,10"} {
		if _, err := ParsePositiveInts(bad); err == nil {
			t.Fatalf("ParsePositiveInts(%q) accepted", bad)
		}
	}
}

// skipped counts the cells a cancelled context kept from running.
func skipped(results []Result[int]) int {
	n := 0
	for _, r := range results {
		if errors.Is(r.Err, ErrCellSkipped) {
			n++
		}
	}
	return n
}

// TestFirstErrSkipsCancelledCells pins the FirstErr contract: skipped cells
// are not failures. A sweep cancelled mid-flight with no genuine failure
// reports a nil FirstErr (the caller that cancelled already knows), while a
// real failure surfaces even when skipped cells rank before it.
func TestFirstErrSkipsCancelledCells(t *testing.T) {
	g := MustNew(Ints("i", 0, 1, 2, 3))
	ctx, cancel := context.WithCancel(context.Background())
	clean := RunParams(ctx, g, Params{Workers: 1}, func(_ context.Context, c Cell) (int, error) {
		if c.Int("i") == 1 {
			cancel()
		}
		return c.Int("i"), nil
	})
	if n := skipped(clean); n == 0 {
		t.Fatal("cancellation skipped nothing — the test lost its premise")
	}
	if err := FirstErr(clean); err != nil {
		t.Fatalf("cancelled-but-clean sweep reports failure: %v", err)
	}

	// A genuine failure is reported even with skipped cells ranked earlier.
	sentinel := errors.New("cell failed for real")
	ctx2, cancel2 := context.WithCancel(context.Background())
	mixed := RunParams(ctx2, g, Params{Workers: 1}, func(_ context.Context, c Cell) (int, error) {
		if c.Int("i") == 1 {
			cancel2()
			return 0, sentinel
		}
		return c.Int("i"), nil
	})
	if err := FirstErr(mixed); !errors.Is(err, sentinel) {
		t.Fatalf("FirstErr = %v, want the genuine failure", err)
	}
	// Completeness accounting: exactly the never-started cells are skipped.
	if n := skipped(mixed); n != 2 {
		t.Fatalf("skipped = %d, want 2 (cells 2 and 3)", n)
	}
	if skipped(clean[:2]) != 0 {
		t.Fatal("completed prefix miscounted as skipped")
	}
}

func TestOnCellReportsEveryCell(t *testing.T) {
	g := MustNew(Ints("i", 0, 1, 2, 3, 4, 5, 6, 7, 8, 9))
	boom := errors.New("boom")
	var calls []int
	var errs int
	last := 0
	results := RunParams(context.Background(), g, Params{
		Workers: 4,
		OnCell: func(done, total int, cellErr error) {
			// The callback contract: serialized, done strictly increasing,
			// total constant.
			if total != g.Size() {
				panic(fmt.Sprintf("total=%d", total))
			}
			if done != last+1 {
				panic(fmt.Sprintf("done jumped %d -> %d", last, done))
			}
			last = done
			calls = append(calls, done)
			if cellErr != nil {
				errs++
			}
		},
	}, func(_ context.Context, c Cell) (int, error) {
		if c.Int("i")%3 == 0 {
			return 0, boom
		}
		return c.Int("i"), nil
	})
	if len(results) != g.Size() {
		t.Fatalf("results=%d", len(results))
	}
	if len(calls) != g.Size() {
		t.Fatalf("OnCell fired %d times, want %d", len(calls), g.Size())
	}
	if errs != 4 {
		t.Fatalf("OnCell saw %d errors, want 4", errs)
	}
}

func TestOnCellCountsSkippedCells(t *testing.T) {
	// Cancellation mid-sweep: every cell still reports exactly once, the
	// skipped ones with ErrCellSkipped, so a progress meter always reaches
	// total and never hangs at n-1.
	g := MustNew(Ints("i", 0, 1, 2, 3, 4, 5, 6, 7))
	ctx, cancel := context.WithCancel(context.Background())
	var fired, skipped atomic.Int32
	RunParams(ctx, g, Params{
		Workers: 1,
		OnCell: func(done, total int, cellErr error) {
			fired.Add(1)
			if errors.Is(cellErr, ErrCellSkipped) {
				skipped.Add(1)
			}
		},
	}, func(_ context.Context, c Cell) (int, error) {
		if c.Int("i") == 2 {
			cancel()
		}
		return 0, nil
	})
	if int(fired.Load()) != g.Size() {
		t.Fatalf("OnCell fired %d times, want %d (skipped cells must report too)", fired.Load(), g.Size())
	}
	if skipped.Load() == 0 {
		t.Fatal("no skipped cells reported despite mid-sweep cancellation")
	}
}
