// Package sweep is the generic grid engine every parameter sweep in this
// repository runs on: the paper's headline results are sweep tables (attack
// duration × targets × residual, §4.3, Figures 7/10/11), and a reproduction
// lives or dies on how dense a parameter grid it can afford.
//
// # Role in the pipeline
//
// Every figure generator and ablation in internal/harness, plus
// cmd/cachesweep and cmd/benchtables, is a sweep over
// scenario cells; each cell typically runs one harness.Experiment or
// dircache distribution. The facade re-exports the engine as
// partialtor.MustNewSweepGrid / partialtor.RunSweepParams with axis
// constructors (SweepInts, SweepFloats) and flag
// parsers (ParseSweepCounts, ParseSweepFloats) for the cmd tools.
//
// # Execution model
//
// A Grid is the cartesian product of named Axes, enumerated row-major (the
// first axis varies slowest, exactly like the nested loops it replaces).
// RunParams evaluates a callback on every cell with a bounded worker pool
// and returns the results ordered by cell rank — independent of completion
// order, so a parallel sweep renders byte-identically to a serial one.
// Failures are captured per cell (including recovered panics) instead of
// aborting the sweep: one bad configuration costs one cell, not the whole
// table. A cancelled context stops dispatching new cells while keeping every
// completed cell's result, so an interrupted 10k-cell sweep hands back the
// work it already did.
//
// # Error accounting
//
// A cell ends in exactly one of three states: a value, a genuine failure
// (its Err), or skipped by cancellation (Err wraps ErrCellSkipped). FirstErr
// reports only genuine failures; with the context's own error a caller
// distinguishes "failed", "cancelled but clean" and "complete" without
// probing each cell.
package sweep
