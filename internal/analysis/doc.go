// Package analysis is detlint: a static-analysis suite that enforces the
// repo's determinism and hot-path invariants at compile time.
//
// The simulator's core promise is that a run is a pure function of its
// seed — the golden corpus pins byte-identical outputs, and the perf
// baselines pin AllocsPerRun==0 on the kernel paths. Those are dynamic
// checks: they catch a violation only when a test happens to execute it.
// This package is the static half of the contract. Five analyzers encode
// the invariants the codebase has already paid to learn:
//
//   - maporder flags `for … range` over a map wherever iteration order can
//     leak into output — the exact shape of both map-order bugs the golden
//     corpus flushed out (ICPS endorsement subsets, hotstuff TC assembly).
//     The collect-and-sort idiom and commutative integer accumulation are
//     recognized as safe.
//   - wallclock forbids time.Now/Since/Sleep and global math/rand draws in
//     the simulation packages; the simnet virtual clock and seeded
//     *rand.Rand instances are the only sanctioned sources.
//   - hotpath enforces the allocation discipline (no closures, fmt,
//     map/slice literals, the address of a composite literal, new/make,
//     string concatenation or interface boxing) on functions annotated
//     //detlint:hotpath: the event heap, the pipe fluid model, the transit
//     path, the fleet tick and the vote renderers.
//   - tracerguard requires direct obs.Tracer calls to be dominated by a
//     receiver nil check, keeping tracing zero-cost when off.
//   - frozendoc forbids writing a vote.Document, vote.Consensus or
//     vote.View field, anything reached through one, or a whole document
//     through its pointer, outside internal/vote (a local fresh from
//     vote.NewDocument excepted): their size and digest are fixed once, the
//     memos key on them, and a consensus, like a vote's listings, is shared
//     by every run on its inputs entry.
//
// A finding is suppressed by a waiver, `//detlint:<analyzer> ok(<reason>)`,
// on the flagged line or the line above; the reason is mandatory, and
// findings in _test.go files are never reported.
//
// The suite runs as part of `go test ./...`: the root package's TestDetlint
// hands every package of the module to RunAnalyzers, over the same
// type-checked tree the exported-field guard reads, and fails on any
// finding.
//
// The Analyzer/Pass shape deliberately mirrors golang.org/x/tools/go/
// analysis so the suite could migrate onto the upstream framework
// wholesale; until that dependency is available the package is a
// dependency-free reimplementation of the subset it needs.
package analysis
