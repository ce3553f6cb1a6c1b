// Package partialtor is a from-scratch Go reproduction of "Five Minutes of
// DDoS Brings down Tor: DDoS Attacks on the Tor Directory Protocol and
// Mitigations" (EUROSYS '26).
//
// The simulation models the directory system as four layers, each feeding
// the next:
//
//   - authorities generate the hourly consensus by running one of three
//     protocols over a deterministic discrete-event network simulator
//     (internal/simnet): the current Tor directory protocol v3
//     (internal/dirv3), Luo et al.'s synchronous Dolev-Strong protocol
//     (internal/syncdir), or the paper's partially synchronous protocol —
//     interactive consistency on two-chain HotStuff (internal/core,
//     internal/hotstuff);
//   - directory caches fetch the published consensus with retry/fallback
//     and re-serve it — full documents and consensus diffs — downstream
//     (internal/dircache);
//   - client fleets statistically aggregate 10⁵–10⁷ Tor clients per simnet
//     node (Poisson fetch arrivals, weighted cache selection), so
//     million-user distribution scenarios run in seconds
//     (internal/dircache);
//   - the availability model turns per-period outcomes into the validity
//     windows clients actually experience — fresh one hour, valid three
//     (internal/client).
//
// A pluggable topology layer (internal/topo) optionally places all four
// layers on a planet: regions with placement shares, a region-pair latency
// matrix, per-region bandwidth tiers, and a builtin continental map
// (Continents). Distribution results then break coverage down per region
// with p50/p99 time-to-coverage, fleets can race each fetch against K
// caches (DistributionSpec.RaceK — first response wins, laggards are
// discarded and their bytes accounted), and attack plans can target a
// region by name ("flood the EU mirrors"). A nil Topology keeps the
// historical flat model, bit for bit.
//
// The DDoS adversary (internal/attack) floods either tier: authority plans
// reproduce the paper's five-minute consensus-breaking attack, cache plans
// the "flood the mirrors, not the authorities" family. Beyond floods, a
// CompromisePlan subverts mirrors outright — stale caches re-serving the
// previous epoch, equivocating caches serving an adversary-signed fork —
// and the proposal-239 chain-verifying client path
// (DistributionSpec.VerifyClients) detects both: stale documents are
// rejected, forks become cryptographic fork proofs, and the clients fall
// back to honest caches.
// The tier-aware cost model prices every attack style: the paper's
// $0.074-per-instance authority flood, the far more expensive job of
// flooding thousands of mirrors, and the monthly rent of owning them. The
// evaluation harness (internal/harness) assembles full scenarios across
// all four layers and regenerates every figure and table of the paper.
//
// The experiment API is a composable pipeline:
//
//   - protocols are pluggable drivers behind a registry
//     (internal/harness): a registered variant works in every scenario,
//     sweep and figure generator;
//   - RunE executes one scenario with (result, error) semantics and a
//     context: invalid configuration is an error, not a panic, and a
//     cancelled context aborts cleanly;
//   - Experiment chains the evaluation phases declaratively — Generate →
//     Distribute → Avail — from functional options, unifying single runs,
//     multi-period campaigns and distribution scenarios on one spec;
//   - RunResult.Consensus() returns the agreed document for any protocol,
//     and RunResult.Cause() says from the authorities' Records why one was lost.
//
// Every parameter sweep — the figure generators, the ablations,
// cmd/cachesweep — runs on one grid engine (internal/sweep, re-exported
// here as MustNewSweepGrid/RunSweepParams): named axes spanning a cartesian
// grid, a bounded worker pool, deterministic result ordering (parallel and
// serial runs render byte-identical tables), per-cell error capture, and
// cancellation that keeps every completed cell.
//
// This package is the facade the examples, the commands in cmd/ and
// benchmark/ use, and nothing more: it re-exports the scenario runner, the
// attack model, the distribution tier, the sweep engine and the artifact
// registry, and TestFacadeNamesAreReferenced fails on a name none of them
// mentions. Anything else is one import of an internal package away.
//
// Quick start:
//
//	res, err := partialtor.RunE(ctx, partialtor.Scenario{
//		Protocol: partialtor.ICPS,
//		Relays:   8000,
//	})
//	if err != nil { ... }
//	fmt.Println(res.Success, res.Latency, res.Consensus().NumVotes)
package partialtor

import (
	"context"
	"io"
	"time"

	"partialtor/internal/attack"
	"partialtor/internal/client"
	"partialtor/internal/dircache"
	"partialtor/internal/faults"
	"partialtor/internal/gossip"
	"partialtor/internal/harness"
	"partialtor/internal/obs"
	"partialtor/internal/relay"
	"partialtor/internal/simnet"
	"partialtor/internal/sweep"
	"partialtor/internal/topo"
)

// Protocol selects one of the three directory protocol designs.
type Protocol = harness.Protocol

// The protocols of the paper's Table 1.
const (
	// Current is the deployed Tor directory protocol v3.
	Current = harness.Current
	// Synchronous is Luo et al.'s Dolev-Strong-based protocol.
	Synchronous = harness.Synchronous
	// ICPS is the paper's protocol: interactive consistency under partial
	// synchrony.
	ICPS = harness.ICPS
)

// Scenario configures one protocol run (see harness.Scenario for fields).
type Scenario = harness.Scenario

// RunResult is the protocol-independent outcome of a scenario.
type RunResult = harness.RunResult

// AttackPlan is a DDoS window against a set of nodes in one tier.
type AttackPlan = attack.Plan

// The attackable tiers.
const (
	// TierAuthority targets consensus generation (the default).
	TierAuthority = attack.TierAuthority
	// TierCache targets the distribution tier — "flood the mirrors".
	TierCache = attack.TierCache
)

// DistributionSpec configures the cache/fleet distribution phase.
type DistributionSpec = dircache.Spec

// DistributionResult is the outcome of a distribution phase: coverage
// curve, time-to-target-coverage, per-tier egress, failure counters and —
// under a compromise — the detection metrics (misled clients, stale
// rejections, fork detections, extra fetch cost).
type DistributionResult = dircache.Result

// CompromisePlan is the adversary's cache-compromise campaign: which caches
// misbehave (stale or equivocating), from which consensus period onward.
type CompromisePlan = attack.CompromisePlan

// CompromiseMode selects how a compromised cache misbehaves.
type CompromiseMode = attack.CompromiseMode

// The compromise modes.
const (
	// CompromiseStale keeps re-serving the previous epoch's consensus.
	CompromiseStale = attack.CompromiseStale
	// CompromiseEquivocate serves an adversary-signed fork to a fraction
	// of the client fleets.
	CompromiseEquivocate = attack.CompromiseEquivocate
)

// --- gossip-mesh re-exports ---
//
// The cache-to-cache dissemination layer (internal/gossip) meshes the
// mirror tier: caches that obtain a fresh consensus push its digest to mesh
// peers, peers pull what they miss, and periodic anti-entropy epoch-vector
// exchanges reconcile whatever the rumor left behind — so a single seeded
// mirror revives the whole tier even with every authority flooded offline.
// A nil GossipConfig anywhere keeps the historical star topology, bit for
// bit — the golden corpus enforces it.

// GossipConfig tunes the cache dissemination mesh (fanout, mesh degree,
// seeded caches). The zero value selects the defaults; set
// DistributionSpec.Gossip.
type GossipConfig = gossip.Config

// --- fault-injection re-exports ---
//
// The chaos layer (internal/faults) injects deterministic faults into the
// distribution tier: crash-and-restart windows (optionally region-scoped
// under a topology) and mesh churn — mirrors leaving and rejoining the
// gossip mesh. A slowed or flapping link is a flood: an AttackPlan with a
// residual. Every fault is a seeded simnet event; the same plan under the
// same seed replays byte-identically, and the golden corpus pins a compound
// flood + crash + churn scenario. A nil FaultPlan and nil Backoff anywhere
// keep the historical behavior, bit for bit.

// FaultPlan is a declarative set of faults scheduled against one
// distribution run; set DistributionSpec.Faults.
type FaultPlan = faults.Plan

// FaultSpec is one fault: a kind, a tier, a target set and a window.
type FaultSpec = faults.Fault

// The fault kinds.
const (
	// FaultCrash zeroes the targets' bandwidth for the window and resets
	// their behavioral state (a crash loses in-flight fetches; a restarted
	// cache re-fetches and catches up over the mesh).
	FaultCrash = faults.Crash
	// FaultChurn makes cache targets leave the gossip mesh (and service)
	// for the window and rejoin via anti-entropy afterwards.
	FaultChurn = faults.Churn
)

// RetryBackoff replaces the fleets' fixed retry delay with capped,
// seeded-jitter exponential backoff and an optional per-fleet retry
// budget; set DistributionSpec.Backoff.
type RetryBackoff = faults.Backoff

// WorstMTTR returns the largest MTTR across a distribution result's fault
// recoveries (Never if any fault left the tier stranded, 0 for none).
func WorstMTTR(recoveries []faults.Recovery) time.Duration { return faults.WorstMTTR(recoveries) }

// SpreadTargets returns count target indices spread evenly across
// [first, n) — "crash every third mirror" as a one-liner.
func SpreadTargets(first, n, count int) []int { return faults.SpreadTargets(first, n, count) }

// MidWindowChaos builds the commands' chaos plan for a tier of n caches:
// crashFrac of the mirrors crash over [window/6, window/6+window/4) and
// churnFrac leave the mesh over [window/4, window/2), spread across the tier,
// at least one mirror per positive fraction; nil when both are zero.
func MidWindowChaos(n int, window time.Duration, crashFrac, churnFrac float64) *FaultPlan {
	return faults.MidWindowChaos(n, window, crashFrac, churnFrac)
}

// --- topology re-exports ---
//
// The planet-scale topology layer (internal/topo) places nodes in regions
// and derives deterministic region-pair latencies and per-region bandwidth
// tiers. A nil Topology anywhere keeps the historical flat model, bit for
// bit — the golden corpus enforces it.

// Continents returns the builtin six-region continental topology.
func Continents() *topo.Map { return topo.Continents() }

// TopologyByName resolves a topology flag value: "" and "flat" select the
// flat model (nil), "continents" the builtin continental map.
func TopologyByName(name string) (topo.Topology, error) { return topo.ByName(name) }

// Never marks an event that did not happen (e.g. latency of a failed run).
const Never = simnet.Never

// ResidualUnderDDoS is the bandwidth left to a flooded node (0.5 Mbit/s,
// Jansen et al.).
const ResidualUnderDDoS = attack.ResidualUnderDDoS

// FallbackLatency is the paper's 2100s accounting for a failed lock-step
// run under the five-minute attack.
const FallbackLatency = harness.FallbackLatency

// RunE executes one scenario and returns its outcome; invalid configuration
// (a malformed or mis-tiered attack plan, an unregistered protocol, an
// unsatisfiable distribution spec) is an error, and a cancelled context
// aborts between the pipeline's phases.
func RunE(ctx context.Context, s Scenario) (*RunResult, error) { return harness.RunE(ctx, s) }

// --- experiment pipeline re-exports ---

// ExperimentOption configures an Experiment under construction.
type ExperimentOption = harness.ExperimentOption

// NewExperiment assembles and eagerly validates an experiment from options.
func NewExperiment(opts ...ExperimentOption) (*harness.Experiment, error) {
	return harness.NewExperiment(opts...)
}

// WithScenario sets the base scenario every period runs.
func WithScenario(s Scenario) ExperimentOption { return harness.WithScenario(s) }

// WithPeriods runs n hourly consensus periods and enables the Avail phase.
func WithPeriods(n int) ExperimentOption { return harness.WithPeriods(n) }

// WithAttack applies the plan to every attacked period, routed by tier:
// authority plans throttle consensus generation, cache plans the
// distribution tier.
func WithAttack(p AttackPlan) ExperimentOption { return harness.WithAttack(p) }

// WithAttackSchedule marks which periods run under the attack plan.
func WithAttackSchedule(attacked func(i int) bool) ExperimentOption {
	return harness.WithAttackSchedule(attacked)
}

// WithDistribution adds the Distribute phase to every period.
func WithDistribution(spec DistributionSpec) ExperimentOption {
	return harness.WithDistribution(spec)
}

// WithAvailability adds the Avail phase under the given lifetime policy.
func WithAvailability(p client.Policy) ExperimentOption { return harness.WithAvailability(p) }

// WithChain links successful periods into the proposal-239 hash chain.
func WithChain() ExperimentOption { return harness.WithChain() }

// WithTracer attaches an observability tracer to every phase of every
// distinct run — one per attack flag, shared by the periods that carry it;
// recording never changes results (see the observability re-exports below).
func WithTracer(t Tracer) ExperimentOption { return harness.WithTracer(t) }

// RunDistribution executes one standalone distribution phase: authorities
// publish at the spec's PublishAt, caches fetch with fallback, aggregated
// client fleets drain the population through the caches.
func RunDistribution(s DistributionSpec) (*DistributionResult, error) { return dircache.Run(s) }

// FleetTimeline assembles the end-to-end availability timeline of a
// sequence of consensus periods, one distribution result per period.
func FleetTimeline(p client.Policy, results []*DistributionResult) *client.Timeline {
	return dircache.FleetTimeline(p, results)
}

// DefaultClientPolicy returns the deployed consensus lifetimes.
func DefaultClientPolicy() client.Policy { return client.DefaultPolicy() }

// FiveMinuteOutage is the paper's headline attack: the majority of the
// authorities knocked offline for five minutes.
func FiveMinuteOutage(targets []int) AttackPlan { return attack.FiveMinuteOutage(targets) }

// MajorityTargets returns the canonical target set (5 of 9 authorities).
func MajorityTargets(n int) []int { return attack.MajorityTargets(n) }

// FirstTargets returns the first n node indices — a flood of exactly n
// nodes of a tier.
func FirstTargets(n int) []int { return attack.FirstTargets(n) }

// DefaultCostModel returns the paper's pricing constants.
func DefaultCostModel() attack.CostModel { return attack.DefaultCostModel() }

// AuthorityNames lists the nine live directory authority nicknames.
func AuthorityNames() []string { return append([]string(nil), relay.AuthorityNames...) }

// --- sweep engine re-exports ---
//
// Every sweep in this repository — cmd/cachesweep, the figure generators,
// the ablations — runs on the same grid engine: named axes spanning a
// cartesian grid, a bounded worker pool evaluating one cell per goroutine,
// results ordered by cell rank so parallel and serial runs render
// byte-identical tables, and per-cell error capture so one bad
// configuration costs one cell instead of the sweep.

// SweepCell is one grid point, addressed by axis name.
type SweepCell = sweep.Cell

// SweepResult pairs one cell with the callback's outcome (or captured
// error).
type SweepResult[T any] = sweep.Result[T]

// MustNewSweepGrid assembles a grid from statically known axes; an unnamed,
// empty or duplicate axis panics.
func MustNewSweepGrid(axes ...sweep.Axis) sweep.Grid { return sweep.MustNew(axes...) }

// SweepInts builds an integer axis (relay counts, cache counts, ...).
func SweepInts(name string, vals ...int) sweep.Axis { return sweep.Ints(name, vals...) }

// SweepFloats builds a float axis (bandwidths, residuals, ...).
func SweepFloats(name string, vals ...float64) sweep.Axis { return sweep.Floats(name, vals...) }

// SweepParams configures a sweep run beyond the grid: the worker pool and
// an optional per-cell progress callback (serialized; includes skipped
// cells).
type SweepParams = sweep.Params

// RunSweepParams evaluates fn on every cell of the grid on p.Workers
// goroutines (0 selects all cores, 1 is the serial baseline). Results come
// back in cell-rank order independent of completion order. Once ctx is
// cancelled no new cell starts, completed cells keep their results, and
// never-started cells carry sweep.ErrCellSkipped wrapping the context error.
func RunSweepParams[T any](ctx context.Context, g sweep.Grid, p SweepParams, fn func(context.Context, SweepCell) (T, error)) []SweepResult[T] {
	return sweep.RunParams(ctx, g, p, fn)
}

// SweepFirstErr returns the first genuinely failed cell's error, or nil.
// Cells skipped by cancellation are not failures.
func SweepFirstErr[T any](results []SweepResult[T]) error { return sweep.FirstErr(results) }

// ParseSweepInts parses a comma-separated integer axis flag ("10,20,40"),
// reporting the offending element on error.
func ParseSweepInts(s string) ([]int, error) { return sweep.ParseInts(s) }

// ParseSweepCounts is ParseSweepInts plus a values-must-be->=-1 check, for
// axes of counts (caches, clients, targets).
func ParseSweepCounts(s string) ([]int, error) { return sweep.ParsePositiveInts(s) }

// ParseSweepFloats parses a comma-separated float axis flag ("0.5,1,2.5");
// a NaN or infinite element is an error.
func ParseSweepFloats(s string) ([]float64, error) { return sweep.ParseFloats(s) }

// --- observability re-exports ---
//
// The tracing layer (internal/obs) sees inside a run without changing it:
// a nil Tracer costs one branch per event site, and a recording tracer
// never perturbs the simulation — golden digests are byte-identical with
// tracing off and on. Events flow from all four layers: the simnet kernel
// (transfers, capacity changes, sampled queue depth and utilization), the
// protocol drivers (phases, votes, timeouts), the distribution tier (cache
// fetches, fallbacks, serves, fleet coverage) and the attack machinery
// (flood onsets and offsets).

// Tracer receives observability events; nil means tracing is off.
type Tracer = obs.Tracer

// TraceRecorder is a bounded in-memory event sink that can replay to JSONL
// or a Chrome trace.
type TraceRecorder = obs.Recorder

// NewTraceRecorder returns a recorder keeping the last `capacity` events
// (0 selects the default).
func NewTraceRecorder(capacity int) *TraceRecorder { return obs.NewRecorder(capacity) }

// TraceTee fans events out to several sinks.
func TraceTee(sinks ...Tracer) Tracer { return obs.Tee(sinks...) }

// WriteTraceFile creates the file at path, fills it through write — a
// recorder's WriteChromeTrace (load the file in chrome://tracing or Perfetto)
// or its WriteJSONL — and reports the first error of create, write and close.
func WriteTraceFile(path string, write func(io.Writer) error) error {
	return obs.WriteFile(path, write)
}

// NewDetector returns the Danner-style flood detector, a Tracer: rolling
// per-node baselines over the kernel's queue-depth and throughput samples,
// flagging sustained deviations and scoring them against the attack onsets it
// observed.
func NewDetector() *obs.Detector { return obs.NewDetector() }

// FirstDetection returns the earliest detection (ok reports whether one
// exists).
func FirstDetection(dets []obs.Detection) (obs.Detection, bool) { return obs.First(dets) }

// --- evaluation re-exports ---
//
// The paper's artifacts — Figures 1, 6, 7, 10, 11, Tables 1–2, the §4.3
// cost, the regional, gossip and ablation extensions — are one registry:
// Artifacts lists them by name, each regenerable at paper scale or from its
// quick preset, and cmd/benchtables is a loop over it. The generators
// re-exported individually below are the ones the examples call with their
// own parameters. Every generator that simulates takes a context and returns
// an error: invalid configuration fails fast, and cancelling the context
// aborts the underlying sweep promptly (the generator then reports the
// cancellation as its error; drive RunSweepParams directly to keep completed
// cells).

// Artifacts lists every regenerable artifact of the evaluation in
// presentation order; Run(ctx, quick, sweepParams) returns its rendered
// text.
func Artifacts() []harness.Artifact { return harness.Artifacts() }

// Figure1Params scales the Figure 1 run.
type Figure1Params = harness.Figure1Params

// Figure1 renders an authority's log under the headline attack.
func Figure1(ctx context.Context, p Figure1Params) (*harness.Figure1Result, error) {
	return harness.Figure1(ctx, p)
}

// GossipParams scales the gossip-outage experiment.
type GossipParams = harness.GossipParams

// GossipTable compares the stranded no-gossip baseline against cache meshes
// of increasing fanout under a total authority flood with one seeded
// mirror, and prices partitioning each mesh.
func GossipTable(ctx context.Context, p GossipParams, sp SweepParams) (*harness.Table[harness.GossipRow], error) {
	return harness.GossipTable(ctx, p, sp)
}

// CostTable evaluates the attack cost ($0.074/instance, $53.28/month).
func CostTable() *harness.CostResult { return harness.CostTable() }
