// Package harness reproduces the paper's evaluation: it assembles full
// scenarios (authority set, synthetic relay populations, vote documents,
// network shape, attack plans), runs the directory protocols on the
// simulator, and regenerates every figure and table of the paper
// (Figures 1, 6, 7, 10, 11; Tables 1, 2; the §4.3 cost analysis).
//
// The package is organized as a composable experiment pipeline:
//
//   - protocols are pluggable Drivers behind a registry (driver.go) — the
//     three paper protocols are just the builtin registrations, and a new
//     variant joins every scenario and sweep via NewProtocol;
//   - RunE executes one scenario with (result, error) semantics: invalid
//     configuration comes back as an error instead of a panic, so a bad
//     cell costs one row of a 10k-cell sweep, never the sweep;
//   - Experiment (experiment.go) chains the phases declaratively —
//     Generate → Distribute → Avail — unifying single runs, multi-period
//     campaigns and distribution scenarios on one spec: eight options, and
//     everything about the distribution tier (topology, gossip, faults,
//     backoff, compromise, verification) is a field of the one
//     dircache.Spec handed to WithDistribution.
//
// The figure/table layer is one registry and one helper (artifacts.go):
// Artifacts lists every artifact by name with Run(ctx, quick, sweep.Params),
// and each artifact's own file holds only its Params, its paper-scale and
// quick presets side by side, its cell function and its column list. Every
// sweep artifact runs through sweepTable on the internal/sweep grid engine:
// the parameter grid (relays × bandwidth × protocol, entry sizes, Δ, ...)
// fans out over a bounded worker pool — Inputs is concurrency-safe, so
// cells share the cached multi-megabyte document sets — and the typed rows
// come back in cell-rank order, so a parallel sweep renders the exact bytes
// the serial nested loops used to produce. Generators take the caller's
// sweep.Params (Workers: 0 = all cores, 1 = the serial baseline; OnCell for
// progress) and a context: cancellation stops the sweep promptly and
// surfaces as the generator's error (sweep.RunParams, underneath, keeps
// completed cells for callers that drive it directly).
package harness

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"partialtor/internal/attack"
	"partialtor/internal/dircache"
	"partialtor/internal/dirv3"
	"partialtor/internal/faults"
	"partialtor/internal/obs"
	"partialtor/internal/relay"
	"partialtor/internal/sig"
	"partialtor/internal/simnet"
	"partialtor/internal/topo"
	"partialtor/internal/vote"
)

// Protocol selects which directory protocol a scenario runs. Each value
// maps to a registered Driver; the constants below are the builtins, and
// NewProtocol mints values for out-of-tree variants.
type Protocol int

// The three protocols the paper compares (Table 1).
const (
	// Current is the deployed Tor directory protocol v3.
	Current Protocol = iota
	// Synchronous is Luo et al.'s Dolev-Strong-based protocol.
	Synchronous
	// ICPS is this paper's protocol (interactive consistency under
	// partial synchrony).
	ICPS
)

func (p Protocol) String() string {
	if name := driverName(p); name != "" {
		return name
	}
	return fmt.Sprintf("Protocol(%d)", int(p))
}

// DefaultBandwidth is the estimated authority link capacity (§4.3).
const DefaultBandwidth = 250e6

// FallbackLatency is the paper's accounting for a failed lock-step run
// under the five-minute attack (Figure 11): 25 minutes until the next
// hourly run plus the 10-minute protocol.
const FallbackLatency = 2100 * time.Second

// Scenario describes one protocol run at paper scale.
type Scenario struct {
	Protocol Protocol
	// N is the number of authorities (default 9).
	N int
	// Relays sizes the synthetic population (and thus the vote documents).
	Relays int
	// EntryPadding is the calibrated per-relay entry size; <0 selects
	// vote.DefaultEntryPadding, 0 disables padding.
	EntryPadding int
	// Bandwidth is the uniform authority access capacity in bits/s
	// (default DefaultBandwidth).
	Bandwidth float64
	// Round is the lock-step round length for the baselines (default
	// 150s). ICPS ignores it.
	Round time.Duration
	// FetchTimeout is dirv3's per-peer give-up delay (default 30s).
	FetchTimeout time.Duration
	// BaseTimeout is the ICPS pacemaker base timeout (default 10s).
	BaseTimeout time.Duration
	// Attack, if non-nil, throttles its targets during its window. It must
	// be an authority-tier plan: RunE returns an error on a cache-tier or
	// otherwise invalid plan (cache plans belong in Distribution.Attacks).
	Attack *attack.Plan
	// Distribution, if non-nil, runs the dircache distribution phase after
	// the protocol run: the generated consensus propagates through a cache
	// tier to aggregated client fleets. The spec's PublishAt, DocBytes and
	// Seed default to the protocol run's outcome (latency, consensus size,
	// scenario seed) when left zero, and Attack is carried over into the
	// spec's Attacks unless it already holds an authority-tier plan.
	Distribution *dircache.Spec
	// Topology, if non-nil, places the authorities in regions and gives the
	// protocol network region-pair latencies and region-scaled bandwidth
	// (see internal/topo). It carries over into the distribution phase
	// unless Distribution.Topology is set explicitly. Nil keeps the
	// historical flat model, bit for bit.
	Topology topo.Topology
	// Seed drives all randomness.
	Seed int64
	// Tracer receives the run's observability events (nil = tracing off).
	// The protocol network's events carry the "consensus" layer, the
	// distribution phase's the "dist" layer. Recording never perturbs the
	// simulation — results are bit-identical with and without a tracer.
	// When the tracer derives detections (obs.Detector, or an obs.Tee
	// containing one), RunE surfaces them as RunResult.Detections.
	Tracer obs.Tracer
}

func (s Scenario) withDefaults() Scenario {
	if s.N == 0 {
		s.N = 9
	}
	if s.Relays == 0 {
		s.Relays = 8000
	}
	if s.EntryPadding < 0 {
		s.EntryPadding = vote.DefaultEntryPadding
	}
	if s.Bandwidth == 0 {
		s.Bandwidth = DefaultBandwidth
	}
	if s.Round == 0 {
		s.Round = dirv3.DefaultRound
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	return s
}

// RunResult is the protocol-independent outcome of one scenario.
type RunResult struct {
	Success bool
	// Latency is the paper's §6.2 metric: network time to a consensus
	// document (simnet.Never on failure).
	Latency time.Duration
	// DoneAt is the absolute completion instant (ICPS only; Never else).
	DoneAt time.Duration
	// Transport accounting.
	BytesSent int64
	Messages  int64
	// Net allows callers (e.g. Figure 1) to read authority logs.
	Net *simnet.Network
	// Distribution is the outcome of the cache/fleet phase (nil unless the
	// scenario requested one).
	Distribution *dircache.Result
	// Protocol-specific result for detailed inspection.
	Detail any
	// Detections are the attack onsets the scenario's tracer flagged (set
	// when Scenario.Tracer is an obs.DetectionSource; nil otherwise).
	Detections []obs.Detection

	// consensus is the agreed document the driver extracted; see Consensus.
	consensus *vote.Consensus
}

// Consensus returns the agreed consensus document of a successful run, or
// nil. Every driver reports its consensus through Outcome, so this accessor
// is protocol-independent — no type switch on Detail required.
func (r *RunResult) Consensus() *vote.Consensus { return r.consensus }

// inputsCache avoids rebuilding a scenario's keys and sealed votes for every
// run on the same (authorities, relays, padding, seed): sweeps vary bandwidth,
// round length or attack at a fixed relay count, and the benchmark's ops
// repeat their scenarios.
type inputsKey struct {
	n, relays, padding int
	seed               int64
}

// inputsEntry memoizes one key's build; the sync.Once lets concurrent sweeps
// build different keys in parallel while building each key exactly once.
type inputsEntry struct {
	once sync.Once
	keys []*sig.KeyPair
	docs []*vote.Document
}

var inputsCache struct {
	mu sync.Mutex
	m  map[inputsKey]*inputsEntry
}

// inputsCacheLimit bounds the cache. An entry is nine keys and nine sealed
// votes, which keep their relay views and not their encodings: 0.4 MB at 300
// relays and 14 MB at the paper's 10 000, so a full cache stays near 110 MB at
// paper scale. The figure generators sweep Relays over ~10 values, so a small
// cap keeps a sweep's working set without letting a long-lived process
// accumulate every combination it ever ran.
const inputsCacheLimit = 8

// Inputs builds (and caches) the authority keys and vote documents for a
// scenario. It is safe for concurrent use, so sweeps may run scenarios in
// parallel; the expensive build happens outside the cache lock, and each
// distinct key is built exactly once while it stays cached.
func Inputs(s Scenario) ([]*sig.KeyPair, []*vote.Document) {
	s = s.withDefaults()
	key := inputsKey{n: s.N, relays: s.Relays, padding: s.EntryPadding, seed: s.Seed}
	inputsCache.mu.Lock()
	if inputsCache.m == nil {
		inputsCache.m = make(map[inputsKey]*inputsEntry)
	}
	e, ok := inputsCache.m[key]
	if !ok {
		if len(inputsCache.m) >= inputsCacheLimit {
			// Evict an arbitrary entry; callers mid-build hold their own
			// references, so eviction only costs a potential rebuild.
			//detlint:maporder ok(eviction victim is deliberately arbitrary; cache contents never reach simulation outputs)
			for k := range inputsCache.m {
				delete(inputsCache.m, k)
				break
			}
		}
		e = &inputsEntry{}
		inputsCache.m[key] = e
	}
	inputsCache.mu.Unlock()
	e.once.Do(func() {
		e.keys = sig.Authorities(s.Seed, s.N)
		pop := relay.Population(s.Relays, s.Seed)
		e.docs = make([]*vote.Document, s.N)
		for i, k := range e.keys {
			view := relay.View(pop, i, s.Seed)
			name := fmt.Sprintf("auth%d", i)
			if i < len(relay.AuthorityNames) {
				name = relay.AuthorityNames[i]
			}
			d := vote.NewDocument(i, name, k.Fingerprint, 1, view)
			d.EntryPadding = s.EntryPadding
			e.docs[i] = d
			// Seal here, once per key: every run on this key sizes and
			// signs this vote by its size and digest, and concurrent sweep
			// cells may only read a document that is already frozen.
			_ = d.Digest()
		}
	})
	return e.keys, e.docs
}

// buildNetwork wires an n-node network with the scenario's bandwidth,
// topology placement and attack plan applied. The returned regions slice is
// the authorities' placement (all zero under the flat model).
func buildNetwork(s Scenario) (*simnet.Network, []*simnet.Profile, []*simnet.Profile, []topo.Region, error) {
	net := simnet.New(simnet.Config{Seed: s.Seed, Overhead: 128, Topology: s.Topology})
	tracer := obs.WithLayer(s.Tracer, "consensus")
	net.SetObs(tracer)
	var floods []attack.Plan
	if s.Attack != nil {
		floods = []attack.Plan{*s.Attack}
	}
	sched, err := faults.Compile(s.Topology, [2]int{s.N}, floods, nil, tracer)
	if err != nil {
		return nil, nil, nil, nil, fmt.Errorf("harness: %w", err)
	}
	ups := make([]*simnet.Profile, s.N)
	downs := make([]*simnet.Profile, s.N)
	regions := make([]topo.Region, s.N)
	if s.Topology != nil {
		regions = topo.PlaceTier(s.Topology, s.N)
	}
	for i := 0; i < s.N; i++ {
		bw := s.Bandwidth
		if s.Topology != nil {
			bw = s.Topology.Bandwidth(regions[i], bw)
		}
		ups[i] = simnet.NewProfile(bw)
		downs[i] = simnet.NewProfile(bw)
		sched.Throttle(attack.TierAuthority, i, ups[i], downs[i])
	}
	return net, ups, downs, regions, nil
}

// validateAuthorityAttack is the single validated path for an authority-tier
// plan against a tier of n authorities placed on t — the protocol phase and
// the distribution carry-over both check through here, so the bounds rule
// cannot drift between the two.
func validateAuthorityAttack(p *attack.Plan, n int, t topo.Topology) error {
	if err := p.Validate(); err != nil {
		return fmt.Errorf("harness: %w", err)
	}
	if p.Tier != attack.TierAuthority {
		return fmt.Errorf("harness: Scenario.Attack must be an authority-tier plan; cache plans belong in Distribution.Attacks")
	}
	if err := attack.CheckScope(p.Tier, p.Targets, p.TargetRegion, n, t); err != nil {
		return fmt.Errorf("harness: attack: %w", err)
	}
	return nil
}

// validate rejects scenarios RunE cannot execute. The scenario must already
// carry its defaults.
func (s Scenario) validate() error {
	if s.N < 1 {
		return fmt.Errorf("harness: %d authorities: need at least one", s.N)
	}
	if s.Relays < 0 {
		return fmt.Errorf("harness: %d relays: the count cannot be negative", s.Relays)
	}
	if !(s.Bandwidth > 0 && s.Bandwidth <= math.MaxFloat64) { // NaN fails every comparison
		return fmt.Errorf("harness: bandwidth %g bit/s is not positive and finite", s.Bandwidth)
	}
	if s.Attack != nil {
		// A malformed or mis-tiered plan is a configuration bug: silently
		// running the healthy network would hand back wrong experiment data.
		if err := validateAuthorityAttack(s.Attack, s.N, s.Topology); err != nil {
			return err
		}
	}
	return nil
}

// RunE executes one scenario. Invalid configuration — a malformed or
// mis-tiered attack plan, an unregistered protocol, an unsatisfiable
// distribution spec — returns an error instead of panicking, so one bad
// cell in a large sweep costs one row. The context is consulted between the
// expensive phases; a cancelled context abandons the scenario with its error.
func RunE(ctx context.Context, s Scenario) (*RunResult, error) {
	s = s.withDefaults()
	if err := s.validate(); err != nil {
		return nil, err
	}
	if s.Attack != nil && s.Attack.TargetRegion != "" {
		// Resolve "flood region X" against the authority placement on a
		// private copy, so the caller's plan is never mutated and the
		// distribution carry-over inherits the resolved targets.
		pc := *s.Attack
		if err := pc.ResolveRegion(s.Topology, s.N); err != nil {
			return nil, fmt.Errorf("harness: %w", err)
		}
		if err := validateAuthorityAttack(&pc, s.N, s.Topology); err != nil {
			return nil, err
		}
		s.Attack = &pc
	}
	drv, err := DriverFor(s.Protocol)
	if err != nil {
		return nil, err
	}
	// Resolve and validate the distribution phase up front, so a
	// configuration bug fails before the expensive protocol phase.
	var distSpec *dircache.Spec
	if s.Distribution != nil {
		sp, err := effectiveDistribution(s)
		if err != nil {
			return nil, err
		}
		distSpec = &sp
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("harness: scenario cancelled before the protocol phase: %w", err)
	}
	keys, docs := Inputs(s)
	net, ups, downs, regions, err := buildNetwork(s)
	if err != nil {
		return nil, err
	}
	pr, err := drv.Build(s, keys, docs)
	if err != nil {
		return nil, fmt.Errorf("harness: %s driver: %w", drv.Name(), err)
	}
	if len(pr.Nodes) != s.N {
		return nil, fmt.Errorf("harness: %s driver built %d nodes for %d authorities", drv.Name(), len(pr.Nodes), s.N)
	}
	for i, node := range pr.Nodes {
		net.AddNodeIn(node, ups[i], downs[i], regions[i])
	}
	net.Run(pr.EndTime)

	out := pr.Collect()
	res := &RunResult{
		Success:   out.Success,
		Latency:   out.Latency,
		DoneAt:    out.DoneAt,
		Net:       net,
		Detail:    out.Detail,
		consensus: out.Consensus,
	}
	st := net.Stats()
	res.BytesSent = st.BytesSent
	res.Messages = st.MessagesSent

	if distSpec != nil {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("harness: scenario cancelled before the distribution phase: %w", err)
		}
		dres, err := runDistribution(*distSpec, res)
		if err != nil {
			return nil, err
		}
		res.Distribution = dres
	}
	if ds, ok := s.Tracer.(obs.DetectionSource); ok {
		res.Detections = ds.Detections()
	}
	return res, nil
}

// effectiveDistribution resolves the distribution-spec fields knowable
// before the protocol phase — seed, the authority tier sized to the run, and
// the carried-over authority attack — validating as it goes so configuration
// bugs fail before the expensive simulation. The distribution phase shares
// the protocol run's clock origin, so a flood that is still open when the
// consensus publishes must also throttle the authority stubs the caches
// fetch from — otherwise an attacked-but-surviving protocol distributes at
// full speed; that is why Scenario.Attack carries over.
func effectiveDistribution(s Scenario) (dircache.Spec, error) {
	spec := *s.Distribution
	if spec.Seed == 0 {
		spec.Seed = s.Seed
	}
	if spec.Tracer == nil {
		spec.Tracer = s.Tracer
	}
	if spec.Authorities == 0 {
		spec.Authorities = s.N
	}
	if spec.Topology == nil {
		// The client tier lives on the same planet as the authorities.
		spec.Topology = s.Topology
	}
	if err := spec.Validate(); err != nil {
		return dircache.Spec{}, fmt.Errorf("harness: %w", err)
	}
	if s.Attack != nil && !hasAuthorityPlan(spec.Attacks) {
		if err := validateAuthorityAttack(s.Attack, spec.Authorities, spec.Topology); err != nil {
			return dircache.Spec{}, fmt.Errorf("%w; size Distribution.Authorities to the protocol run or set Distribution.Attacks explicitly", err)
		}
		spec.Attacks = append(append([]attack.Plan(nil), spec.Attacks...), *s.Attack)
	}
	return spec, nil
}

// runDistribution executes the cache/fleet phase on an effectiveDistribution
// spec, deriving the publication instant, document size and hash-chain
// identity from the protocol run unless the spec pins them.
func runDistribution(spec dircache.Spec, res *RunResult) (*dircache.Result, error) {
	if spec.PublishAt == 0 {
		if res.Success {
			spec.PublishAt = res.Latency
		} else {
			spec.PublishAt = simnet.Never
		}
	}
	if spec.DocBytes == 0 {
		if c := res.Consensus(); c != nil {
			spec.DocBytes = c.EncodedSize()
		}
	}
	if spec.Chain == nil && (spec.VerifyClients || spec.Compromise != nil) {
		// Anchor the distribution tier's chain material on the document the
		// protocol phase actually agreed on: the genuine link commits to the
		// real consensus digest, so what verifying clients accept is the
		// run's output, not a synthetic stand-in. (dircache would otherwise
		// synthesize a digest of its own.)
		var digest sig.Digest
		if c := res.Consensus(); c != nil {
			digest = c.Digest()
		}
		spec.Chain = dircache.SynthChain(spec.Seed, spec.Authorities, digest)
	}
	dres, err := dircache.Run(spec)
	if err != nil {
		return nil, fmt.Errorf("harness: distribution spec invalid: %w", err)
	}
	return dres, nil
}

// hasAuthorityPlan reports whether any plan targets the authority tier.
func hasAuthorityPlan(plans []attack.Plan) bool {
	for i := range plans {
		if plans[i].Tier == attack.TierAuthority {
			return true
		}
	}
	return false
}
