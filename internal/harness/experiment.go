package harness

import (
	"context"
	"fmt"
	"time"

	"partialtor/internal/attack"
	"partialtor/internal/chain"
	"partialtor/internal/client"
	"partialtor/internal/dircache"
	"partialtor/internal/obs"
	"partialtor/internal/sig"
)

// Phase names one stage of the experiment pipeline. Every experiment runs
// Generate; Distribute and Avail join the chain when the spec asks for them.
type Phase string

const (
	// PhaseGenerate runs the directory protocol — one consensus run per
	// period — through the scenario's registered driver.
	PhaseGenerate Phase = "generate"
	// PhaseDistribute pushes each period's consensus through the cache
	// tier to the aggregated client fleets.
	PhaseDistribute Phase = "distribute"
	// PhaseAvail folds the per-period outcomes into the availability
	// timeline clients experience (fresh 1 h, valid 3 h).
	PhaseAvail Phase = "avail"
)

// Experiment is the declarative spec of the paper's evaluation pipeline:
// one scenario, repeated over periods, with optional distribution and
// availability phases — Generate → Distribute → Avail. It unifies what
// Scenario and the per-figure Params structs each encoded a slice of: a
// single run is a one-period experiment, a campaign is a multi-period one
// with a chain, a Figure-7-style distribution surface is a sweep whose cells
// are one-period experiments with a Distribute phase.
//
// Build one with NewExperiment and functional options; configuration is
// validated eagerly, so an invalid spec fails at construction, before any
// simulation time is spent.
type Experiment struct {
	base     Scenario
	periods  int
	attacked func(int) bool
	attack   *attack.Plan
	dist     *dircache.Spec // the Distribute phase's spec (nil = no such phase)
	policy   client.Policy
	avail    bool
	chain    bool
}

// ExperimentOption configures an Experiment under construction.
type ExperimentOption func(*Experiment) error

// WithScenario sets the base scenario every period runs (protocol, relay
// population, bandwidth, seed, ...). Later options layer on top of it.
func WithScenario(s Scenario) ExperimentOption {
	return func(e *Experiment) error {
		e.base = s
		return nil
	}
}

// WithPeriods spans the experiment over n hourly consensus periods — each an
// attacked or a healthy period, per WithAttackSchedule — and enables the
// Avail phase over the period outcomes (even for n = 1: asking for periods
// is asking for the period timeline). Periods with the same attack flag are
// the same simulation, so Run simulates at most two distinct runs however
// large n is.
func WithPeriods(n int) ExperimentOption {
	return func(e *Experiment) error {
		if n < 1 {
			return fmt.Errorf("harness: experiment needs at least one period, got %d", n)
		}
		e.periods = n
		e.avail = true
		return nil
	}
}

// WithAttack applies the plan to every attacked period (all periods unless
// WithAttackSchedule narrows them). An authority-tier plan throttles the
// consensus phase; a cache-tier plan rides into the distribution phase's
// Attacks — so one option expresses both the paper's five-minute headline
// attack and the "flood the mirrors" family.
func WithAttack(p attack.Plan) ExperimentOption {
	return func(e *Experiment) error {
		pc := p
		e.attack = &pc
		return nil
	}
}

// WithAttackSchedule marks which periods run under the experiment's attack
// plan (period indices start at 0).
func WithAttackSchedule(attacked func(i int) bool) ExperimentOption {
	return func(e *Experiment) error {
		e.attacked = attacked
		return nil
	}
}

// WithDistribution adds the Distribute phase: every period's consensus
// propagates through a cache tier to aggregated client fleets under spec
// (per-period publication instant and document size default to each run's
// outcome, exactly like Scenario.Distribution).
func WithDistribution(spec dircache.Spec) ExperimentOption {
	return func(e *Experiment) error {
		sp := spec
		e.dist = &sp
		return nil
	}
}

// WithAvailability adds the Avail phase under the given consensus-lifetime
// policy even for single-period experiments (multi-period experiments always
// run it, with client.DefaultPolicy unless this option overrides it).
func WithAvailability(p client.Policy) ExperimentOption {
	return func(e *Experiment) error {
		e.policy = p
		e.avail = true
		return nil
	}
}

// WithTracer attaches an observability tracer to every phase of every
// distinct run (one per attack flag; see Run): the consensus network's
// kernel and protocol events, the distribution tier's cache and fleet
// events, and — when the Avail phase runs — the final outage windows
// (obs.EvOutage, layer "avail"). A period that reuses a run carries that
// run's Detections; tracing the repeat would add nothing, since every run's
// timestamps start at zero. A nil tracer is a no-op option; recording never
// changes results.
func WithTracer(t obs.Tracer) ExperimentOption {
	return func(e *Experiment) error {
		e.base.Tracer = t
		return nil
	}
}

// WithChain links each successful period's consensus digest into the
// proposal-239 hash chain, signed by the majority that signed the consensus.
func WithChain() ExperimentOption {
	return func(e *Experiment) error {
		e.chain = true
		return nil
	}
}

// NewExperiment assembles and validates an experiment. All configuration
// errors — malformed attack plans, unsatisfiable distribution specs,
// unregistered protocols — surface here, before any simulation runs.
func NewExperiment(opts ...ExperimentOption) (*Experiment, error) {
	e := &Experiment{periods: 1, policy: client.DefaultPolicy()}
	for _, opt := range opts {
		if err := opt(e); err != nil {
			return nil, err
		}
	}
	// A Distribution spec or Attack plan riding in on the base scenario
	// joins the pipeline's own accounting — the Distribute phase and the
	// attack schedule respectively — instead of silently bypassing it;
	// specifying either both ways is ambiguous.
	if e.base.Distribution != nil {
		if e.dist != nil {
			return nil, fmt.Errorf("harness: distribution specified twice — on the base scenario and via WithDistribution")
		}
		sp := *e.base.Distribution
		e.dist = &sp
		e.base.Distribution = nil // scenarioFor reattaches e.dist per period
	}
	if e.base.Attack != nil {
		if e.attack != nil {
			return nil, fmt.Errorf("harness: attack specified twice — on the base scenario and via WithAttack")
		}
		plan := *e.base.Attack
		e.attack = &plan
		e.base.Attack = nil // scenarioFor reattaches e.attack per attacked period
	}
	if e.attacked == nil {
		attackSet := e.attack != nil
		e.attacked = func(int) bool { return attackSet }
	}
	if _, err := DriverFor(e.base.withDefaults().Protocol); err != nil {
		return nil, err
	}
	if e.attack != nil {
		switch e.attack.Tier {
		case attack.TierAuthority:
			if err := validateAuthorityAttack(e.attack, e.base.withDefaults().N, e.base.Topology); err != nil {
				return nil, err
			}
		case attack.TierCache:
			if e.dist == nil {
				return nil, fmt.Errorf("harness: a cache-tier attack needs a distribution phase (WithDistribution)")
			}
		default:
			return nil, fmt.Errorf("harness: %w", e.attack.Validate())
		}
	}
	// Dry-validate both period variants, attacked and not, so period 7
	// cannot fail on configuration period 0 already carried.
	for _, attacked := range []bool{false, true} {
		s := e.scenarioFor(attacked).withDefaults()
		if err := s.validate(); err != nil {
			return nil, err
		}
		if s.Distribution != nil {
			if _, err := effectiveDistribution(s); err != nil {
				return nil, err
			}
		}
	}
	return e, nil
}

// Phases reports the experiment's phase chain in execution order.
func (e *Experiment) Phases() []Phase {
	phases := []Phase{PhaseGenerate}
	if e.dist != nil {
		phases = append(phases, PhaseDistribute)
	}
	if e.hasAvail() {
		phases = append(phases, PhaseAvail)
	}
	return phases
}

func (e *Experiment) hasAvail() bool { return e.avail }

// scenarioFor assembles the scenario one period runs: the base scenario,
// the distribution spec if the Distribute phase is on, and — when the period
// is attacked — the attack plan routed to its tier. The attack flag is its
// only input, and Run relies on that to run each flag's scenario once: a
// per-period input (a seed, a publication instant) would have to join the
// memo's key.
func (e *Experiment) scenarioFor(attacked bool) Scenario {
	s := e.base
	if e.dist != nil {
		spec := *e.dist
		s.Distribution = &spec
	}
	if e.attack != nil && attacked {
		if e.attack.Tier == attack.TierCache {
			// Cache plans belong to the distribution phase; append to a
			// private copy so periods never share Attacks backing arrays.
			spec := *s.Distribution
			spec.Attacks = append(append([]attack.Plan(nil), spec.Attacks...), *e.attack)
			s.Distribution = &spec
		} else {
			plan := *e.attack
			s.Attack = &plan
		}
	}
	return s
}

// ExperimentResult is the outcome of the full phase chain.
type ExperimentResult struct {
	// Runs holds one protocol-phase result per period. Periods with the
	// same attack flag share one *RunResult: treat it as read-only.
	Runs []*RunResult
	// Outcomes and Successes summarize the Generate phase.
	Outcomes  []bool
	Successes int
	// Distributions is index-aligned with Runs (nil without a Distribute
	// phase); periods that share a run share its read-only
	// *dircache.Result.
	Distributions []*dircache.Result
	// Timeline is the Avail phase's availability model (nil when the phase
	// did not run). With a Distribute phase each validity window starts
	// when the document actually reached the target coverage, not when the
	// authorities signed it.
	Timeline     *client.Timeline
	Availability float64
	FirstOutage  time.Duration // -1 if never down
	// Chain is the proposal-239 consensus hash chain (nil without
	// WithChain).
	Chain *chain.Chain
}

// Run executes the phase chain period by period. A period's scenario is
// fixed by its attack flag and RunE is deterministic, so the first period
// with a given flag runs it and every later period with that flag reuses the
// result; everything else — the outcome, the distribution entry, the chain
// link for each successful period, the Avail phase — is still per period. A
// cancelled context stops between periods with an error, whether or not the
// next period would have run anything; configuration errors cannot occur
// here — NewExperiment validated them — so an error mid-run reports a
// genuine simulation failure, wrapped with the failing period.
func (e *Experiment) Run(ctx context.Context) (*ExperimentResult, error) {
	res := &ExperimentResult{FirstOutage: -1}

	var keys []*sig.KeyPair
	if e.chain {
		keys, _ = Inputs(e.base)
		res.Chain = chain.New(sig.PublicSet(keys), sig.Majority(len(keys)))
	}

	var runs [2]*RunResult // by attack flag: healthy, attacked
	var clientRuns []client.Run
	for i := 0; i < e.periods; i++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("harness: experiment cancelled before period %d: %w", i, err)
		}
		attacked, slot := e.attacked(i), 0
		if attacked {
			slot = 1
		}
		run := runs[slot]
		if run == nil {
			var err error
			if run, err = RunE(ctx, e.scenarioFor(attacked)); err != nil {
				return nil, fmt.Errorf("harness: period %d: %w", i, err)
			}
			runs[slot] = run
		}
		ok := run.Success
		res.Runs = append(res.Runs, run)
		res.Outcomes = append(res.Outcomes, ok)
		if e.dist != nil {
			res.Distributions = append(res.Distributions, run.Distribution)
		}
		clientRuns = append(clientRuns, client.Run{At: time.Duration(i) * e.policy.Interval, Success: ok})
		if !ok {
			continue
		}
		res.Successes++
		if e.chain {
			c := run.Consensus()
			if c == nil {
				return nil, fmt.Errorf("harness: period %d: the %v driver reported success without a consensus document", i, e.base.Protocol)
			}
			// Before genesis the head is the zero link: epoch 1, no parent.
			head, _ := res.Chain.Head()
			if err := res.Chain.Append(chain.SignedLink(keys, head.Epoch+1, c.Digest(), head.Digest)); err != nil {
				return nil, fmt.Errorf("harness: period %d: chain append failed: %w", i, err)
			}
		}
	}

	if e.hasAvail() {
		if e.dist != nil {
			res.Timeline = dircache.FleetTimeline(e.policy, res.Distributions)
		} else {
			res.Timeline = client.NewTimeline(e.policy, clientRuns)
		}
		res.Availability = res.Timeline.Availability()
		res.FirstOutage = res.Timeline.FirstOutage()
		client.TraceTimeline(e.base.Tracer, res.Timeline)
	}
	return res, nil
}
