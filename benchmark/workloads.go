package main

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"strings"
	"text/tabwriter"
	"time"

	"partialtor"
	"partialtor/internal/attack"
	"partialtor/internal/dircache"
	"partialtor/internal/faults"
	"partialtor/internal/gossip"
	"partialtor/internal/harness"
	"partialtor/internal/simnet"
	"partialtor/internal/topo"
)

// frozenSeconds is the run length BENCHMARK.json fixes; every workload's
// rounds field is the round count calibrated for it. Another -seconds scales
// the count linearly, so the op list stays fixed by count for a given flag.
const frozenSeconds = 15

// scenarioSeeds is how many simulation seeds one -seed expands to. Rounds
// rotate over them, and every round count below is a multiple, so each seed
// gets the same number of rounds. The timed phase then holds 6 distinct
// harness.Inputs keys (the probes of a traced run add one, after it): under
// the 8 the cache keeps, so no key is evicted — the victim is arbitrary, and a
// rebuild inside the timed phase would be noise. Six rather than the issue's
// four because some behaviour is seed-dependent in steps: ICPS under the
// outage aggregates the votes of five or of nine authorities depending on
// pair latencies, a 7 MB difference in allocation per run, and runs that
// each draw another -seed differ less the more seeds one run averages over.
const scenarioSeeds = 6

// consensusRelays sizes the consensus-tier votes: 300 relays at the 2500-byte
// calibrated entry is a 0.75 MB vote per authority, small enough for a
// three-run round to stay under 0.7 s and large enough for hashing to
// dominate.
const consensusRelays = 300

// kind is one op kind of a workload: a named scenario executed once per
// round. run performs the call into the simulator, feeds the op's digest and
// counters through x, and returns an error when an invariant is violated.
type kind struct {
	name string
	// timing names the recorder samples this kind's op walls go to in the
	// traced invocation's untraced passes ("" = none).
	timing string
	run    func(x *opCtx) error
}

// workload is one fixed op list. Every round runs each kind once, in order,
// with one scenario seed; rounds is the calibrated round count of the timed
// phase at frozenSeconds. The traced invocation runs half as many pairs of an
// untraced and a traced round, which takes about as long.
type workload struct {
	name string
	// why is the one line BENCHMARK.json gives for the workload's existence.
	why    string
	rounds int
	kinds  []kind
	// inputs lists the scenarios whose keys and votes set-up builds before
	// the warm-up round (nil for the distribution-only workloads).
	inputs func(seeds []int64) []harness.Scenario
}

var workloads = []workload{
	{
		name:   "consensus-healthy",
		why:    "three protocols in fair weather: bound by vote hashing and signatures, idle in kernel and fleet code",
		rounds: 24,
		kinds: []kind{
			{"Current", "dirv3.run_ms", consensusOp(harness.Current, "dirv3", nil, healthyConsensus)},
			{"Synchronous", "syncdir.run_ms", consensusOp(harness.Synchronous, "syncdir", nil, healthyConsensus)},
			{"ICPS", "core.run_ms", consensusOp(harness.ICPS, "core", nil, healthyConsensus)},
		},
		inputs: consensusInputs,
	},
	{
		name:   "consensus-ddos",
		why:    "the paper's five-minute outage: throttled pipes, fetch timeouts, expiring rounds, pacemaker view changes",
		rounds: 24,
		kinds: []kind{
			{"Current", "dirv3.run_ms", consensusOp(harness.Current, "dirv3", &fiveMinuteOutage, brokenConsensus)},
			{"Synchronous", "syncdir.run_ms", consensusOp(harness.Synchronous, "syncdir", &fiveMinuteOutage, brokenConsensus)},
			{"ICPS", "core.run_ms", consensusOp(harness.ICPS, "core", &fiveMinuteOutage, survivingConsensus)},
		},
		inputs: consensusInputs,
	},
	{
		name:   "dist-fleet",
		why:    "legacy client path at 1-2 M clients: kernel-bound (event heap, fluid pipes, fleet tick), no crypto at all",
		rounds: 24,
		kinds: []kind{
			{"healthy", "dircache.healthy_ms", distOp(fleetHealthy, servedInWindow)},
			{"cacheflood", "dircache.cacheflood_ms", distOp(fleetCacheFlood, servedInWindow)},
			{"authflood", "dircache.authflood_ms", distOp(fleetAuthFlood, func(r *dircache.Result) error {
				if r.CacheFallbacks == 0 {
					return errors.New("authority flood caused no cache fallback")
				}
				return servedInWindow(r)
			})},
			{"fanin", "dircache.fanin_ms", distOp(fleetFanIn, servedInWindow)},
		},
	},
	{
		name:   "dist-resilience",
		why:    "racing clients, gossip mesh, faults, backoff and chain verification: the opt-in paths dist-fleet never enters",
		rounds: 24,
		kinds: []kind{
			{"race0", "dircache.race0_ms", distOp(raceSpec(0), func(r *dircache.Result) error {
				if c := r.CoverageAt(raceWindow); c > 0.65 {
					return fmt.Errorf("single-fetch clients reached %.3f coverage under the regional flood, want <= 0.65", c)
				}
				return nil
			})},
			{"race1", "dircache.race1_ms", distOp(raceSpec(1), nil)},
			{"race2", "dircache.race2_ms", distOp(raceSpec(2), func(r *dircache.Result) error {
				if c := r.CoverageAt(raceWindow); c < 0.95 {
					return fmt.Errorf("racing clients reached %.3f coverage, want >= 0.95", c)
				}
				return nil
			})},
			{"chaos", "dircache.chaos_ms", distOp(chaosSpec, func(r *dircache.Result) error {
				switch {
				case r.Coverage() < 0.9:
					return fmt.Errorf("chaos coverage %.3f, want >= 0.9", r.Coverage())
				case r.GossipPushes == 0:
					return errors.New("chaos run pushed no gossip digest")
				case r.FaultEvents == 0:
					return errors.New("chaos run scheduled no fault event")
				}
				return nil
			})},
			{"verify", "dircache.verify_ms", distOp(verifySpec, func(r *dircache.Result) error {
				switch {
				case r.Misled != 0:
					return fmt.Errorf("%d verifying clients misled", r.Misled)
				case len(r.ForkDetections) == 0:
					return errors.New("no fork detected with equivocating caches")
				}
				return nil
			})},
		},
	},
	{
		name:   "campaign-sweep",
		why:    "2x2 grid of three-period campaigns through the facade on two sweep workers: harness, sweep, client, chain",
		rounds: 24,
		kinds:  []kind{{"grid", "", campaignOp}},
		inputs: campaignInputs,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// deriveSeeds expands the -seed argument into the scenario seeds (splitmix64
// steps, kept positive and non-zero: a zero Scenario.Seed means "default").
func deriveSeeds(seed int64) []int64 {
	out := make([]int64, scenarioSeeds)
	z := uint64(seed)
	for i := range out {
		z += 0x9e3779b97f4a7c15
		v := z
		v = (v ^ (v >> 30)) * 0xbf58476d1ce4e5b9
		v = (v ^ (v >> 27)) * 0x94d049bb133111eb
		v ^= v >> 31
		out[i] = int64(v>>1)%1_000_000_007 + 1
	}
	return out
}

// --- consensus tier ---

// lockStepDeadline is when the lock-step protocols give up (four 150 s
// rounds); a healthy run of any protocol must beat it.
const lockStepDeadline = 4 * 150 * time.Second

// fiveMinuteOutage is the paper's attack: a majority of the nine authorities
// offline while votes are exchanged. RunE works on a private copy.
var fiveMinuteOutage = attack.FiveMinuteOutage(attack.MajorityTargets(9))

func consensusScenario(p harness.Protocol, seed int64, plan *attack.Plan) harness.Scenario {
	return harness.Scenario{
		Protocol:     p,
		N:            9,
		Relays:       consensusRelays,
		EntryPadding: -1,
		Bandwidth:    harness.DefaultBandwidth,
		Attack:       plan,
		Seed:         seed,
	}
}

func consensusInputs(seeds []int64) []harness.Scenario {
	out := make([]harness.Scenario, len(seeds))
	for i, s := range seeds {
		out[i] = consensusScenario(harness.Current, s, nil)
	}
	return out
}

// consensusOp runs one protocol at the consensus workloads' size. layer is
// the module the per-layer counters of this op are filed under.
func consensusOp(p harness.Protocol, layer string, plan *attack.Plan, check func(*harness.RunResult) error) func(*opCtx) error {
	return func(x *opCtx) error {
		s := consensusScenario(x.protocol(p), x.seed, plan)
		s.Tracer = x.tracer()
		steps := simnet.GlobalSteps()
		x.mark("harness.inputs")
		res, err := harness.RunE(context.Background(), s)
		x.mark("")
		if err != nil {
			return err
		}
		hashRun(x.digest, res)
		if x.rec != nil {
			recordRun(x.rec, layer, res)
			x.rec.add("simnet.events", float64(simnet.GlobalSteps()-steps))
		}
		return check(res)
	}
}

// recordRun files one protocol run's transport counters under its layer.
func recordRun(rec *recorder, layer string, res *harness.RunResult) {
	rec.add(layer+".messages", float64(res.Messages))
	rec.add(layer+".bytes", float64(res.BytesSent))
	rec.add("simnet.messages", float64(res.Messages))
	rec.add("simnet.bytes_sent", float64(res.BytesSent))
	if res.Success {
		rec.sample(layer+".sim_latency_ns", float64(res.Latency))
	}
}

func healthyConsensus(res *harness.RunResult) error {
	c := res.Consensus()
	switch {
	case !res.Success:
		return errors.New("healthy run failed to reach consensus")
	case c == nil || len(c.Relays) == 0:
		return errors.New("healthy run produced no consensus document")
	case res.Latency >= lockStepDeadline:
		return fmt.Errorf("healthy latency %v not under the %v deadline", res.Latency, lockStepDeadline)
	}
	return nil
}

func brokenConsensus(res *harness.RunResult) error {
	if res.Success {
		return fmt.Errorf("lock-step protocol survived the five-minute outage (latency %v)", res.Latency)
	}
	return nil
}

func survivingConsensus(res *harness.RunResult) error {
	switch {
	case !res.Success:
		return errors.New("ICPS failed under the five-minute outage")
	case res.Latency <= 300*time.Second || res.Latency > 330*time.Second:
		return fmt.Errorf("ICPS latency %v outside (300 s, 330 s]", res.Latency)
	}
	return nil
}

// --- distribution tier ---

// raceWindow is the racing ops' fetch window and the instant their coverage
// invariants are read.
const raceWindow = 20 * time.Minute

// maxRacingClients fences the documented race-batch livelock: racing ops
// (RaceK >= 1) above this population can re-race forever once a coalesced
// batch transfer outlasts RaceTimeout (see README, "Unsafe region").
const maxRacingClients = 50_000

func fleetHealthy(seed int64) dircache.Spec {
	return dircache.Spec{Clients: 1_000_000, Caches: 20, Fleets: 4, Seed: seed}
}

func fleetCacheFlood(seed int64) dircache.Spec {
	s := fleetHealthy(seed)
	s.Attacks = []attack.Plan{{
		Tier: attack.TierCache, Targets: attack.FirstTargets(10),
		End: 10 * time.Minute, Residual: 1e6,
	}}
	return s
}

// residualUnderDDoS is the bandwidth a flooded authority keeps in the
// distribution-tier floods: the paper's 0.5 Mbit/s measurement.
const residualUnderDDoS = 0.5e6

func fleetAuthFlood(seed int64) dircache.Spec {
	s := fleetHealthy(seed)
	s.Attacks = []attack.Plan{{
		Tier: attack.TierAuthority, Targets: attack.MajorityTargets(9),
		End: 5 * time.Minute, Residual: residualUnderDDoS,
	}}
	return s
}

func fleetFanIn(seed int64) dircache.Spec {
	return dircache.Spec{
		Clients: 2_000_000, Caches: 32, Fleets: 8, Seed: seed,
		Attacks: []attack.Plan{
			{Tier: attack.TierCache, Targets: attack.FirstTargets(16), End: 10 * time.Minute, Residual: 1e6},
			{Tier: attack.TierAuthority, Targets: attack.MajorityTargets(9), End: 5 * time.Minute, Residual: residualUnderDDoS},
		},
	}
}

func raceSpec(k int) func(int64) dircache.Spec {
	return func(seed int64) dircache.Spec {
		return dircache.Spec{
			Clients: maxRacingClients, Caches: 12, Fleets: 6,
			Topology: topo.Continents(), RaceK: k, FetchWindow: raceWindow, Seed: seed,
			Attacks: []attack.Plan{{
				Tier: attack.TierCache, TargetRegion: "eu",
				End: raceWindow + 30*time.Minute, Residual: 0,
			}},
		}
	}
}

func chaosSpec(seed int64) dircache.Spec {
	const caches = 50
	return dircache.Spec{
		Clients: 1_000_000, Caches: caches, Seed: seed,
		TargetCoverage: 0.9,
		Attacks: []attack.Plan{{
			Tier: attack.TierAuthority, Targets: attack.FirstTargets(9),
			End: 90 * time.Minute, Residual: 0,
		}},
		Gossip:  &gossip.Config{Fanout: 3, Seeds: []int{0}},
		Backoff: &faults.Backoff{Base: 10 * time.Second, Cap: time.Minute, Jitter: 0.5},
		Faults: &faults.Plan{Faults: []faults.Fault{
			{
				Kind: faults.Crash, Tier: attack.TierCache,
				Targets: faults.SpreadTargets(1, caches, caches*3/10),
				Start:   5 * time.Minute, End: 10 * time.Minute,
			},
			{
				Kind: faults.Churn, Tier: attack.TierCache,
				Targets: faults.SpreadTargets(2, caches, caches*2/10),
				Start:   6 * time.Minute, End: 12 * time.Minute,
			},
		}},
	}
}

func verifySpec(seed int64) dircache.Spec {
	return dircache.Spec{
		Clients: 200_000, Caches: 20, Seed: seed,
		VerifyClients: true,
		Compromise: &attack.CompromisePlan{
			Targets: attack.FirstTargets(4), Mode: attack.CompromiseEquivocate,
		},
	}
}

// distOp runs one dircache.Run. distInvariants hold for every distribution
// op; check adds the kind's own.
func distOp(spec func(seed int64) dircache.Spec, check func(*dircache.Result) error) func(*opCtx) error {
	return func(x *opCtx) error {
		sp := spec(x.seed)
		if sp.RaceK >= 1 && sp.Clients > maxRacingClients {
			return fmt.Errorf("racing op with %d clients is inside the livelock region (max %d)", sp.Clients, maxRacingClients)
		}
		sp.Tracer = x.tracer()
		steps := simnet.GlobalSteps()
		x.mark("dircache.run")
		res, err := dircache.Run(sp)
		kernel := x.mark("")
		if err != nil {
			return err
		}
		hashDistribution(x.digest, res)
		if x.rec != nil {
			recordDistribution(x.rec, x.kind, res)
			x.rec.add("simnet.events", float64(simnet.GlobalSteps()-steps))
			x.rec.add("simnet.kernel_ns", float64(kernel))
		}
		if err := distInvariants(res); err != nil {
			return err
		}
		if check != nil {
			return check(res)
		}
		return nil
	}
}

// distInvariants are the laws of every distribution run: no more clients
// served than exist, and a coverage curve that never goes back in time. (Its
// count may fall: a verifying fleet retracts clients a fork misled.)
func distInvariants(r *dircache.Result) error {
	if r.Covered+r.Misled > r.TotalClients {
		return fmt.Errorf("covered %d + misled %d exceeds the %d clients", r.Covered, r.Misled, r.TotalClients)
	}
	for i := 1; i < len(r.Points); i++ {
		if r.Points[i].At < r.Points[i-1].At {
			return fmt.Errorf("coverage curve goes back in time at point %d", i)
		}
	}
	return nil
}

// servedInWindow is what the legacy client path promises on every dist-fleet
// spec: a monotone curve and the whole population served inside the window.
func servedInWindow(r *dircache.Result) error {
	for i := 1; i < len(r.Points); i++ {
		if r.Points[i].Count < r.Points[i-1].Count {
			return fmt.Errorf("coverage curve falls at point %d", i)
		}
	}
	if r.Covered != r.TotalClients {
		return fmt.Errorf("final coverage %d of %d clients", r.Covered, r.TotalClients)
	}
	if r.TimeToTarget > r.Spec.FetchWindow {
		return fmt.Errorf("time to target %v beyond the %v fetch window", r.TimeToTarget, r.Spec.FetchWindow)
	}
	return nil
}

// recordDistribution files one distribution result's counters. Quantities
// are kept in their integral units (bytes, nanoseconds) so that sums are
// exact whatever order campaign-sweep's two workers add them in; the metric
// table scales them for display.
func recordDistribution(rec *recorder, kind string, r *dircache.Result) {
	rec.add("simnet.messages", float64(r.Stats.MessagesSent))
	rec.add("simnet.bytes_sent", float64(r.Stats.BytesSent))
	rec.sample("dircache.coverage_"+kind, r.Coverage())
	if r.TimeToTarget != simnet.Never {
		rec.sample("dircache.time_to_target_ns_"+kind, float64(r.TimeToTarget))
	}
	rec.add("dircache.failed_fetches", float64(r.FailedFetches))
	rec.add("dircache.cache_fallbacks", float64(r.CacheFallbacks))
	rec.add("dircache.race_timeouts", float64(r.RaceTimeouts))
	rec.add("dircache.race_waste_bytes", float64(r.RaceWasteBytes))
	rec.add("dircache.cache_egress_bytes", float64(r.CacheEgress))
	rec.add("dircache.retry_bursts", float64(r.RetryBursts))
	rec.add("dircache.retry_dropped", float64(r.RetryDropped))
	rec.add("gossip.pushes", float64(r.GossipPushes))
	rec.add("gossip.pulls", float64(r.GossipPulls))
	rec.add("gossip.rounds", float64(r.GossipRounds))
	rec.add("gossip.bytes", float64(r.GossipBytes))
	rec.add("faults.events", float64(r.FaultEvents))
	rec.add("faults.time_below_target_ns", float64(r.TimeBelowTarget))
	if m := faults.WorstMTTR(r.Recoveries); m != simnet.Never {
		rec.max("faults.worst_mttr_ns", float64(m))
	}
	rec.add("client.fork_detections", float64(len(r.ForkDetections)))
	rec.add("client.stale_rejections", float64(r.StaleRejections))
	rec.add("client.extra_fetches", float64(r.ExtraFetches))
}

// --- campaign sweep ---

const (
	campaignPeriods = 3
	campaignWorkers = 2
	campaignClients = 200_000
	// campaignRelays keeps a cell near the per-run floor of nine authorities'
	// signatures, so a twelve-run grid on two workers stays under 0.7 s.
	campaignRelays = 60
)

func campaignInputs(seeds []int64) []harness.Scenario {
	out := make([]harness.Scenario, len(seeds))
	for i, s := range seeds {
		out[i] = harness.Scenario{Relays: campaignRelays, EntryPadding: -1, Seed: s}
	}
	return out
}

// campaignCell is what one grid cell hands back to the renderer.
type campaignCell struct {
	proto        string
	attacked     bool
	successes    int
	availability float64
	digest       [sha256.Size]byte
	wall         time.Duration
}

var campaignGrid = partialtor.MustNewSweepGrid(
	partialtor.SweepInts("protocol", int(partialtor.Current), int(partialtor.ICPS)),
	partialtor.SweepInts("attacked", 0, 1),
)

// campaignOp is one figure regeneration as cmd/benchtables users run it:
// a 2x2 grid of three-period campaigns through the facade, on two sweep
// workers, rendered as a text table.
func campaignOp(x *opCtx) error {
	steps := simnet.GlobalSteps()
	gridStart := time.Now()
	results := partialtor.RunSweepParams(context.Background(), campaignGrid, partialtor.SweepParams{Workers: campaignWorkers},
		func(ctx context.Context, c partialtor.SweepCell) (campaignCell, error) {
			return runCampaignCell(ctx, x, partialtor.Protocol(c.Int("protocol")), c.Int("attacked") == 1)
		})
	gridWall := time.Since(gridStart)
	if err := partialtor.SweepFirstErr(results); err != nil {
		return err
	}
	x.mark("render")
	table := renderCampaign(results)
	render := x.mark("")
	x.digest.Write([]byte(table))
	var cellWall time.Duration
	var ours, current float64 // availability of the two attacked cells
	for _, r := range results {
		c := r.Value
		x.digest.Write(c.digest[:])
		cellWall += c.wall
		switch {
		case c.attacked && c.proto == partialtor.ICPS.String():
			ours = c.availability
		case c.attacked && c.proto == partialtor.Current.String():
			current = c.availability
		}
	}
	if x.rec != nil {
		x.rec.add("simnet.events", float64(simnet.GlobalSteps()-steps))
		x.rec.add("sweep.cell_wall_s", cellWall.Seconds())
		x.rec.add("sweep.grid_wall_s", gridWall.Seconds())
		if x.tr != nil {
			x.rec.sample("harness.render_ms", ms(render))
		}
	}
	if ours < current {
		return fmt.Errorf("attacked ICPS availability %.4f below attacked Current %.4f", ours, current)
	}
	return nil
}

func runCampaignCell(ctx context.Context, x *opCtx, p partialtor.Protocol, attacked bool) (campaignCell, error) {
	start := time.Now()
	cell := campaignCell{proto: p.String(), attacked: attacked}
	cx := x.child(fmt.Sprintf("cell %s attacked=%v", cell.proto, attacked))
	defer cx.finish()
	opts := []partialtor.ExperimentOption{
		partialtor.WithScenario(partialtor.Scenario{
			Protocol: cx.protocol(p), Relays: campaignRelays, EntryPadding: -1, Seed: x.seed,
		}),
		partialtor.WithPeriods(campaignPeriods),
		partialtor.WithDistribution(partialtor.DistributionSpec{Clients: campaignClients, Caches: 10, Fleets: 2}),
		partialtor.WithChain(),
		partialtor.WithAvailability(partialtor.DefaultClientPolicy()),
		partialtor.WithTracer(cx.tracer()),
	}
	if attacked {
		// No schedule: the outage recurs in every period, the paper's
		// sustained attack.
		opts = append(opts, partialtor.WithAttack(partialtor.FiveMinuteOutage(partialtor.MajorityTargets(9))))
	}
	exp, err := partialtor.NewExperiment(opts...)
	if err != nil {
		return cell, err
	}
	cx.mark("harness.inputs")
	res, err := exp.Run(ctx)
	if err != nil {
		return cell, err
	}
	cx.mark("client.timeline")
	availability := partialtor.FleetTimeline(partialtor.DefaultClientPolicy(), res.Distributions).Availability()
	timeline := cx.mark("")

	h := sha256.New()
	for _, run := range res.Runs {
		hashRun(h, run)
	}
	fmt.Fprintf(h, "successes=%d availability=%v firstOutage=%d chain=%d\n",
		res.Successes, res.Availability, res.FirstOutage, res.Chain.Len())
	h.Sum(cell.digest[:0])
	cell.successes = res.Successes
	cell.availability = res.Availability
	cell.wall = time.Since(start)

	if x.rec != nil {
		x.rec.sample("harness.experiment_ms", ms(cell.wall))
		x.rec.sample("client.availability", res.Availability)
		if x.tr != nil {
			x.rec.sample("client.timeline_us", us(timeline))
		}
		layer := "dirv3"
		if p == partialtor.ICPS {
			layer = "core"
		}
		for _, run := range res.Runs {
			recordRun(x.rec, layer, run)
			recordDistribution(x.rec, "campaign", run.Distribution)
		}
	}

	switch {
	case availability != res.Availability:
		return cell, fmt.Errorf("recomputed availability %v differs from the experiment's %v", availability, res.Availability)
	case !attacked && res.Successes != campaignPeriods:
		return cell, fmt.Errorf("healthy campaign succeeded in %d of %d periods", res.Successes, campaignPeriods)
	case res.Chain.Len() != res.Successes:
		return cell, fmt.Errorf("chain holds %d links for %d successes", res.Chain.Len(), res.Successes)
	}
	if err := res.Chain.Verify(); err != nil {
		return cell, fmt.Errorf("chain verification: %w", err)
	}
	for _, d := range res.Distributions {
		if err := distInvariants(d); err != nil {
			return cell, err
		}
	}
	return cell, nil
}

func renderCampaign(results []partialtor.SweepResult[campaignCell]) string {
	var b strings.Builder
	tw := tabwriter.NewWriter(&b, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "protocol\tattacked\tperiods ok\tavailability")
	for _, r := range results {
		c := r.Value
		fmt.Fprintf(tw, "%s\t%v\t%d/%d\t%.4f%%\n", c.proto, c.attacked, c.successes, campaignPeriods, 100*c.availability)
	}
	tw.Flush()
	return b.String()
}
