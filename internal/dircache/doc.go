// Package dircache models the distribution tier of the Tor directory
// protocol (paper §2.1, §3.1): once the authorities have generated a
// consensus, a tier of directory caches fetches it and re-serves it to the
// client population, and the network is only "up" for a client once its copy
// arrives and only "down" once that copy expires.
//
// # Role in the pipeline
//
// This is layer 2 and 3 of the four-layer simulation (authorities → caches →
// client fleets → availability): the harness's Distribute phase
// (harness.Experiment, facade partialtor.WithDistribution) hands each
// period's consensus to Run, and the Result feeds FleetTimeline, which the
// Avail phase turns into the validity windows clients experience. Standalone
// runs go through the facade as partialtor.RunDistribution with a
// partialtor.DistributionSpec (= Spec) — that is what cmd/cachesweep sweeps.
//
// The tier runs on simnet as a second, independent simulation phase placed
// after consensus generation:
//
//   - authority stubs hold the consensus document from PublishAt onward and
//     answer cache fetches (a run that never produced a consensus is modelled
//     by PublishAt = simnet.Never: every fetch is refused);
//   - cache nodes fetch the consensus with timeout-driven fallback across
//     the authorities and then re-serve it downstream, serving cheap
//     consensus diffs to clients that still hold the previous document and
//     full documents to the rest;
//   - fleet nodes statistically aggregate 10⁵–10⁷ clients each: fetch
//     arrivals are Poisson per tick, spread over the caches by weighted
//     selection, and one simnet message carries a whole tick's worth of
//     client downloads (its wire size is exact, so bandwidth contention is
//     modelled faithfully while the event count stays tiny).
//
// Aggregation is what makes million-user scenarios run in seconds: a fleet
// of a million clients costs the simulator a few hundred messages per hour
// of virtual time, yet cache uplink saturation, DDoS throttling windows
// (attack.Plan with Tier == attack.TierCache) and retry storms all shape the
// coverage curve exactly as they would per-client. The one approximation is
// batching: the clients of one tick on one cache complete together when the
// batch transfer completes, so coverage is step-shaped at tick granularity.
//
// Run compiles Spec.Attacks and Spec.Faults into one faults.Schedule against
// its placement before the clock starts: every node's pipes are throttled
// from it, a cache arms its crash and churn windows from it, and the mesh
// asks it which mirrors are churned away. The caller's plans are only read.
//
// # Compromised caches and verification
//
// Beyond floods, the tier models subverted mirrors: Spec.Compromise (an
// attack.CompromisePlan, facade partialtor.CompromisePlan) makes its target
// caches serve stale or equivocating directory data, and Spec.VerifyClients
// switches the fleets to the proposal-239 chain-verifying client path
// (client.Verifier): every fetched document's chain link (ChainContext) is
// checked, stale and forked documents are rejected, the serving cache is
// distrusted and its clients re-fetch from the remaining caches, and the
// assembled chain.ForkProofs land in Result.ForkDetections. Result.Covered
// always counts holders of the genuine current consensus; NaiveCoverage adds
// the misled — the gap is the damage a compromised mirror does to clients
// that do not verify.
//
// # Topology and racing clients
//
// Spec.Topology places the tier on a topo.Topology (nil = the historical
// flat model, byte-identical): authorities, caches and fleets get regions,
// inter-region latency shapes every transfer, fleet client mass follows the
// topology's region shares, and each fleet's cache-selection weights are
// biased toward low-latency mirrors. Result.Regions then breaks the
// coverage curve down per region with p50/p99 time-to-coverage, and a
// region-scoped attack.Plan (TargetRegion) floods exactly one region's
// caches.
//
// Spec.RaceK arms the racing client: 0 is the legacy single-cache client,
// 1 a failover client, K>=2 races each fetch wave against K caches and the
// first response wins. The simulator cannot cancel an in-flight transfer,
// so a lost race's response still crosses the wire and is accounted as
// Result.RaceWasteBytes/RaceLaggards — the honest price of racing. A wave
// unanswered for 20 seconds (the raceFailover constant) re-races against
// the next caches in the fleet's weight ranking (Result.RaceTimeouts counts
// the re-races).
package dircache
