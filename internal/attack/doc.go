// Package attack models the paper's adversary against the Tor directory
// system (§4): bandwidth-flooding of directory infrastructure via
// DDoS-for-hire stressor services, expressed as residual-bandwidth windows
// on the simulated network; cache compromise, where the adversary owns
// mirrors instead of flooding them; and the cost models that price both —
// including the paper's headline numbers ($0.074 per consensus instance,
// $53.28 per month).
//
// # Role in the pipeline
//
// Plans are pure descriptions; the runners compile their floods, together
// with their faults, into one faults.Schedule and throttle from it. A Plan
// targets one Tier of the directory system: the nine authorities that
// generate the consensus (TierAuthority, the paper's headline five-minute
// attack — harness.Scenario.Attack throttles the protocol phase with it) or
// the directory caches that distribute it (TierCache, the "flood the
// mirrors" family — dircache.Spec.Attacks throttles the cache tier). A
// CompromisePlan targets caches a different way: its mirrors stay fast but
// serve stale or forked directory data (dircache.Spec.Compromise), which
// only the proposal-239 verification path (internal/chain, client.Verifier)
// lets clients catch.
//
// The harness routes either kind per experiment period: WithAttack sends a
// Plan to its tier's phase, and the distribution spec's CompromisePlan acts
// in the Distribute phase of every period. Both name their victims by one
// target scope, shared with faults.Fault (scope.go); only a flood may name a
// region instead of indices.
//
// CostModel prices all of it on one scale — stressor Mbit-hours for floods
// (PlanCost/CostPerInstance), VPS-months for compromise
// (CompromiseCostPerMonth) — so every attacked sweep cell (cmd/cachesweep,
// cmd/attackcost) carries its dollar price and the defense economics of a
// wide mirror tier are directly comparable across attack styles.
package attack
