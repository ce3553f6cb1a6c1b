// Package faults is the chaos layer of the directory simulation:
// declarative, seeded fault plans scheduled as ordinary simnet events, so a
// faulted run is exactly as deterministic — and exactly as golden-pinnable —
// as a clean one.
//
// A Plan is a list of Fault windows against one tier each, in the same idiom
// as attack.Plan: validate up front, resolve region scopes against the run's
// topology, compile the target set, then let the runner apply each fault at
// wiring time. Two kinds cover the ways real deployments fail around a clean
// link flood that a flood cannot say:
//
//   - Crash: the node's links drop to zero for the window (crash + restart
//     with configurable downtime) and a crashed cache forgets its document.
//     The fluid model makes this exact: a zero-rate pipe delivers nothing
//     until the window ends.
//   - Churn: mirrors leave the gossip mesh at Start and rejoin at End. The
//     overlay absorbs the membership change by rebuilding each survivor's
//     neighbour list and catching the returnee up via an immediate
//     anti-entropy round.
//
// A slowed link is an attack.Plan with a residual, a flapping one a list of
// such plans with residual 0: capacity over a window is the flood's
// vocabulary, and it is said there only. Neither kind drops a message — the
// network model is partial synchrony, where messages are delayed arbitrarily
// long and never lost — so no runner installs a simnet drop filter.
//
// The package also owns the client-side half of graceful degradation:
// Backoff replaces the fleet's fixed-delay coalesced retry with a capped,
// seeded-jitter exponential backoff and an optional per-fleet retry budget,
// desynchronizing the retry bursts that a fixed delay turns into a
// self-inflicted flood. Recovery records, per fault, how long after the
// fault cleared the run took to regain target coverage (MTTR).
package faults
