// Package faults is the chaos layer of the directory simulation:
// declarative, seeded fault plans scheduled as ordinary simnet events, so a
// faulted run is exactly as deterministic — and exactly as golden-pinnable —
// as a clean one.
//
// A Plan is a list of Fault windows against explicit nodes of one tier each.
// A fault and a flood (attack.Plan) have the same shape, a window and a
// scope, so a run validates both up front and then compiles both at once:
// Compile resolves the floods' region scopes against the run's placement,
// traces the ground truth (EvAttackOn/Off, then EvFaultOn/Off) and files
// every window under the nodes it hits. The runner throttles each node from
// the resulting Schedule and arms each cache's fault events from it, all
// before the clock starts. Two kinds cover the ways real deployments fail
// around a clean link flood that a flood cannot say:
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
