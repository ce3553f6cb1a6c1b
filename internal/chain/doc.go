// Package chain implements consensus-hash chaining, the hardening measure
// of Tor proposal 239 ("consensus hash chaining") that the paper lists
// among the discussed-but-unimplemented directory improvements (§7). Each
// consensus document commits to the digest of its predecessor; clients that
// follow the chain can detect forks (two signed successors of the same
// parent) and rollbacks even if a majority of authorities misbehave during
// a single epoch.
//
// # Role in the pipeline
//
// The package is protocol-agnostic: any of the three directory protocols in
// this repository can feed its hourly consensus digests into a Chain. Two
// pipeline stages build on it:
//
//   - the harness links each successful period's consensus into a Chain
//     when an experiment asks for it (partialtor.WithChain), signed by the
//     majority that signed the consensus;
//   - the distribution tier's verifying clients (client.Verifier, enabled
//     by dircache.Spec.VerifyClients) check
//     every fetched document's Link against their chain position,
//     reject stale or forked documents, and turn equivocation by
//     compromised caches into ForkProofs — DetectFork validates both sides,
//     Culprits names the authorities that signed both.
package chain
