// Package gossip is the deterministic cache-to-cache dissemination layer of
// the mirror tier: a mesh over the directory caches that keeps consensus
// documents flowing when the authority star is flooded away.
//
// The package is transport-free. It contributes three pieces the dircache
// simulation wires onto simnet events:
//
//   - BuildMesh derives the peer graph — a k-regular ring (always connected)
//     plus seeded random links, optionally latency-biased under a topology —
//     entirely from (n, degree, seed), so the same Spec always yields the
//     same mesh.
//
//   - Engine is one node's protocol state machine. It makes the decisions
//     (relay this digest? pull that epoch? serve a full document or a diff?)
//     and the caller does the sending: a node that obtains a fresh consensus
//     pushes TTL/fanout-bounded digests to a seeded random subset of its
//     peers, a peer that is behind pulls the document (or the diff when it
//     is exactly one epoch back), and a periodic anti-entropy round
//     exchanges epoch vectors with one peer at a time so partitioned mirrors
//     converge after the partition heals. The schedule (TTL, PushInterval,
//     PushRounds, AntiEntropyInterval) is constant; Config carries what
//     runs actually vary: Fanout, Degree and Seeds. SelectPeers, the per-round peer
//     selection, is the hot path: it draws from the caller's seeded RNG into
//     an engine-owned scratch slice and never allocates.
//
//   - The wire codec (EncodeDigest/EncodeVector and their decoders) pins the
//     on-the-wire shape of digests and epoch vectors; message sizes in the
//     simulation are the codec's real encoded sizes, so mesh traffic
//     accounting is honest.
//
// Everything is deterministic by construction: no wall clock, no map
// iteration, all randomness from seeds the caller supplies.
package gossip
