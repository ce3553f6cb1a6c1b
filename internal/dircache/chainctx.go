package dircache

import (
	"partialtor/internal/chain"
	"partialtor/internal/sig"
)

// ChainContext is the proposal-239 hash-chain material one distribution
// period runs against: the authority registry and the chain links the caches
// can serve. The consensus document itself is modelled by wire size only
// (the simulation never moves real documents), so the link stands in for the
// document's identity: honest caches serve Genuine, stale caches keep
// re-serving Prev's epoch, and equivocating caches serve Fork — and the
// links carry real Ed25519 signature sets, so client-side verification and
// fork proofs are cryptographically faithful, not flag checks.
type ChainContext struct {
	// Pubs is the authority verification registry; Threshold the signature
	// majority a link needs (⌊n/2⌋+1).
	Pubs      *sig.Registry
	Threshold int

	// Genuine is the current epoch's true link — the document the
	// authorities actually published this period.
	Genuine chain.Link
	// Prev is the previous epoch's link: the chain head clients already
	// hold, and the document a CompromiseStale cache keeps re-serving.
	Prev chain.Link
	// Fork is the adversary-signed fork of the current epoch (same parent
	// as Genuine, different digest, valid signature set) an equivocating
	// cache serves to its target fleets. Zero Sigs means no fork material.
	Fork chain.Link
}

// SynthChain builds deterministic chain material for a standalone
// distribution run: the same seeded authority keys the protocol harness uses
// (sig.Authorities), a previous-epoch link, the current epoch's genuine link
// and an adversary fork, each signed by the first ⌊n/2⌋+1 authorities. A
// non-zero genuine digest pins the current consensus identity (the harness
// passes the real document's digest); a zero digest synthesizes one.
//
// The fork is signed by the same majority that signed the genuine link —
// the paper's threat model for hash chaining is exactly an authority
// majority misbehaving during one epoch — so a ForkProof's Culprits() is
// that full signer set.
func SynthChain(seed int64, authorities int, genuine sig.Digest) *ChainContext {
	keys := sig.Authorities(seed, authorities)
	prevDigest := sig.HashParts([]byte("dircache-epoch-1"), int64Bytes(seed))
	if genuine.IsZero() {
		genuine = sig.HashParts([]byte("dircache-epoch-2"), int64Bytes(seed))
	}
	forkDigest := sig.HashParts([]byte("dircache-fork"), int64Bytes(seed))
	return &ChainContext{
		Pubs:      sig.PublicSet(keys),
		Threshold: sig.Majority(authorities),
		Prev:      chain.SignedLink(keys, 1, prevDigest, sig.Digest{}),
		Genuine:   chain.SignedLink(keys, 2, genuine, prevDigest),
		Fork:      chain.SignedLink(keys, 2, forkDigest, prevDigest),
	}
}

func int64Bytes(v int64) []byte {
	b := make([]byte, 8)
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
	return b
}
