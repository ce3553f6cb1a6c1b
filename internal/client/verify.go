package client

import (
	"partialtor/internal/chain"
	"partialtor/internal/sig"
)

// Verdict is the outcome of checking one fetched consensus against the
// client's position in the proposal-239 hash chain.
type Verdict int

const (
	// VerdictAccept: the document is the expected successor of the client's
	// chain head (or matches the successor already accepted this epoch).
	VerdictAccept Verdict = iota
	// VerdictStale: the document is an earlier epoch — typically the very
	// consensus the client already holds, re-served by a stale cache.
	VerdictStale
	// VerdictInvalid: wrong chain position or an insufficient/bad signature
	// set; the document cannot even pretend to extend the chain.
	VerdictInvalid
	// VerdictFork: a second, different, validly signed successor of the
	// client's chain head — detectable equivocation. The proof is recorded
	// (Proofs) and the conflicting side should be re-fetched elsewhere.
	VerdictFork
)

func (v Verdict) String() string {
	switch v {
	case VerdictAccept:
		return "accept"
	case VerdictStale:
		return "stale"
	case VerdictInvalid:
		return "invalid"
	case VerdictFork:
		return "fork"
	}
	return "Verdict(?)"
}

// Verifier is the client side of consensus hash chaining (Tor proposal 239,
// paper §7): a client that holds the previous consensus knows the digest the
// next one must commit to, so a flooded-or-compromised cache serving stale
// or forked directory data is caught instead of silently believed.
//
// A Verifier is anchored at one chain position (the expected epoch and the
// predecessor digest) and checks every fetched document's link against it.
// Signature checks are memoized per digest, so verifying a million-client
// fleet's fetches costs one Ed25519 pass per distinct document, not per
// download. Verifier is not safe for concurrent use; each fleet holds its
// own.
type Verifier struct {
	pubs      *sig.Registry
	threshold int
	epoch     uint64
	prev      sig.Digest

	accepted *chain.Link         // the successor accepted this epoch
	valid    map[sig.Digest]bool // memoized signature-set verdicts
	rejected map[sig.Digest]bool // fork sides already detected and refused
	proofs   []*chain.ForkProof
}

// NewVerifier anchors a verifier at one chain position: the epoch the next
// consensus must carry and the digest it must commit to as its predecessor.
func NewVerifier(pubs *sig.Registry, threshold int, epoch uint64, prev sig.Digest) *Verifier {
	return &Verifier{
		pubs:      pubs,
		threshold: threshold,
		epoch:     epoch,
		prev:      prev,
		valid:     make(map[sig.Digest]bool),
		rejected:  make(map[sig.Digest]bool),
	}
}

// Check classifies one fetched document's chain link. The first validly
// signed successor is accepted and becomes the reference; a later valid link
// with a different digest yields VerdictFork and a recorded ForkProof.
//
//detlint:hotpath
func (v *Verifier) Check(l chain.Link) Verdict {
	if l.Epoch < v.epoch || l.Digest == v.prev {
		return VerdictStale
	}
	if l.Epoch != v.epoch || l.Prev != v.prev {
		return VerdictInvalid
	}
	if v.rejected[l.Digest] {
		return VerdictFork
	}
	if !v.validSigs(l) {
		return VerdictInvalid
	}
	if v.accepted == nil {
		cp := l
		v.accepted = &cp
		return VerdictAccept
	}
	if l.Digest == v.accepted.Digest {
		return VerdictAccept
	}
	// Two validly signed successors of the same parent: proposal-239
	// equivocation, provable to any third party.
	if proof, ok := chain.DetectFork(v.pubs, v.threshold, *v.accepted, l); ok {
		v.proofs = append(v.proofs, proof)
	}
	v.rejected[l.Digest] = true
	return VerdictFork
}

// validSigs memoizes the threshold signature check per document digest.
//
//detlint:hotpath
func (v *Verifier) validSigs(l chain.Link) bool {
	if ok, seen := v.valid[l.Digest]; seen {
		return ok
	}
	ok := chain.VerifyLink(v.pubs, v.threshold, l) == nil
	v.valid[l.Digest] = ok
	return ok
}

// Accepted returns the successor link the verifier currently trusts, or
// ok = false before any document was accepted.
func (v *Verifier) Accepted() (chain.Link, bool) {
	if v.accepted == nil {
		return chain.Link{}, false
	}
	return *v.accepted, true
}

// Switch re-anchors the verifier on the other side of a detected fork: the
// link with digest d (which must have been seen and rejected, or be the
// accepted one already) becomes the trusted successor and the previously
// accepted digest is refused from now on. Callers use it when out-of-band
// evidence — e.g. a majority of independent caches serving d — shows the
// first-arrived link was the adversary's side. It reports whether a switch
// happened.
func (v *Verifier) Switch(to chain.Link) bool {
	if v.accepted == nil || v.accepted.Digest == to.Digest {
		return false
	}
	if !v.validSigs(to) {
		return false
	}
	old := v.accepted.Digest
	cp := to
	v.accepted = &cp
	v.rejected[old] = true
	delete(v.rejected, to.Digest)
	return true
}

// Proofs returns the fork proofs recorded so far (one per distinct
// conflicting digest).
func (v *Verifier) Proofs() []*chain.ForkProof { return v.proofs }
