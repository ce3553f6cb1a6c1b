// Package core implements the paper's primary contribution: Interactive
// Consistency under Partial Synchrony (ICPS, Definition 5.1) and the
// three-phase Tor directory protocol built on it (§5.2):
//
//   - Dissemination: every authority broadcasts its signed status document;
//     once a node holds all n documents — or Δ has elapsed and it holds at
//     least n−f — it sends the view leader a PROPOSAL: for every authority
//     j, the digest it saw (with j's own signature) or ⊥, endorsed by the
//     proposer. From n−f proposals the leader classifies every index as
//     OK(h_j) (f+1 endorsements), ⊥ by equivocation (two conflicting
//     signatures by j), or ⊥ by timeout (f+1 ⊥-endorsements), producing the
//     digest vector H with an externally verifiable proof π.
//   - Agreement: a view-based partially synchronous consensus (two-chain
//     HotStuff, internal/hotstuff) agrees on one (H, π).
//   - Aggregation: nodes fetch any document whose digest appears in H but
//     which they do not hold, aggregate the Tor consensus with the Figure-2
//     algorithm, sign it, and collect a majority of signatures.
//
// The resulting guarantees (proved in the paper's Appendix A and exercised
// by this package's tests): termination, agreement, value validity (with
// GST = 0 every correct node's own document is included), and common-set
// validity (≥ n−f non-⊥ entries).
package core

import (
	"encoding/hex"
	"fmt"
	"strconv"

	"partialtor/internal/sig"
	"partialtor/internal/wire"
)

// EntryStatus classifies one index of the agreed digest vector.
type EntryStatus uint8

// Entry statuses (paper §5.2.1, leader rules a–c).
const (
	// EntryOK: the digest is backed by the owner's signature and f+1
	// endorsements, so at least one correct node holds the document.
	EntryOK EntryStatus = iota
	// EntryBotEquivocation: two conflicting digests signed by the owner.
	EntryBotEquivocation
	// EntryBotTimeout: f+1 nodes endorsed ⊥, so at least one correct node
	// had not received the document — an adversarial leader cannot exclude
	// correct nodes when GST = 0.
	EntryBotTimeout
)

func (s EntryStatus) String() string {
	switch s {
	case EntryOK:
		return "OK"
	case EntryBotEquivocation:
		return "⊥(equivocation)"
	case EntryBotTimeout:
		return "⊥(timeout)"
	}
	return "⊥(?)"
}

// entryInput appends the message all per-entry signatures cover to dst: the
// index bound to a digest (the zero digest encodes ⊥). Callers pass a stack
// buffer of entryInputCap bytes, so building it allocates nothing.
func entryInput(dst []byte, j int, d sig.Digest) []byte {
	return hex.AppendEncode(append(strconv.AppendInt(dst, int64(j), 10), '|'), d[:])
}

// entryInputCap holds any entryInput.
const entryInputCap = 20 + 1 + 2*sig.DigestSize

// Signature domains.
const (
	domainDoc       = "icps/doc"     // owner's signature on its own document digest
	domainEndorse   = "icps/endorse" // a proposer's per-entry endorsement
	domainConsensus = "icps/consensus"
)

// ValueEntry is one proven slot of the agreed vector H.
type ValueEntry struct {
	Status EntryStatus
	// Digest is the document digest for EntryOK; zero otherwise.
	Digest sig.Digest
	// OwnerSig is j's signature over (j, Digest) for EntryOK.
	OwnerSig sig.Signature
	// Endorsements are f+1 signatures over (j, Digest) for EntryOK, or
	// over (j, ⊥) for EntryBotTimeout.
	Endorsements []sig.Signature
	// EquivDigests/EquivSigs are two conflicting owner-signed digests for
	// EntryBotEquivocation.
	EquivDigests [2]sig.Digest
	EquivSigs    [2]sig.Signature
}

// AgreementValue is the (H, π) pair fed into the agreement sub-protocol.
// It implements hotstuff.Value.
type AgreementValue struct {
	Proposer int
	Entries  []ValueEntry

	encoded []byte
	digest  sig.Digest // of encoded, fixed with it
}

// encode produces the canonical byte representation (for digests and size
// accounting) and fixes its digest, both on first use.
func (v *AgreementValue) encode() []byte {
	if v.encoded != nil {
		return v.encoded
	}
	w := wire.NewWriter(64 + len(v.Entries)*384)
	w.Uvarint(uint64(v.Proposer))
	w.Uvarint(uint64(len(v.Entries)))
	for _, e := range v.Entries {
		w.Byte(byte(e.Status))
		sig.WriteDigest(w, e.Digest)
		sig.WriteSignature(w, e.OwnerSig)
		sig.WriteSignatures(w, e.Endorsements)
		sig.WriteDigest(w, e.EquivDigests[0])
		sig.WriteDigest(w, e.EquivDigests[1])
		sig.WriteSignature(w, e.EquivSigs[0])
		sig.WriteSignature(w, e.EquivSigs[1])
	}
	v.encoded = w.Bytes()
	v.digest = sig.Hash(v.encoded)
	return v.encoded
}

// Digest implements hotstuff.Value.
func (v *AgreementValue) Digest() sig.Digest { v.encode(); return v.digest }

// Size implements hotstuff.Value.
func (v *AgreementValue) Size() int64 { return int64(len(v.encode())) }

// OKCount returns the number of non-⊥ entries.
func (v *AgreementValue) OKCount() int {
	n := 0
	for _, e := range v.Entries {
		if e.Status == EntryOK {
			n++
		}
	}
	return n
}

// DigestVector returns H as digests (zero = ⊥), the X_i of Definition 5.1
// at the digest level.
func (v *AgreementValue) DigestVector() []sig.Digest {
	out := make([]sig.Digest, len(v.Entries))
	for j, e := range v.Entries {
		if e.Status == EntryOK {
			out[j] = e.Digest
		}
	}
	return out
}

// Verify checks the proof π entry by entry: this is the external-validity
// predicate of the agreement sub-protocol. quorumOK is n−f (the minimum
// number of OK entries), endorseQuorum is f+1.
func (v *AgreementValue) Verify(pubs *sig.Registry, n, f int) error {
	if len(v.Entries) != n {
		return fmt.Errorf("core: value has %d entries, want %d", len(v.Entries), n)
	}
	if v.OKCount() < n-f {
		return fmt.Errorf("core: only %d OK entries, need %d", v.OKCount(), n-f)
	}
	endorseQuorum := f + 1
	var zero sig.Digest
	var in [entryInputCap]byte
	for j, e := range v.Entries {
		switch e.Status {
		case EntryOK:
			if e.Digest.IsZero() {
				return fmt.Errorf("core: entry %d OK with zero digest", j)
			}
			if e.OwnerSig.Signer != j || !sig.Verify(pubs, domainDoc, entryInput(in[:0], j, e.Digest), e.OwnerSig) {
				return fmt.Errorf("core: entry %d owner signature invalid", j)
			}
			if err := sig.VerifyQuorum(pubs, domainEndorse, entryInput(in[:0], j, e.Digest), e.Endorsements, endorseQuorum); err != nil {
				return fmt.Errorf("core: entry %d: %w", j, err)
			}
		case EntryBotTimeout:
			if err := sig.VerifyQuorum(pubs, domainEndorse, entryInput(in[:0], j, zero), e.Endorsements, endorseQuorum); err != nil {
				return fmt.Errorf("core: entry %d (⊥ timeout): %w", j, err)
			}
		case EntryBotEquivocation:
			if e.EquivDigests[0] == e.EquivDigests[1] {
				return fmt.Errorf("core: entry %d equivocation proof digests equal", j)
			}
			for k := 0; k < 2; k++ {
				if e.EquivSigs[k].Signer != j ||
					!sig.Verify(pubs, domainDoc, entryInput(in[:0], j, e.EquivDigests[k]), e.EquivSigs[k]) {
					return fmt.Errorf("core: entry %d equivocation proof signature %d invalid", j, k)
				}
			}
		default:
			return fmt.Errorf("core: entry %d has unknown status %d", j, e.Status)
		}
	}
	return nil
}
