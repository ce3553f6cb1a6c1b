// Package sig provides the authority identity and signature substrate for
// the directory protocols: deterministic Ed25519 authority keys, SHA-256
// digests, Tor-style fingerprints, and domain-separated signing.
//
// All protocols in this repository (the current Tor directory protocol v3,
// Luo et al.'s synchronous protocol, and the paper's partially synchronous
// protocol) authenticate votes, proposals and consensus signatures with this
// package. Keys are derived deterministically from (seed, authority index)
// so simulations are reproducible.
//
// The rules about sets of signatures live here too, once: VerifyQuorum (k
// distinct valid signatures over one message: every certificate, endorsement
// set, signature chain and chain link), Tally (an authority's per-signer
// consensus signatures) and Majority (the ⌊n/2⌋+1 a consensus needs).
//
// All of them verify through a Registry (PublicSet): the public keys plus the
// verdict, accept or reject, on every (signer, SHA-256 of domain‖0‖message,
// signature bytes) judged so far, so a run pays Ed25519 once per distinct
// signature. It is run-scoped and lock-free: a run is one goroutine, and no
// Registry is shared between concurrent runs or sweep cells nor outlives its run.
package sig

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
)

// DigestSize is the size of a document digest in bytes.
const DigestSize = sha256.Size

// SignatureSize is the wire size of a signature in bytes.
const SignatureSize = ed25519.SignatureSize

// FingerprintSize is the size of an authority/relay fingerprint in bytes.
const FingerprintSize = 20

// Digest is a SHA-256 hash of a document or message.
type Digest [DigestSize]byte

// Hash returns the SHA-256 digest of data.
func Hash(data []byte) Digest { return sha256.Sum256(data) }

// HashParts digests the concatenation of several byte slices, each
// length-prefixed to prevent ambiguity.
func HashParts(parts ...[]byte) Digest {
	h := sha256.New()
	var lenBuf [8]byte
	for _, p := range parts {
		binary.BigEndian.PutUint64(lenBuf[:], uint64(len(p)))
		h.Write(lenBuf[:])
		h.Write(p)
	}
	var d Digest
	copy(d[:], h.Sum(nil))
	return d
}

// Hex returns the digest as lowercase hex.
func (d Digest) Hex() string { return hex.EncodeToString(d[:]) }

// Short returns the first 8 hex characters, for logs.
func (d Digest) Short() string { return d.Hex()[:8] }

// IsZero reports whether the digest is all zeroes (used as "no digest").
func (d Digest) IsZero() bool { return d == Digest{} }

// Fingerprint identifies an authority, Tor-style (20 bytes, upper hex). A
// relay's identity (relay.Identity) is the same type.
type Fingerprint [FingerprintSize]byte

// AppendTo appends the fingerprint as Tor renders it in logs and documents:
// 40 upper-case hex characters.
//
//detlint:hotpath
func (f Fingerprint) AppendTo(dst []byte) []byte {
	const hexUpper = "0123456789ABCDEF"
	for _, b := range f {
		dst = append(dst, hexUpper[b>>4], hexUpper[b&0xf])
	}
	return dst
}

// String is AppendTo as a string.
func (f Fingerprint) String() string { return string(f.AppendTo(make([]byte, 0, 2*len(f)))) }

// KeyPair is an authority's long-term signing identity.
type KeyPair struct {
	Index       int // authority index (0-based)
	Public      ed25519.PublicKey
	private     ed25519.PrivateKey
	Fingerprint Fingerprint
}

// NewKeyPair derives the authority key for index deterministically from the
// seed.
func NewKeyPair(seed int64, index int) *KeyPair {
	material := sha256.Sum256([]byte(fmt.Sprintf("partialtor-authority-%d-%d", seed, index)))
	priv := ed25519.NewKeyFromSeed(material[:])
	pub := priv.Public().(ed25519.PublicKey)
	var fp Fingerprint
	full := sha256.Sum256(pub)
	copy(fp[:], full[:FingerprintSize])
	return &KeyPair{Index: index, Public: pub, private: priv, Fingerprint: fp}
}

// Authorities derives n authority key pairs.
func Authorities(seed int64, n int) []*KeyPair {
	keys := make([]*KeyPair, n)
	for i := range keys {
		keys[i] = NewKeyPair(seed, i)
	}
	return keys
}

// Signature is a domain-separated Ed25519 signature tagged with its signer.
type Signature struct {
	Signer int // authority index
	Bytes  [SignatureSize]byte
}

// WireSize is the accounting size of one Signature on the wire.
const WireSize = SignatureSize + 4

// signingInput appends domain‖0‖msg, which binds the domain label to the
// message, to dst.
func signingInput(dst []byte, domain string, msg []byte) []byte {
	dst = append(dst, domain...)
	dst = append(dst, 0)
	return append(dst, msg...)
}

// Sign produces a signature over msg under the given domain label.
func (k *KeyPair) Sign(domain string, msg []byte) Signature {
	var s Signature
	s.Signer = k.Index
	copy(s.Bytes[:], ed25519.Sign(k.private, signingInput(make([]byte, 0, len(domain)+1+len(msg)), domain, msg)))
	return s
}

// Registry is one run's verification registry (see the package comment).
type Registry struct {
	keys     []ed25519.PublicKey
	verdicts map[verdictKey]bool
}

type verdictKey struct {
	input Digest    // SHA-256 of domain‖0‖msg
	sig   Signature // signer and bytes
}

// PublicSet builds a run's verification registry from its key pairs.
func PublicSet(keys []*KeyPair) *Registry {
	r := &Registry{verdicts: make(map[verdictKey]bool)}
	for _, k := range keys {
		r.keys = append(r.keys, k.Public)
	}
	return r
}

// Len is the authority count, Memoised the distinct signatures judged so far.
func (r *Registry) Len() int      { return len(r.keys) }
func (r *Registry) Memoised() int { return len(r.verdicts) }

// Verify checks a signature against the registry (indexed by authority). It
// returns false for out-of-range signers, before any lookup. domain‖0‖msg is
// built in a stack buffer (on the heap only past 256 bytes), so a verdict
// already judged allocates nothing.
func Verify(r *Registry, domain string, msg []byte, s Signature) bool {
	if s.Signer < 0 || s.Signer >= len(r.keys) {
		return false
	}
	var buf [256]byte
	input := signingInput(buf[:0], domain, msg)
	key := verdictKey{Hash(input), s}
	verdict, seen := r.verdicts[key]
	if !seen {
		verdict = ed25519.Verify(r.keys[s.Signer], input, s.Bytes[:])
		r.verdicts[key] = verdict
	}
	return verdict
}

// Majority is the Tor consensus-signature threshold ⌊n/2⌋+1 (5 of 9): the
// rule all three directory protocols end in, and the threshold a
// proposal-239 chain link needs.
func Majority(n int) int { return n/2 + 1 }

// VerifyQuorum is the one signature-set rule of the authority tier: sigs
// holds at least k signatures, every one of them valid over (domain, msg)
// and no two by the same signer. HotStuff QCs and TCs, ICPS endorsement
// sets, Dolev–Strong chains and proposal-239 chain links are all this check
// with their own domain, message and k.
func VerifyQuorum(publics *Registry, domain string, msg []byte, sigs []Signature, k int) error {
	if len(sigs) < k {
		return fmt.Errorf("%d signatures, need %d", len(sigs), k)
	}
	seen := make(map[int]bool, len(sigs))
	for _, s := range sigs {
		if seen[s.Signer] {
			return fmt.Errorf("duplicate signer %d", s.Signer)
		}
		if !Verify(publics, domain, msg, s) {
			return fmt.Errorf("bad signature from %d", s.Signer)
		}
		seen[s.Signer] = true
	}
	return nil
}

// Tally is one authority's record of the consensus signatures it holds: at
// most one per signer — the first valid one wins — each over the digest its
// signer computed, which under attack need not be ours. All three protocols
// publish when Matching(own digest) reaches Majority(n).
type Tally struct {
	publics *Registry
	domain  string
	held    map[int]tallied // by signer
}

type tallied struct {
	digest Digest
	sig    Signature
}

// NewTally returns an empty tally of signatures under domain by the
// authorities in publics.
func NewTally(publics *Registry, domain string) *Tally {
	return &Tally{publics: publics, domain: domain, held: make(map[int]tallied)}
}

// Sign records and returns k's own signature over digest.
func (t *Tally) Sign(k *KeyPair, digest Digest) Signature {
	s := k.Sign(t.domain, digest[:])
	t.held[k.Index] = tallied{digest, s}
	return s
}

// Add takes a signature over digest that arrived as authority from's. valid
// reports that from signed it and it verifies; added that it was recorded,
// which a second signature from the same signer is not.
func (t *Tally) Add(from int, digest Digest, s Signature) (valid, added bool) {
	if s.Signer != from || !Verify(t.publics, t.domain, digest[:], s) {
		return false, false
	}
	if _, dup := t.held[from]; dup {
		return true, false
	}
	t.held[from] = tallied{digest, s}
	return true, true
}

// Len returns the number of signers on record.
func (t *Tally) Len() int { return len(t.held) }

// Lookup returns the digest and signature on record for signer.
func (t *Tally) Lookup(signer int) (Digest, Signature, bool) {
	h, ok := t.held[signer]
	return h.digest, h.sig, ok
}

// Matching counts the recorded signatures that are over digest.
func (t *Tally) Matching(digest Digest) int {
	n := 0
	for _, h := range t.held {
		if h.digest == digest {
			n++
		}
	}
	return n
}
