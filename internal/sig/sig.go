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
// signature bytes) on file. A signature the run made (Registry.Sign, with the
// key the registry holds at the signer's index) is accepted by construction:
// Sign files the accept verdict as it signs, because RFC 8032 makes every such
// signature verify, and checking that again models nothing simulated. Every
// other signature, forged, relabelled, Byzantine or made for another
// registry, gets one Ed25519 judgement the first time Verify meets it.
//
// Ed25519 signing is deterministic (RFC 8032), so a signature is a pure
// function of (key, input): each KeyPair remembers the signature
// Registry.Sign made for each input, and a later registry signing that input
// again under that key takes it from the memo and runs no Ed25519. The first
// registry to miss an input signs it under the memo's mutex, so concurrent
// runs on one key set sign each input once between them. Only Registry.Sign
// reads or writes the memo.
//
// A Registry is run-scoped: no Registry is shared between concurrent runs or
// sweep cells nor outlives its run, and its maps are touched by the run's one
// goroutine alone. A key pair's memo lives as long as the key pair, so it is
// shared by every run on one key set (harness.Inputs shares key pairs per
// (N, seed)).
package sig

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sync"
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
	memo        signMemo
}

// signMemo is a key pair's signatures made through Registry.Sign, by SHA-256
// of the domain‖0‖msg each signs. The map is made at the first signature, so
// a key pair that never signs through a registry allocates nothing for it.
type signMemo struct {
	mu sync.Mutex
	m  map[Digest][SignatureSize]byte
}

// memoSign returns the signature on file for input, whose SHA-256 is h. With
// none on file it signs input and files the signature, under the memo's
// mutex: a concurrent run signing the same input waits for that signature
// instead of running Ed25519 a second time.
func (k *KeyPair) memoSign(h Digest, input []byte) [SignatureSize]byte {
	k.memo.mu.Lock()
	defer k.memo.mu.Unlock()
	if s, ok := k.memo.m[h]; ok {
		return s
	}
	s := k.sign(input).Bytes
	if k.memo.m == nil {
		k.memo.m = make(map[Digest][SignatureSize]byte)
	}
	k.memo.m[h] = s
	return s
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
// domain‖0‖msg is built in a stack buffer (on the heap only past 256 bytes).
func (k *KeyPair) Sign(domain string, msg []byte) Signature {
	var buf [256]byte
	return k.sign(signingInput(buf[:0], domain, msg))
}

func (k *KeyPair) sign(input []byte) Signature {
	s := Signature{Signer: k.Index}
	copy(s.Bytes[:], ed25519.Sign(k.private, input))
	return s
}

// Registry is one run's verification registry (see the package comment).
type Registry struct {
	keys     []ed25519.PublicKey
	verdicts map[verdictKey]bool // accept or reject
	judged   int                 // Ed25519 verifications Verify ran
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

// Len is the authority count, Memoised the Ed25519 verifications Verify has
// run: one per distinct signature Registry.Sign did not file.
func (r *Registry) Len() int      { return len(r.keys) }
func (r *Registry) Memoised() int { return r.judged }

// Sign signs as k.Sign does and, when the registry holds k's own key at
// k.Index, files the accept verdict on the signature for the key Verify will
// look it up by. The key compared is the public half of k's private key, not
// the exported k.Public, so a key pair whose Public was changed cannot vouch
// for itself. If k has signed the input through a registry before, or is
// signing it for another registry now, the signature is k's memo's and Sign
// runs no Ed25519 (it waits for the signer, if any). For a signer outside the
// registry or a registry holding another key at k's index, it files nothing
// and the signature is judged when first verified.
func (r *Registry) Sign(k *KeyPair, domain string, msg []byte) Signature {
	if k.Index < 0 || k.Index >= len(r.keys) || !r.keys[k.Index].Equal(ed25519.PublicKey(k.private[ed25519.SeedSize:])) {
		return k.Sign(domain, msg)
	}
	var buf [256]byte
	input := signingInput(buf[:0], domain, msg)
	h := Hash(input)
	s := Signature{Signer: k.Index, Bytes: k.memoSign(h, input)}
	r.verdicts[verdictKey{h, s}] = true
	return s
}

// Verify checks a signature against the registry (indexed by authority). It
// returns false for out-of-range signers, before any lookup. domain‖0‖msg is
// built in a stack buffer (on the heap only past 256 bytes), so a verdict on
// file allocates nothing.
func Verify(r *Registry, domain string, msg []byte, s Signature) bool {
	if s.Signer < 0 || s.Signer >= len(r.keys) {
		return false
	}
	var buf [256]byte
	input := signingInput(buf[:0], domain, msg)
	key := verdictKey{Hash(input), s}
	ok, judged := r.verdicts[key]
	if !judged {
		ok = ed25519.Verify(r.keys[s.Signer], input, s.Bytes[:])
		r.verdicts[key] = ok
		r.judged++
	}
	return ok
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
	held    []tallied // by signer
	n       int       // signers on record
}

type tallied struct {
	digest Digest
	sig    Signature
	ok     bool // on record
}

// NewTally returns an empty tally of signatures under domain by the
// authorities in publics.
func NewTally(publics *Registry, domain string) *Tally {
	return &Tally{publics: publics, domain: domain, held: make([]tallied, publics.Len())}
}

// Sign records and returns k's own signature over digest; k is one of the
// authorities in publics.
func (t *Tally) Sign(k *KeyPair, digest Digest) Signature {
	s := t.publics.Sign(k, t.domain, digest[:])
	t.record(k.Index, digest, s)
	return s
}

// Add takes a signature over digest that arrived as authority from's. valid
// reports that from signed it and it verifies; added that it was recorded,
// which a second signature from the same signer is not.
func (t *Tally) Add(from int, digest Digest, s Signature) (valid, added bool) {
	if s.Signer != from || !Verify(t.publics, t.domain, digest[:], s) {
		return false, false
	}
	if t.held[from].ok {
		return true, false
	}
	t.record(from, digest, s)
	return true, true
}

func (t *Tally) record(signer int, digest Digest, s Signature) {
	if !t.held[signer].ok {
		t.n++
	}
	t.held[signer] = tallied{digest, s, true}
}

// Len returns the number of signers on record.
func (t *Tally) Len() int { return t.n }

// Lookup returns the digest and signature on record for signer.
func (t *Tally) Lookup(signer int) (Digest, Signature, bool) {
	if signer < 0 || signer >= len(t.held) {
		return Digest{}, Signature{}, false
	}
	h := t.held[signer]
	return h.digest, h.sig, h.ok
}

// Matching counts the recorded signatures that are over digest.
func (t *Tally) Matching(digest Digest) int {
	n := 0
	for _, h := range t.held {
		if h.ok && h.digest == digest {
			n++
		}
	}
	return n
}
