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
// signature. A signature made through the registry (Registry.Sign) is judged
// ahead of need: it files a pending verdict for that key and hands it to a
// background judge, at most GOMAXPROCS−1 of them per registry, started on
// first use and gone when their queue drains. Verify takes a pending verdict
// when it is ready, or judges it inline if no judge has started on it.
//
// Ed25519 signing is deterministic (RFC 8032), so a signature is a pure
// function of (key, input): each KeyPair remembers the pending record
// Registry.Sign filed for each input it signed, and a later registry signing
// that input again under that key files the same record, runs no Ed25519 and
// hands nothing to a judge. The first registry to miss an input signs it
// under the memo's mutex, so concurrent runs on one key set sign each input
// once between them. Only Registry.Sign reads or writes the memo; a
// signature that arrives from elsewhere, forged and relabelled ones
// included, is judged per run as before.
//
// A Registry is run-scoped: no Registry is shared between concurrent runs or
// sweep cells nor outlives its run, and its maps are touched by the run's one
// goroutine alone. A key pair's memo lives as long as the key pair, so it is
// shared by every run on one key set (harness.Inputs keeps one per inputs
// entry). The state crossing goroutines is each pending verdict, published
// through its sync.Once, the mutex-guarded queue that hands it to a judge and
// each key pair's mutex-guarded memo: a judge writes the verdict of the
// record it judges and, under the mutex, the queue, nothing else; a record
// is complete before it enters a memo and never written after, but for its
// verdict.
package sig

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"runtime"
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

// signMemo is a key pair's signatures made through Registry.Sign: the
// pending record filed for each, by SHA-256 of the domain‖0‖msg it signs.
// The map is made at the first record, so a key pair that never signs
// through a registry allocates nothing for it.
type signMemo struct {
	mu sync.Mutex
	m  map[Digest]*pending
}

// record returns the record on file for input, whose SHA-256 is h. With none
// on file it signs input and files the new record, made true, all under the
// memo's mutex: a concurrent run signing the same input waits for that
// record instead of running Ed25519 a second time.
func (k *KeyPair) record(h Digest, input []byte) (p *pending, made bool) {
	k.memo.mu.Lock()
	defer k.memo.mu.Unlock()
	if p = k.memo.m[h]; p != nil {
		return p, false
	}
	p = &pending{signer: int32(k.Index), n: uint8(len(input)), sig: k.sign(input).Bytes}
	copy(p.input[:], input)
	if k.memo.m == nil {
		k.memo.m = make(map[Digest]*pending)
	}
	k.memo.m[h] = p
	return p, true
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
	verdicts map[verdictKey]*pending // accepted, rejected or a pending verdict
	judged   int                     // keys whose verdict Verify has taken
	judges   judges
}

type verdictKey struct {
	input Digest    // SHA-256 of domain‖0‖msg
	sig   Signature // signer and bytes
}

// PublicSet builds a run's verification registry from its key pairs.
func PublicSet(keys []*KeyPair) *Registry {
	r := &Registry{verdicts: make(map[verdictKey]*pending)}
	for _, k := range keys {
		r.keys = append(r.keys, k.Public)
	}
	r.judges.max = runtime.GOMAXPROCS(0) - 1
	return r
}

// Len is the authority count, Memoised the distinct signatures judged so far
// for a Verify caller, whether a background judge or Verify itself ran
// Ed25519 on them.
func (r *Registry) Len() int      { return len(r.keys) }
func (r *Registry) Memoised() int { return r.judged }

// Sign signs as k.Sign does and files a pending verdict on the signature for
// the key Verify will look it up by. If k has signed the input through a
// registry before, or is signing it for another registry now, the signature
// and the record are k's memo's: Sign runs no Ed25519 (it waits for the
// signer, if any) and hands nothing to a judge. Otherwise it signs, records
// the signature in k's memo and, with a spare core, hands the record to a
// background judge, which settles it while the run goes on; on one core
// (GOMAXPROCS 1) the record is judged when first verified. For a signer
// outside the registry, a registry holding another key at k's index or an
// input past a pending record's storage, it files nothing and the signature
// is judged when first verified.
func (r *Registry) Sign(k *KeyPair, domain string, msg []byte) Signature {
	n := len(domain) + 1 + len(msg)
	if n > pendingInput || k.Index < 0 || k.Index >= len(r.keys) || !r.keys[k.Index].Equal(k.Public) {
		return k.Sign(domain, msg)
	}
	var buf [pendingInput]byte
	input := signingInput(buf[:0], domain, msg)
	h := Hash(input)
	p, made := k.record(h, input)
	s := Signature{Signer: k.Index, Bytes: p.sig}
	key := verdictKey{h, s}
	if _, seen := r.verdicts[key]; !seen {
		r.verdicts[key] = p
		if made && r.judges.max > 0 {
			r.judges.hand(p, r.keys)
		}
	}
	return s
}

// Verify checks a signature against the registry (indexed by authority). It
// returns false for out-of-range signers, before any lookup. domain‖0‖msg is
// built in a stack buffer (on the heap only past 256 bytes), so a verdict
// already taken allocates nothing.
func Verify(r *Registry, domain string, msg []byte, s Signature) bool {
	if s.Signer < 0 || s.Signer >= len(r.keys) {
		return false
	}
	var buf [256]byte
	input := signingInput(buf[:0], domain, msg)
	key := verdictKey{Hash(input), s}
	p := r.verdicts[key]
	if p == accepted || p == rejected {
		return p == accepted
	}
	var ok bool
	if p != nil {
		ok = p.judge(r.keys)
	} else {
		ok = ed25519.Verify(r.keys[s.Signer], input, s.Bytes[:])
	}
	if ok {
		r.verdicts[key] = accepted
	} else {
		r.verdicts[key] = rejected
	}
	r.judged++
	return ok
}

// pendingInput is the longest domain‖0‖msg a pending record holds: the
// longest protocol input, a HotStuff vote's, is 85 bytes, and 94 makes the
// record 176 bytes, an allocation size class.
const pendingInput = 94

// pending is a verdict filed by Registry.Sign: the signature and the exact
// bytes it signs, judged once, by a background judge or by Verify of any run
// that filed it, whichever claims it first.
type pending struct {
	once   sync.Once
	signer int32
	ok     bool  // the verdict, written inside once
	n      uint8 // len(domain‖0‖msg)
	sig    [SignatureSize]byte
	input  [pendingInput]byte
}

// accepted and rejected stand for every verdict already taken: a judged key
// points at one of them, so a settled verdict holds no record of its own.
// Neither is ever judged or written.
var accepted, rejected = new(pending), new(pending)

// judge runs Ed25519 on the record once and returns the verdict; a second
// caller waits for the first.
func (p *pending) judge(keys []ed25519.PublicKey) bool {
	p.once.Do(func() { p.ok = ed25519.Verify(keys[p.signer], p.input[:p.n], p.sig[:]) })
	return p.ok
}

// judges is a registry's background verification: a queue of pending records
// and at most max goroutines draining it, each started when a record arrives
// while fewer than max run, and each exiting when it finds the queue empty.
// Judges take the newest record first: the run verifies roughly in signing
// order, so it judges the old end inline while the judges work from the new
// one, and the two seldom wait on one record.
type judges struct {
	max     int // GOMAXPROCS−1 when the registry was built
	mu      sync.Mutex
	queue   []*pending
	running int
}

func (j *judges) hand(p *pending, keys []ed25519.PublicKey) {
	j.mu.Lock()
	j.queue = append(j.queue, p)
	start := j.running < j.max
	if start {
		j.running++
	}
	j.mu.Unlock()
	if start {
		go j.drain(keys)
	}
}

func (j *judges) drain(keys []ed25519.PublicKey) {
	for {
		j.mu.Lock()
		last := len(j.queue) - 1
		if last < 0 {
			j.running--
			j.mu.Unlock()
			return
		}
		p := j.queue[last]
		j.queue[last] = nil
		j.queue = j.queue[:last]
		j.mu.Unlock()
		p.judge(keys)
	}
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
