// Package syncdir reimplements the synchronous directory protocol proposed
// by Luo et al. (S&P '24), the second baseline of the paper (Figure 5):
//
//  1. Propose round: every authority sends its relay list (document, size d)
//     to every other authority.
//  2. Vote round: every authority packs *all* documents it received into a
//     vote bundle (size ≈ n·d) and sends it to every other authority — the
//     O(n³d) term of Table 1.
//  3. Synchronize rounds: a Dolev–Strong style authenticated broadcast over
//     f+1 rounds (f = ⌊(n−1)/2⌋) agrees on one vote bundle (the designated
//     leader's); signature chains are the O(n⁴κ) term.
//
// The consensus document is aggregated from the lists inside the agreed
// bundle, then signed; a run succeeds for an authority iff exactly one
// digest was extracted, the matching bundle was received *within its round
// deadline*, and a majority of consensus signatures match.
//
// Like the current protocol, every step has a bounded-synchrony deadline;
// because the vote round moves n·d bytes, this protocol collapses at far
// smaller relay counts than dirv3 — exactly what the paper's Figure 10
// reports.
package syncdir

import (
	"time"

	"partialtor/internal/obs"
	"partialtor/internal/sig"
	"partialtor/internal/simnet"
	"partialtor/internal/vote"
)

// DefaultRound is the lock-step round length (150 s, as deployed).
const DefaultRound = 150 * time.Second

// leader is the designated Dolev-Strong sender.
const leader = 0

// Signature domains.
const (
	domainDoc   = "syncdir/doc"
	domainChain = "syncdir/chain"
	domainCons  = "syncdir/consensus"
)

// Config describes one run.
type Config struct {
	Keys []*sig.KeyPair
	Docs []*vote.Document
	// Round is the document/vote round length; 0 means DefaultRound.
	Round time.Duration
	// EquivocateLeader makes the leader Byzantine: it builds two different
	// bundles and initiates signature chains for both, one per peer parity.
	EquivocateLeader bool
}

func (c *Config) n() int { return len(c.Keys) }

// Majority is ⌊n/2⌋+1.
func (c *Config) Majority() int { return sig.Majority(c.n()) }

// MaxFaults is the synchronous tolerance f = ⌊(n−1)/2⌋ (4 of 9).
func (c *Config) MaxFaults() int { return (c.n() - 1) / 2 }

func (c *Config) round() time.Duration {
	if c.Round > 0 {
		return c.Round
	}
	return DefaultRound
}

// dsStart is when the synchronize phase begins.
func (c *Config) dsStart() time.Duration { return 2 * c.round() }

// dsEnd is when the Dolev-Strong extraction closes (after f+1 rounds).
func (c *Config) dsEnd() time.Duration {
	return c.dsStart() + time.Duration(c.MaxFaults()+1)*c.round()
}

// EndTime is when the run is decided (one signature round after dsEnd).
func (c *Config) EndTime() time.Duration { return c.dsEnd() + c.round() }

// --- messages ---

const msgHeader = 16

type msgDoc struct {
	Doc *vote.Document
	Sig sig.Signature
}

func (m *msgDoc) Size() int64  { return m.Doc.EncodedSize() + sig.WireSize + msgHeader }
func (m *msgDoc) Kind() string { return "syncdir/doc" }

// msgBundle is a "vote" in Luo et al.'s terminology: all documents the
// sender received, with their original signatures.
type msgBundle struct {
	From    int
	Docs    []*vote.Document
	DocSigs []sig.Signature
	Digest  sig.Digest // bundle digest (hash of doc digests)
}

func (m *msgBundle) Size() int64 {
	var total int64 = msgHeader + sig.DigestSize + 8
	for _, d := range m.Docs {
		total += d.EncodedSize() + sig.WireSize
	}
	return total
}
func (m *msgBundle) Kind() string { return "syncdir/bundle" }

// msgChain is a Dolev-Strong signature chain over a bundle digest.
type msgChain struct {
	Digest sig.Digest
	Chain  []sig.Signature
}

func (m *msgChain) Size() int64 {
	return msgHeader + sig.DigestSize + int64(len(m.Chain))*sig.WireSize
}
func (m *msgChain) Kind() string { return "syncdir/chain" }

type msgConsSig struct {
	Digest sig.Digest
	Sig    sig.Signature
}

func (m *msgConsSig) Size() int64  { return msgHeader + sig.DigestSize + sig.WireSize }
func (m *msgConsSig) Kind() string { return "syncdir/sig" }

// bundleDigest hashes the ordered document digests.
func bundleDigest(docs []*vote.Document) sig.Digest {
	parts := make([][]byte, 0, len(docs))
	for _, d := range docs {
		dg := d.Digest()
		parts = append(parts, dg[:])
	}
	return sig.HashParts(parts...)
}

// --- authority ---

// Authority is one directory authority running the synchronous protocol.
type Authority struct {
	cfg   *Config
	index int
	me    *sig.KeyPair
	pubs  *sig.Registry
	doc   *vote.Document

	docs    map[int]*vote.Document
	docSigs map[int]sig.Signature

	leaderBundle   *msgBundle
	leaderBundleAt time.Duration

	extracted   map[sig.Digest]bool
	extractedAt time.Duration
	relayed     map[sig.Digest]bool

	consensus  *vote.Consensus
	consDigest sig.Digest
	sigs       *sig.Tally

	docsFullAt time.Duration
	sigsFullAt time.Duration

	decidedBottom bool
	finalSigCount int // matching signatures held when the run was decided
}

// NewAuthorities constructs the authority set; authority i must be node i.
func NewAuthorities(cfg Config) []*Authority {
	if len(cfg.Docs) != cfg.n() {
		panic("syncdir: len(Docs) != len(Keys)")
	}
	pubs := sig.PublicSet(cfg.Keys)
	out := make([]*Authority, cfg.n())
	for i := range out {
		out[i] = &Authority{
			cfg:            &cfg,
			index:          i,
			me:             cfg.Keys[i],
			pubs:           pubs,
			doc:            cfg.Docs[i],
			docs:           make(map[int]*vote.Document),
			docSigs:        make(map[int]sig.Signature),
			extracted:      make(map[sig.Digest]bool),
			relayed:        make(map[sig.Digest]bool),
			sigs:           sig.NewTally(pubs, domainCons),
			docsFullAt:     simnet.Never,
			sigsFullAt:     simnet.Never,
			leaderBundleAt: simnet.Never,
			extractedAt:    simnet.Never,
		}
	}
	return out
}

func signDoc(pubs *sig.Registry, k *sig.KeyPair, d *vote.Document) sig.Signature {
	dg := d.Digest()
	return pubs.Sign(k, domainDoc, dg[:])
}

// Start kicks off the propose round and schedules the rest.
func (a *Authority) Start(ctx *simnet.Context) {
	a.docs[a.index] = a.doc
	a.docSigs[a.index] = signDoc(a.pubs, a.me, a.doc)
	ctx.Logf("notice", "Propose round: sending relay list.")
	ctx.Trace(obs.Event{Type: obs.EvPhase, Label: "propose"})
	ctx.Broadcast(&msgDoc{Doc: a.doc, Sig: a.docSigs[a.index]})
	ctx.At(a.cfg.round(), func() { a.voteRound(ctx) })
	ctx.At(a.cfg.dsStart(), func() { a.startSync(ctx) })
	ctx.At(a.cfg.dsEnd(), func() { a.decide(ctx) })
	ctx.At(a.cfg.EndTime(), func() { a.finish(ctx) })
}

// voteRound packs every document received so far into a bundle and sends it
// to everyone.
func (a *Authority) voteRound(ctx *simnet.Context) {
	mk := func(docs map[int]*vote.Document) *msgBundle {
		b := &msgBundle{From: a.index}
		for i := 0; i < a.cfg.n(); i++ {
			if d, ok := docs[i]; ok {
				b.Docs = append(b.Docs, d)
				b.DocSigs = append(b.DocSigs, a.docSigs[i])
			}
		}
		b.Digest = bundleDigest(b.Docs)
		return b
	}
	full := mk(a.docs)
	ctx.Logf("notice", "Vote round: bundling %d documents.", len(full.Docs))
	ctx.Trace(obs.Event{Type: obs.EvPhase, Label: "vote"})
	if a.cfg.EquivocateLeader && a.index == leader && len(a.docs) > 1 {
		// Byzantine leader: odd peers get a truncated bundle.
		partial := make(map[int]*vote.Document)
		count := 0
		for i := 0; i < a.cfg.n() && count < len(a.docs)-1; i++ {
			if d, ok := a.docs[i]; ok {
				partial[i] = d
				count++
			}
		}
		a.equivocate(ctx, full, mk(partial))
	} else {
		ctx.Broadcast(full)
	}
	if a.index == leader {
		a.leaderBundle = full
		a.leaderBundleAt = ctx.Now()
	}
}

// equivocate is the Byzantine leader's split: even to every even-numbered
// peer, then odd to every odd-numbered one.
func (a *Authority) equivocate(ctx *simnet.Context, even, odd simnet.Message) {
	for parity, m := range []simnet.Message{even, odd} {
		for p := parity; p < ctx.N(); p += 2 {
			if p != a.index {
				ctx.Send(simnet.NodeID(p), m)
			}
		}
	}
}

// startSync begins the Dolev-Strong broadcast of the leader's bundle digest.
func (a *Authority) startSync(ctx *simnet.Context) {
	if a.index != leader || a.leaderBundle == nil {
		return
	}
	ctx.Logf("notice", "Synchronize rounds: broadcasting bundle digest %s.", a.leaderBundle.Digest.Short())
	ctx.Trace(obs.Event{Type: obs.EvPhase, Label: "synchronize"})
	mark := func(d sig.Digest) *msgChain {
		a.extracted[d] = true
		a.relayed[d] = true
		return &msgChain{Digest: d, Chain: []sig.Signature{a.pubs.Sign(a.me, domainChain, d[:])}}
	}
	full := mark(a.leaderBundle.Digest)
	if a.cfg.EquivocateLeader {
		// The alternate digest corresponds to the truncated bundle sent to
		// odd peers during the vote round.
		altDocs := a.leaderBundle.Docs[:len(a.leaderBundle.Docs)-1]
		a.equivocate(ctx, full, mark(bundleDigest(altDocs)))
		return
	}
	ctx.Broadcast(full)
}

// Deliver dispatches protocol messages.
func (a *Authority) Deliver(ctx *simnet.Context, from simnet.NodeID, msg simnet.Message) {
	switch m := msg.(type) {
	case *msgDoc:
		a.acceptDoc(ctx, m)
	case *msgBundle:
		a.acceptBundle(ctx, m)
	case *msgChain:
		a.acceptChain(ctx, m)
	case *msgConsSig:
		a.acceptConsSig(ctx, int(from), m)
	}
}

func (a *Authority) acceptDoc(ctx *simnet.Context, m *msgDoc) {
	idx := m.Doc.AuthorityIndex
	if idx < 0 || idx >= a.cfg.n() || idx == a.index {
		return
	}
	dg := m.Doc.Digest()
	if m.Sig.Signer != idx || !sig.Verify(a.pubs, domainDoc, dg[:], m.Sig) {
		ctx.Logf("warn", "Rejecting document with bad signature from %d.", idx)
		return
	}
	if _, ok := a.docs[idx]; ok {
		return
	}
	a.docs[idx] = m.Doc
	a.docSigs[idx] = m.Sig
	ctx.Trace(obs.Event{Type: obs.EvVote, Peer: idx, A: int64(len(a.docs))})
	if len(a.docs) == a.cfg.n() && a.docsFullAt == simnet.Never {
		a.docsFullAt = ctx.Now()
	}
}

// acceptBundle keeps the leader's bundle — but only when it arrives within
// the vote round, the bounded-synchrony deadline this protocol relies on.
func (a *Authority) acceptBundle(ctx *simnet.Context, m *msgBundle) {
	if m.From != leader || a.leaderBundle != nil {
		return
	}
	if ctx.Now() >= a.cfg.dsStart() {
		ctx.Logf("warn", "Leader bundle arrived after the vote round deadline; discarding.")
		ctx.Trace(obs.Event{Type: obs.EvTimeout, Label: "late-bundle"})
		return
	}
	if len(m.Docs) != len(m.DocSigs) || len(m.Docs) < a.cfg.Majority() {
		ctx.Logf("warn", "Leader bundle invalid: %d documents.", len(m.Docs))
		return
	}
	for i, d := range m.Docs {
		dg := d.Digest()
		if m.DocSigs[i].Signer != d.AuthorityIndex || !sig.Verify(a.pubs, domainDoc, dg[:], m.DocSigs[i]) {
			ctx.Logf("warn", "Leader bundle contains a bad document signature.")
			return
		}
	}
	if bundleDigest(m.Docs) != m.Digest {
		ctx.Logf("warn", "Leader bundle digest mismatch.")
		return
	}
	a.leaderBundle = m
	a.leaderBundleAt = ctx.Now()
}

// acceptChain applies the Dolev-Strong acceptance rule: a chain of k
// distinct valid signatures, starting with the leader, must arrive before
// the end of synchronize round k.
func (a *Authority) acceptChain(ctx *simnet.Context, m *msgChain) {
	k := len(m.Chain)
	if k == 0 || k > a.cfg.MaxFaults()+1 {
		return
	}
	deadline := a.cfg.dsStart() + time.Duration(k)*a.cfg.round()
	if ctx.Now() > deadline {
		return
	}
	if m.Chain[0].Signer != leader {
		return
	}
	if sig.VerifyQuorum(a.pubs, domainChain, m.Digest[:], m.Chain, k) != nil {
		return
	}
	if a.extracted[m.Digest] {
		return
	}
	a.extracted[m.Digest] = true
	if a.extractedAt == simnet.Never {
		a.extractedAt = ctx.Now()
	}
	if a.relayed[m.Digest] {
		return
	}
	for _, s := range m.Chain {
		if s.Signer == a.index {
			return
		}
	}
	a.relayed[m.Digest] = true
	ext := &msgChain{Digest: m.Digest, Chain: append(append([]sig.Signature{}, m.Chain...),
		a.pubs.Sign(a.me, domainChain, m.Digest[:]))}
	ctx.Broadcast(ext)
}

// decide closes the extraction: exactly one digest means agreement on the
// leader's bundle; anything else is ⊥ (a detectably faulty leader).
func (a *Authority) decide(ctx *simnet.Context) {
	ctx.Trace(obs.Event{Type: obs.EvPhase, Label: "decide"})
	if len(a.extracted) != 1 {
		a.decidedBottom = true
		ctx.Logf("warn", "Dolev-Strong extracted %d values; outputting bottom.", len(a.extracted))
		return
	}
	var agreed sig.Digest
	//detlint:maporder ok(guarded singleton: the len check above returned unless extracted holds exactly one digest)
	for d := range a.extracted {
		agreed = d
	}
	if a.leaderBundle == nil || a.leaderBundle.Digest != agreed {
		ctx.Logf("warn", "Agreed on digest %s but do not hold a matching bundle in time.", agreed.Short())
		return
	}
	cons, err := vote.AggregateShared(a.leaderBundle.Docs, a.cfg.n())
	if err != nil {
		ctx.Logf("warn", "Aggregation failed: %v", err)
		return
	}
	a.consensus = cons
	a.consDigest = cons.Digest()
	own := a.sigs.Sign(a.me, a.consDigest)
	ctx.Logf("notice", "Consensus computed from agreed bundle (%d documents); digest %s.",
		len(a.leaderBundle.Docs), a.consDigest.Short())
	ctx.Broadcast(&msgConsSig{Digest: a.consDigest, Sig: own})
}

func (a *Authority) acceptConsSig(ctx *simnet.Context, from int, m *msgConsSig) {
	if from == a.index {
		return
	}
	if _, added := a.sigs.Add(from, m.Digest, m.Sig); added && a.sigs.Len() == a.cfg.n() && a.sigsFullAt == simnet.Never {
		a.sigsFullAt = ctx.Now()
	}
}

func (a *Authority) finish(ctx *simnet.Context) {
	ctx.Trace(obs.Event{Type: obs.EvPhase, Label: "publish"})
	if a.consensus == nil {
		ctx.Logf("warn", "No consensus was computed this period.")
		return
	}
	matching := a.sigs.Matching(a.consDigest)
	a.finalSigCount = matching
	if matching >= a.cfg.Majority() {
		ctx.Logf("notice", "Consensus published with %d of %d signatures.", matching, a.cfg.n())
	} else {
		ctx.Logf("warn", "Only %d matching signatures; consensus not valid.", matching)
	}
}

// Record reports the authority's part in the run: the consensus it
// aggregated from the agreed bundle, the matching signatures it held when
// the run was decided, whether they were a majority (it published), and its
// latency: when it held every document, plus how long past each later
// phase's start it took to hold the leader's bundle, extract a digest and
// hold every signature (simnet.Never unless all four happened).
func (a *Authority) Record() (*vote.Consensus, int, bool, time.Duration) {
	lat := simnet.Never
	if a.docsFullAt != simnet.Never && a.leaderBundleAt != simnet.Never &&
		a.extractedAt != simnet.Never && a.sigsFullAt != simnet.Never {
		lat = a.docsFullAt +
			max(0, a.leaderBundleAt-a.cfg.round()) +
			max(0, a.extractedAt-a.cfg.dsStart()) +
			max(0, a.sigsFullAt-a.cfg.dsEnd())
	}
	return a.consensus, a.finalSigCount, a.finalSigCount >= a.cfg.Majority(), lat
}
