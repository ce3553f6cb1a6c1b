// Package dirv3 reimplements the current Tor directory protocol, version 3
// (dir-spec §3; paper Figure 4): four lock-step rounds of 150 seconds each.
//
//  1. Perform vote  (t = 0):    every authority sends its status vote to all.
//  2. Fetch votes   (t = 150s): missing votes are requested from *every*
//     other authority — the amplification that matters under DDoS.
//  3. Send signature (t = 300s): with a majority of votes held, the
//     authority aggregates a consensus, signs its digest, sends it to all.
//  4. Fetch signatures (t = 450s): missing signatures are requested from all.
//
// At t = 600s the run succeeds for an authority iff it computed a consensus
// and holds a majority of signatures on *its* digest. The protocol assumes
// bounded synchrony: data that misses a round deadline is useless, which is
// exactly what the paper's attack exploits.
//
// Authority logs mirror the real implementation's lines (paper Figure 1).
package dirv3

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"partialtor/internal/obs"
	"partialtor/internal/sig"
	"partialtor/internal/simnet"
	"partialtor/internal/vote"
)

// DefaultRound is the deployed round length (150 seconds).
const DefaultRound = 150 * time.Second

// DefaultFetchTimeout is how long an authority waits on a fetch before
// logging that it gives up on a peer (the request itself stays outstanding;
// late responses within the round are still used).
const DefaultFetchTimeout = 30 * time.Second

// Signature domains.
const (
	domainVote      = "dirv3/vote"
	domainConsensus = "dirv3/consensus"
)

// Config describes one protocol run.
type Config struct {
	// Keys are the long-term identities of all authorities.
	Keys []*sig.KeyPair
	// Docs holds each authority's input vote document.
	Docs []*vote.Document
	// Round is the lock-step round length; 0 means DefaultRound.
	Round time.Duration
	// FetchTimeout is the per-peer give-up delay; 0 means default.
	FetchTimeout time.Duration
	// Equivocators maps a Byzantine authority index to the alternate vote
	// it sends to odd-numbered peers (the Luo et al. equivocation attack).
	Equivocators map[int]*vote.Document
}

func (c *Config) n() int { return len(c.Keys) }

// Majority is the signature/vote threshold: ⌊n/2⌋+1 (5 of 9).
func (c *Config) Majority() int { return sig.Majority(c.n()) }

func (c *Config) round() time.Duration {
	if c.Round > 0 {
		return c.Round
	}
	return DefaultRound
}

func (c *Config) fetchTimeout() time.Duration {
	if c.FetchTimeout > 0 {
		return c.FetchTimeout
	}
	return DefaultFetchTimeout
}

// EndTime is when the run is decided (end of round 4).
func (c *Config) EndTime() time.Duration { return 4 * c.round() }

// --- messages ---

const msgHeader = 16 // fixed framing for size accounting

type msgVote struct {
	Doc *vote.Document
	Sig sig.Signature
}

func (m *msgVote) Size() int64  { return m.Doc.EncodedSize() + sig.WireSize + msgHeader }
func (m *msgVote) Kind() string { return "dirv3/vote" }

type msgVoteRequest struct{ Want int }

func (m *msgVoteRequest) Size() int64  { return 64 }
func (m *msgVoteRequest) Kind() string { return "dirv3/vote-req" }

type msgVoteResponse struct {
	Doc *vote.Document
	Sig sig.Signature
}

func (m *msgVoteResponse) Size() int64  { return m.Doc.EncodedSize() + sig.WireSize + msgHeader }
func (m *msgVoteResponse) Kind() string { return "dirv3/vote-resp" }

type msgSig struct {
	Digest sig.Digest
	Sig    sig.Signature
}

func (m *msgSig) Size() int64  { return sig.DigestSize + sig.WireSize + msgHeader }
func (m *msgSig) Kind() string { return "dirv3/sig" }

type msgSigRequest struct{ Want int }

func (m *msgSigRequest) Size() int64  { return 64 }
func (m *msgSigRequest) Kind() string { return "dirv3/sig-req" }

type msgSigResponse struct {
	Of     int
	Digest sig.Digest
	Sig    sig.Signature
}

func (m *msgSigResponse) Size() int64  { return sig.DigestSize + sig.WireSize + msgHeader + 8 }
func (m *msgSigResponse) Kind() string { return "dirv3/sig-resp" }

// --- authority ---

// Authority is one directory authority running the v3 protocol. It
// implements simnet.Handler; node IDs must equal authority indices.
type Authority struct {
	cfg   *Config
	index int
	me    *sig.KeyPair
	pubs  *sig.Registry
	doc   *vote.Document

	votes    map[int]*vote.Document
	voteSigs map[int]sig.Signature
	sigs     *sig.Tally

	consensus  *vote.Consensus
	consDigest sig.Digest

	voteFullAt time.Duration
	sigFullAt  time.Duration

	respondedSinceFetch map[simnet.NodeID]bool
	fetchedMissing      []int

	finalSigCount int // matching signatures held when the run was decided
}

// NewAuthorities constructs the authority set for a run. The i-th authority
// must be attached to node i of the network.
func NewAuthorities(cfg Config) []*Authority {
	if len(cfg.Docs) != cfg.n() {
		panic("dirv3: len(Docs) != len(Keys)")
	}
	pubs := sig.PublicSet(cfg.Keys)
	out := make([]*Authority, cfg.n())
	for i := range out {
		out[i] = &Authority{
			cfg:                 &cfg,
			index:               i,
			me:                  cfg.Keys[i],
			pubs:                pubs,
			doc:                 cfg.Docs[i],
			votes:               make(map[int]*vote.Document),
			voteSigs:            make(map[int]sig.Signature),
			sigs:                sig.NewTally(pubs, domainConsensus),
			voteFullAt:          simnet.Never,
			sigFullAt:           simnet.Never,
			respondedSinceFetch: make(map[simnet.NodeID]bool),
		}
	}
	return out
}

func signDoc(pubs *sig.Registry, k *sig.KeyPair, d *vote.Document) sig.Signature {
	dg := d.Digest()
	return pubs.Sign(k, domainVote, dg[:])
}

// Start begins round 1 and schedules the remaining rounds.
func (a *Authority) Start(ctx *simnet.Context) {
	a.votes[a.index] = a.doc
	a.voteSigs[a.index] = signDoc(a.pubs, a.me, a.doc)
	ctx.Logf("notice", "Time to vote.")
	ctx.Trace(obs.Event{Type: obs.EvPhase, Label: "vote"})
	own := &msgVote{Doc: a.doc, Sig: a.voteSigs[a.index]}
	byParity := [2]*msgVote{own, own}
	if alt := a.cfg.Equivocators[a.index]; alt != nil {
		byParity[1] = &msgVote{Doc: alt, Sig: signDoc(a.pubs, a.me, alt)}
	}
	for p := 0; p < ctx.N(); p++ {
		if p != a.index {
			ctx.Send(simnet.NodeID(p), byParity[p%2])
		}
	}
	r := a.cfg.round()
	ctx.At(1*r, func() { a.fetchVotes(ctx) })
	ctx.At(2*r, func() { a.computeConsensus(ctx) })
	ctx.At(3*r, func() { a.fetchSignatures(ctx) })
	ctx.At(4*r, func() { a.finish(ctx) })
}

// Deliver dispatches protocol messages.
func (a *Authority) Deliver(ctx *simnet.Context, from simnet.NodeID, msg simnet.Message) {
	switch m := msg.(type) {
	case *msgVote:
		a.acceptVote(ctx, m.Doc, m.Sig)
	case *msgVoteResponse:
		a.respondedSinceFetch[from] = true
		a.acceptVote(ctx, m.Doc, m.Sig)
	case *msgVoteRequest:
		if d, ok := a.votes[m.Want]; ok {
			ctx.Send(from, &msgVoteResponse{Doc: d, Sig: a.voteSigs[m.Want]})
		}
	case *msgSig:
		a.acceptSig(ctx, int(from), m.Digest, m.Sig)
	case *msgSigResponse:
		a.acceptSig(ctx, m.Of, m.Digest, m.Sig)
	case *msgSigRequest:
		if digest, s, ok := a.sigs.Lookup(m.Want); ok {
			ctx.Send(from, &msgSigResponse{Of: m.Want, Digest: digest, Sig: s})
		}
	}
}

func (a *Authority) acceptVote(ctx *simnet.Context, d *vote.Document, s sig.Signature) {
	idx := d.AuthorityIndex
	if idx < 0 || idx >= a.cfg.n() || idx == a.index {
		return
	}
	dg := d.Digest()
	if s.Signer != idx || !sig.Verify(a.pubs, domainVote, dg[:], s) {
		ctx.Logf("warn", "Rejecting vote with bad signature claimed from authority %d.", idx)
		return
	}
	if have, ok := a.votes[idx]; ok {
		if have.Digest() != dg {
			ctx.Logf("warn", "Authority %d equivocated: conflicting votes %s vs %s.",
				idx, have.Digest().Short(), dg.Short())
		}
		return
	}
	a.votes[idx] = d
	a.voteSigs[idx] = s
	ctx.Trace(obs.Event{Type: obs.EvVote, Peer: idx, A: int64(len(a.votes))})
	if len(a.votes) == a.cfg.n() && a.voteFullAt == simnet.Never {
		a.voteFullAt = ctx.Now()
	}
}

func (a *Authority) acceptSig(ctx *simnet.Context, of int, digest sig.Digest, s sig.Signature) {
	if of < 0 || of >= a.cfg.n() || of == a.index {
		return
	}
	valid, added := a.sigs.Add(of, digest, s)
	if !valid {
		ctx.Logf("warn", "Rejecting consensus signature claimed from authority %d.", of)
		return
	}
	if added && a.sigs.Len() == a.cfg.n() && a.sigFullAt == simnet.Never {
		a.sigFullAt = ctx.Now()
	}
}

// authorityAddr renders the address used in "giving up" log lines, matching
// the test-network layout of the paper's Figure 1.
func authorityAddr(i int) string { return fmt.Sprintf("100.0.0.%d:8080", i+1) }

func (a *Authority) fetchVotes(ctx *simnet.Context) {
	ctx.Logf("notice", "Time to fetch any votes that we're missing.")
	ctx.Trace(obs.Event{Type: obs.EvPhase, Label: "fetch-votes"})
	var missing []int
	for i := 0; i < a.cfg.n(); i++ {
		if _, ok := a.votes[i]; !ok {
			missing = append(missing, i)
		}
	}
	a.fetchedMissing = missing
	if len(missing) == 0 {
		return
	}
	fps := make([]string, len(missing))
	for i, j := range missing {
		fps[i] = a.cfg.Keys[j].Fingerprint.String()
	}
	ctx.Logf("notice", "We're missing votes from %d authorities (%s). Asking every other authority for a copy.",
		len(missing), strings.Join(fps, " "))
	for _, j := range missing {
		ctx.Broadcast(&msgVoteRequest{Want: j})
	}
	ctx.After(a.cfg.fetchTimeout(), func() { a.logGiveUps(ctx) })
}

func (a *Authority) logGiveUps(ctx *simnet.Context) {
	stillMissing := false
	for _, j := range a.fetchedMissing {
		if _, ok := a.votes[j]; !ok {
			stillMissing = true
			break
		}
	}
	if !stillMissing {
		return
	}
	var peers []int
	for p := 0; p < ctx.N(); p++ {
		if p != a.index && !a.respondedSinceFetch[simnet.NodeID(p)] {
			peers = append(peers, p)
		}
	}
	sort.Ints(peers)
	for _, p := range peers {
		ctx.Logf("info", "connection_dir_client_request_failed(): Giving up downloading votes from %s", authorityAddr(p))
		ctx.Trace(obs.Event{Type: obs.EvTimeout, Peer: p, Label: "vote-fetch"})
	}
}

func (a *Authority) computeConsensus(ctx *simnet.Context) {
	ctx.Logf("notice", "Time to compute a consensus.")
	ctx.Trace(obs.Event{Type: obs.EvPhase, Label: "compute-consensus"})
	majority := a.cfg.Majority()
	if len(a.votes) < majority {
		ctx.Logf("warn", "We don't have enough votes to generate a consensus: %d of %d",
			len(a.votes), majority)
		return
	}
	docs := make([]*vote.Document, 0, len(a.votes))
	//detlint:maporder ok(Aggregate sorts its input by authority index, so vote order cannot reach the consensus)
	for _, d := range a.votes {
		docs = append(docs, d)
	}
	cons, err := vote.AggregateShared(docs, a.cfg.n())
	if err != nil {
		ctx.Logf("warn", "Consensus aggregation failed: %v", err)
		return
	}
	a.consensus = cons
	a.consDigest = cons.Digest()
	own := a.sigs.Sign(a.me, a.consDigest)
	ctx.Logf("notice", "Consensus computed from %d votes; digest %s.", len(docs), a.consDigest.Short())
	ctx.Broadcast(&msgSig{Digest: a.consDigest, Sig: own})
}

func (a *Authority) fetchSignatures(ctx *simnet.Context) {
	ctx.Logf("notice", "Time to fetch any signatures that we're missing.")
	ctx.Trace(obs.Event{Type: obs.EvPhase, Label: "fetch-signatures"})
	for j := 0; j < a.cfg.n(); j++ {
		if _, _, ok := a.sigs.Lookup(j); !ok {
			ctx.Broadcast(&msgSigRequest{Want: j})
		}
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
		ctx.Logf("warn", "A consensus needs %d good signatures from recognized authorities for us to accept it. This one has %d.",
			a.cfg.Majority(), matching)
	}
}

// Record reports the authority's part in the run: the consensus it
// aggregated, the matching signatures it held when the run was decided,
// whether they were a majority (it published), and its latency: when it
// held every vote, plus how long past the signature round's start it took
// to hold every signature (simnet.Never unless both happened).
func (a *Authority) Record() (*vote.Consensus, int, bool, time.Duration) {
	lat := simnet.Never
	if a.voteFullAt != simnet.Never && a.sigFullAt != simnet.Never {
		lat = a.voteFullAt + max(0, a.sigFullAt-2*a.cfg.round())
	}
	return a.consensus, a.finalSigCount, a.finalSigCount >= a.cfg.Majority(), lat
}
