package core

import (
	"sort"
	"time"

	"partialtor/internal/hotstuff"
	"partialtor/internal/obs"
	"partialtor/internal/sig"
	"partialtor/internal/simnet"
	"partialtor/internal/vote"
)

// DefaultDelta is the dissemination wait Δ: after Δ, a node with at least
// n−f documents proposes without waiting for stragglers. When the network
// is healthy all n documents arrive well within Δ, so Δ adds no latency.
const DefaultDelta = 30 * time.Second

// Config describes one run of the ICPS directory protocol.
type Config struct {
	// Keys are the authority identities; authority i is node i.
	Keys []*sig.KeyPair
	// Docs holds each authority's input status document.
	Docs []*vote.Document
	// Delta is the dissemination wait; 0 means DefaultDelta.
	Delta time.Duration
	// BaseTimeout configures the agreement pacemaker.
	BaseTimeout time.Duration
	// Silent marks crash-faulty authorities that never send anything.
	Silent map[int]bool
	// Equivocators maps a Byzantine authority to the alternate document it
	// sends to odd-numbered peers during dissemination.
	Equivocators map[int]*vote.Document
}

func (c *Config) n() int { return len(c.Keys) }

// F is the Byzantine tolerance ⌊(n−1)/3⌋ — the price of partial synchrony
// (§5.1: 2 of 9 instead of 4 of 9).
func (c *Config) F() int { return (c.n() - 1) / 3 }

// Quorum is n−f.
func (c *Config) Quorum() int { return c.n() - c.F() }

// Majority is the Tor consensus-signature threshold ⌊n/2⌋+1.
func (c *Config) Majority() int { return sig.Majority(c.n()) }

func (c *Config) delta() time.Duration {
	if c.Delta > 0 {
		return c.Delta
	}
	return DefaultDelta
}

// Authority is one directory authority running the ICPS protocol. It
// implements simnet.Handler and embeds a hotstuff replica for agreement.
type Authority struct {
	cfg   *Config
	index int
	me    *sig.KeyPair
	pubs  *sig.Registry
	doc   *vote.Document
	hs    *hotstuff.Replica

	// Dissemination state.
	docs        map[int]*vote.Document
	ownerSigs   map[int]sig.Signature
	ready       bool
	deltaPassed bool

	// Per agreement view: proposal sent, and proposals received as leader.
	views map[int]*viewState

	// Agreement outcome.
	decided *AgreementValue

	// Aggregation state.
	aggDocs    map[int]*vote.Document
	fetchAsked bool
	consensus  *vote.Consensus
	consDigest sig.Digest
	signed     bool
	consSigs   *sig.Tally
	done       bool
	doneAt     time.Duration
}

type viewState struct {
	sentProposal bool
	proposals    map[int][]ProposalEntry // by proposer
}

// at returns the record of a view, creating it on first use.
func (a *Authority) at(view int) *viewState {
	vs := a.views[view]
	if vs == nil {
		vs = &viewState{proposals: make(map[int][]ProposalEntry)}
		a.views[view] = vs
	}
	return vs
}

// NewAuthorities constructs the authority set sharing one hotstuff config.
func NewAuthorities(cfg Config) []*Authority {
	if len(cfg.Docs) != cfg.n() {
		panic("core: len(Docs) != len(Keys)")
	}
	auths := make([]*Authority, cfg.n())
	hsCfg := &hotstuff.Config{
		Keys:        cfg.Keys,
		BaseTimeout: cfg.BaseTimeout,
		Silent:      cfg.Silent,
		Propose: func(index, view int) hotstuff.Value {
			v := auths[index].buildValue(view)
			if v == nil {
				return nil // input not ready; retried via NotifyReady
			}
			return v
		},
		OnDecide: func(ctx *simnet.Context, index int, v hotstuff.Value) {
			auths[index].onDecide(ctx, v.(*AgreementValue))
		},
		OnEnterView: func(ctx *simnet.Context, index, view int) {
			auths[index].onEnterView(ctx, view)
		},
	}
	pubs := hsCfg.Pubs()
	hsCfg.Validate = func(v hotstuff.Value) bool {
		av, ok := v.(*AgreementValue)
		return ok && av.Verify(pubs, cfg.n(), cfg.F()) == nil
	}
	for i := range auths {
		auths[i] = &Authority{
			cfg:       &cfg,
			index:     i,
			me:        cfg.Keys[i],
			pubs:      pubs,
			doc:       cfg.Docs[i],
			hs:        hotstuff.NewReplica(hsCfg, i),
			docs:      make(map[int]*vote.Document),
			ownerSigs: make(map[int]sig.Signature),
			views:     make(map[int]*viewState),
			aggDocs:   make(map[int]*vote.Document),
			consSigs:  sig.NewTally(pubs, domainConsensus),
			doneAt:    simnet.Never,
		}
	}
	return auths
}

func ownerSign(pubs *sig.Registry, k *sig.KeyPair, d *vote.Document) sig.Signature {
	var in [entryInputCap]byte
	return pubs.Sign(k, domainDoc, entryInput(in[:0], k.Index, d.Digest()))
}

// Start broadcasts the document and arms the Δ timer; the agreement replica
// starts concurrently (its views tick while dissemination is in flight).
func (a *Authority) Start(ctx *simnet.Context) {
	if a.cfg.Silent[a.index] {
		return
	}
	a.docs[a.index] = a.doc
	a.ownerSigs[a.index] = ownerSign(a.pubs, a.me, a.doc)
	ctx.Logf("notice", "Dissemination: broadcasting status document (%d bytes).", a.doc.EncodedSize())
	ctx.Trace(obs.Event{Type: obs.EvPhase, Label: "dissemination"})
	if alt := a.cfg.Equivocators[a.index]; alt != nil {
		altSig := ownerSign(a.pubs, a.me, alt)
		for p := 0; p < ctx.N(); p++ {
			if p == a.index {
				continue
			}
			if p%2 == 1 {
				ctx.Send(simnet.NodeID(p), &MsgDocument{Doc: alt, OwnerSig: altSig})
			} else {
				ctx.Send(simnet.NodeID(p), &MsgDocument{Doc: a.doc, OwnerSig: a.ownerSigs[a.index]})
			}
		}
	} else {
		ctx.Broadcast(&MsgDocument{Doc: a.doc, OwnerSig: a.ownerSigs[a.index]})
	}
	ctx.After(a.cfg.delta(), func() {
		a.deltaPassed = true
		a.checkReady(ctx)
	})
	a.hs.Start(ctx)
}

// Deliver demultiplexes between dissemination/aggregation messages and the
// embedded agreement replica.
func (a *Authority) Deliver(ctx *simnet.Context, from simnet.NodeID, msg simnet.Message) {
	if a.cfg.Silent[a.index] {
		return
	}
	if hotstuff.IsProtocolMessage(msg) {
		a.hs.Deliver(ctx, from, msg)
		return
	}
	switch m := msg.(type) {
	case *MsgDocument:
		a.acceptDocument(ctx, m)
	case *MsgProposal:
		a.acceptProposal(ctx, m)
	case *MsgFetch:
		a.handleFetch(ctx, from, m)
	case *MsgFetchResponse:
		a.acceptDocument(ctx, &MsgDocument{Doc: m.Doc, OwnerSig: m.OwnerSig})
	case *MsgConsSig:
		a.acceptConsSig(ctx, m)
	}
}

// acceptDocument records a verified document; this serves both the
// dissemination broadcast and aggregation fetch responses.
func (a *Authority) acceptDocument(ctx *simnet.Context, m *MsgDocument) {
	j := m.Doc.AuthorityIndex
	if j < 0 || j >= a.cfg.n() {
		return
	}
	dg := m.Doc.Digest()
	var in [entryInputCap]byte
	if m.OwnerSig.Signer != j || !sig.Verify(a.pubs, domainDoc, entryInput(in[:0], j, dg), m.OwnerSig) {
		ctx.Logf("warn", "Rejecting document with bad owner signature for authority %d.", j)
		return
	}
	if have, ok := a.docs[j]; ok {
		if have.Digest() != dg {
			ctx.Logf("warn", "Authority %d equivocated during dissemination (%s vs %s).",
				j, have.Digest().Short(), dg.Short())
		}
	} else {
		a.docs[j] = m.Doc
		a.ownerSigs[j] = m.OwnerSig
		a.checkReady(ctx)
	}
	// Feed aggregation regardless of dissemination bookkeeping: after the
	// decision only digest-matching documents count.
	a.offerAggregationDoc(ctx, m.Doc, dg)
}

// checkReady applies the dissemination exit rule: all n documents, or Δ
// elapsed with at least n−f.
func (a *Authority) checkReady(ctx *simnet.Context) {
	if a.ready {
		return
	}
	if len(a.docs) == a.cfg.n() || (a.deltaPassed && len(a.docs) >= a.cfg.Quorum()) {
		a.ready = true
		ctx.Logf("notice", "Dissemination ready with %d of %d documents.", len(a.docs), a.cfg.n())
		ctx.Trace(obs.Event{Type: obs.EvPhase, Label: "agreement", A: int64(len(a.docs))})
		a.sendProposal(ctx, a.hs.View())
		a.hs.NotifyReady(ctx)
	}
}

// onEnterView re-sends the PROPOSAL to each new view's leader ("at the
// start of every view", Figure 9).
func (a *Authority) onEnterView(ctx *simnet.Context, view int) {
	if a.ready {
		a.sendProposal(ctx, view)
	}
}

// sendProposal reports the digests this node has seen to the view leader.
func (a *Authority) sendProposal(ctx *simnet.Context, view int) {
	vs := a.at(view)
	if vs.sentProposal || a.decided != nil {
		return
	}
	vs.sentProposal = true
	entries := make([]ProposalEntry, a.cfg.n())
	var in [entryInputCap]byte
	for j := range entries {
		e := &entries[j] // the zero digest endorses ⊥
		if d, ok := a.docs[j]; ok {
			e.Digest, e.OwnerSig = d.Digest(), a.ownerSigs[j]
		}
		e.Endorse = a.pubs.Sign(a.me, domainEndorse, entryInput(in[:0], j, e.Digest))
	}
	m := &MsgProposal{View: view, From: a.index, Entries: entries}
	leader := (view - 1) % a.cfg.n()
	if leader == a.index {
		a.acceptProposal(ctx, m)
		return
	}
	ctx.Send(simnet.NodeID(leader), m)
}

// acceptProposal is the leader-side collection (Figure 9, step 3).
func (a *Authority) acceptProposal(ctx *simnet.Context, m *MsgProposal) {
	if m.View < 1 || m.From < 0 || m.From >= a.cfg.n() || len(m.Entries) != a.cfg.n() {
		return
	}
	// Verify every entry before admitting the proposal: the proposer's
	// endorsement always, the owner signature when non-⊥.
	var zero sig.Digest
	var in [entryInputCap]byte
	for j, e := range m.Entries {
		if e.Endorse.Signer != m.From || !sig.Verify(a.pubs, domainEndorse, entryInput(in[:0], j, e.Digest), e.Endorse) {
			return
		}
		if e.Digest != zero {
			if e.OwnerSig.Signer != j || !sig.Verify(a.pubs, domainDoc, entryInput(in[:0], j, e.Digest), e.OwnerSig) {
				return
			}
		}
	}
	props := a.at(m.View).proposals
	if _, ok := props[m.From]; ok {
		return
	}
	props[m.From] = m.Entries
	a.hs.NotifyReady(ctx)
}

// buildValue assembles (H, π) from this view's proposals; nil if the leader
// cannot yet prove n−f OK entries (it then waits for more proposals).
func (a *Authority) buildValue(view int) *AgreementValue {
	props := a.at(view).proposals
	if len(props) < a.cfg.Quorum() {
		return nil
	}
	n, f := a.cfg.n(), a.cfg.F()
	entries := make([]ValueEntry, n)
	var zero sig.Digest
	// Iterate proposals in proposer order: map order would randomize which
	// f+1 endorsements each entry carries, and the simulation contract is
	// byte-identical output for a fixed seed.
	proposers := make([]int, 0, len(props))
	for p := range props {
		proposers = append(proposers, p)
	}
	sort.Ints(proposers)
	for j := 0; j < n; j++ {
		// Tally the opinions about j across proposals.
		type seenDigest struct {
			ownerSig     sig.Signature
			endorsements []sig.Signature
		}
		byDigest := make(map[sig.Digest]*seenDigest)
		var botEndorse []sig.Signature
		for _, p := range proposers {
			entriesFrom := props[p]
			e := entriesFrom[j]
			if e.Digest == zero {
				botEndorse = append(botEndorse, e.Endorse)
				continue
			}
			sd, ok := byDigest[e.Digest]
			if !ok {
				sd = &seenDigest{ownerSig: e.OwnerSig}
				byDigest[e.Digest] = sd
			}
			sd.endorsements = append(sd.endorsements, e.Endorse)
		}
		switch {
		case len(byDigest) >= 2:
			// Rule (b): equivocation — two owner-signed digests.
			var ds []sig.Digest
			for d := range byDigest {
				ds = append(ds, d)
			}
			// Deterministic order for reproducible proofs. Sorting the whole
			// set (not just swapping a pair) keeps the two digests entering
			// the proof stable even when an equivocator signed three or more
			// distinct values, where map order used to pick the pair.
			sort.Slice(ds, func(x, y int) bool { return string(ds[x][:]) < string(ds[y][:]) })
			entries[j] = ValueEntry{
				Status:       EntryBotEquivocation,
				EquivDigests: [2]sig.Digest{ds[0], ds[1]},
				EquivSigs:    [2]sig.Signature{byDigest[ds[0]].ownerSig, byDigest[ds[1]].ownerSig},
			}
		default:
			var okEntry *ValueEntry
			//detlint:maporder ok(byDigest holds at most one entry here: two or more take the equivocation case above)
			for d, sd := range byDigest {
				if len(sd.endorsements) >= f+1 {
					okEntry = &ValueEntry{
						Status:       EntryOK,
						Digest:       d,
						OwnerSig:     sd.ownerSig,
						Endorsements: sd.endorsements[:f+1],
					}
				}
			}
			switch {
			case okEntry != nil:
				entries[j] = *okEntry // rule (a)
			case len(botEndorse) >= f+1:
				entries[j] = ValueEntry{Status: EntryBotTimeout, Endorsements: botEndorse[:f+1]} // rule (c)
			default:
				return nil // entry not yet classifiable; wait for proposals
			}
		}
	}
	v := &AgreementValue{Proposer: a.index, Entries: entries}
	if v.OKCount() < a.cfg.Quorum() {
		return nil // H not "ready" (|H|≠⊥ < n−f); wait for more proposals
	}
	return v
}

// onDecide transitions to the aggregation sub-protocol.
func (a *Authority) onDecide(ctx *simnet.Context, v *AgreementValue) {
	if a.decided != nil {
		return
	}
	a.decided = v
	ctx.Logf("notice", "Agreement decided: %d OK entries, %d ⊥.", v.OKCount(), a.cfg.n()-v.OKCount())
	ctx.Trace(obs.Event{Type: obs.EvPhase, Label: "aggregation", A: int64(v.OKCount())})
	// Seed aggregation with matching documents already held, then fetch
	// the rest from everyone (at least one correct holder exists per OK
	// entry, by the f+1 endorsement rule).
	for j, e := range v.Entries {
		if e.Status != EntryOK {
			continue
		}
		if d, ok := a.docs[j]; ok && d.Digest() == e.Digest {
			a.aggDocs[j] = d
		}
	}
	missing := 0
	for j, e := range v.Entries {
		if e.Status == EntryOK {
			if _, ok := a.aggDocs[j]; !ok {
				missing++
				ctx.Broadcast(&MsgFetch{Index: j, WantDigest: e.Digest})
			}
		}
	}
	if missing > 0 {
		ctx.Logf("notice", "Aggregation: fetching %d missing documents.", missing)
		a.fetchAsked = true
	}
	a.tryAggregate(ctx)
}

// offerAggregationDoc fills aggregation slots as documents arrive by any
// path (dissemination stragglers or fetch responses).
func (a *Authority) offerAggregationDoc(ctx *simnet.Context, d *vote.Document, dg sig.Digest) {
	if a.decided == nil {
		return
	}
	j := d.AuthorityIndex
	e := a.decided.Entries[j]
	if e.Status != EntryOK || e.Digest != dg {
		return
	}
	if _, ok := a.aggDocs[j]; ok {
		return
	}
	a.aggDocs[j] = d
	a.tryAggregate(ctx)
}

func (a *Authority) handleFetch(ctx *simnet.Context, from simnet.NodeID, m *MsgFetch) {
	if m.Index < 0 || m.Index >= a.cfg.n() {
		return
	}
	if d, ok := a.docs[m.Index]; ok && d.Digest() == m.WantDigest {
		ctx.Send(from, &MsgFetchResponse{Doc: d, OwnerSig: a.ownerSigs[m.Index]})
	}
}

// tryAggregate computes, signs and broadcasts the consensus once every OK
// document is held.
func (a *Authority) tryAggregate(ctx *simnet.Context) {
	if a.decided == nil || a.signed {
		return
	}
	for j, e := range a.decided.Entries {
		if e.Status == EntryOK {
			if _, ok := a.aggDocs[j]; !ok {
				return
			}
		}
	}
	docs := make([]*vote.Document, 0, len(a.aggDocs))
	//detlint:maporder ok(Aggregate sorts its input by authority index, so document order cannot reach the consensus)
	for _, d := range a.aggDocs {
		docs = append(docs, d)
	}
	cons, err := vote.AggregateShared(docs, a.cfg.n())
	if err != nil {
		ctx.Logf("warn", "Aggregation failed: %v", err)
		return
	}
	a.consensus = cons
	a.consDigest = cons.Digest()
	a.signed = true
	own := a.consSigs.Sign(a.me, a.consDigest)
	ctx.Logf("notice", "Consensus aggregated from %d documents; digest %s.", len(docs), a.consDigest.Short())
	ctx.Trace(obs.Event{Type: obs.EvPhase, Label: "signing", A: int64(len(docs))})
	ctx.Broadcast(&MsgConsSig{Digest: a.consDigest, Sig: own})
	a.checkDone(ctx)
}

func (a *Authority) acceptConsSig(ctx *simnet.Context, m *MsgConsSig) {
	if m.Sig.Signer == a.index {
		return
	}
	if _, added := a.consSigs.Add(m.Sig.Signer, m.Digest, m.Sig); added {
		a.checkDone(ctx)
	}
}

func (a *Authority) checkDone(ctx *simnet.Context) {
	if a.done || !a.signed {
		return
	}
	if matching := a.consSigs.Matching(a.consDigest); matching >= a.cfg.Majority() {
		a.done = true
		a.doneAt = ctx.Now()
		ctx.Trace(obs.Event{Type: obs.EvPhase, Label: "published"})
		ctx.Logf("notice", "Consensus published with %d of %d signatures at %v.",
			matching, a.cfg.n(), ctx.Now())
	}
}

// Record reports the authority's part in the run: the consensus it
// aggregated, the matching signatures it holds on it, whether it published,
// and when (simnet.Never if it did not).
func (a *Authority) Record() (*vote.Consensus, int, bool, time.Duration) {
	return a.consensus, a.consSigs.Matching(a.consDigest), a.done, a.doneAt
}

// Decided returns the agreed (H, π) value, if any.
func (a *Authority) Decided() *AgreementValue { return a.decided }

// DecidedView returns the agreement view of the decision.
func (a *Authority) DecidedView() int { return a.hs.DecidedView() }
