package hotstuff

import (
	"time"

	"partialtor/internal/obs"
	"partialtor/internal/sig"
	"partialtor/internal/simnet"
)

// Replica is one participant of a single-shot agreement instance. It is
// embedded in a parent simnet handler: the parent forwards Start to Start,
// and every message for which IsProtocolMessage holds to Deliver.
type Replica struct {
	cfg   *Config
	index int
	me    *sig.KeyPair

	view     int
	timerGen int

	lockedQC *QC
	values   map[sig.Digest]Value

	views   map[int]*viewState
	entryTC *TC

	decided      bool
	decidedValue Value
	decidedView  int
	decidedAt    time.Duration
}

// viewState is everything a replica knows about one view.
type viewState struct {
	proposalOut bool
	voted       [2]bool // by phase: 1, 2

	// Leader-side collection state.
	votes      map[voteKey][]sig.Signature
	lockSent   bool
	decideSent bool

	// Pacemaker state.
	timeouts    []*MsgTimeout // by signer; nil = no share yet
	shares      int
	tcFormed    bool
	sentTimeout bool
}

type voteKey struct {
	phase  int
	digest sig.Digest
}

// NewReplica builds the replica with the given index into cfg.Keys.
func NewReplica(cfg *Config, index int) *Replica {
	return &Replica{
		cfg:       cfg,
		index:     index,
		me:        cfg.Keys[index],
		values:    make(map[sig.Digest]Value),
		views:     make(map[int]*viewState),
		decidedAt: simnet.Never,
	}
}

// at returns the record of view v, creating it on first use.
func (r *Replica) at(v int) *viewState {
	vs := r.views[v]
	if vs == nil {
		vs = &viewState{votes: make(map[voteKey][]sig.Signature), timeouts: make([]*MsgTimeout, r.cfg.N())}
		r.views[v] = vs
	}
	return vs
}

// DecidedView returns the view in which the replica decided (0 if none).
func (r *Replica) DecidedView() int { return r.decidedView }

// View returns the replica's current view.
func (r *Replica) View() int { return r.view }

// Start enters view 1.
func (r *Replica) Start(ctx *simnet.Context) { r.enterView(ctx, 1) }

// NotifyReady re-runs the leader's proposal attempt; parents call it when
// the input value (Propose) becomes available mid-view.
func (r *Replica) NotifyReady(ctx *simnet.Context) {
	if !r.decided && r.cfg.Leader(r.view) == r.index {
		r.tryPropose(ctx)
	}
}

func (r *Replica) byzSilent() bool { return r.cfg.Silent[r.index] }

func (r *Replica) enterView(ctx *simnet.Context, v int) {
	if v <= r.view || r.decided {
		return
	}
	// Nothing reads a left view's proposal, vote or pacemaker state again:
	// handleTimeout and handleTC return on View < r.view, everything else
	// touches r.view only. What a leader collected stays — a late quorum for
	// an old view still forms and broadcasts its lock QC.
	for u := r.view; u < v; u++ {
		if vs := r.views[u]; vs != nil && len(vs.votes) > 0 {
			r.views[u] = &viewState{votes: vs.votes, lockSent: vs.lockSent, decideSent: vs.decideSent}
		} else {
			delete(r.views, u)
		}
	}
	r.view = v
	r.timerGen++
	gen := r.timerGen
	ctx.After(r.cfg.viewTimeout(v), func() { r.onLocalTimeout(ctx, v, gen) })
	ctx.Trace(obs.Event{Type: obs.EvPhase, Label: "view", A: int64(v)})
	if r.cfg.OnEnterView != nil {
		r.cfg.OnEnterView(ctx, r.index, v)
	}
	if r.cfg.Leader(v) == r.index {
		r.tryPropose(ctx)
	}
}

// tryPropose broadcasts the leader's proposal once per view. With a lock it
// re-proposes the locked value (when the value is known); otherwise it asks
// the parent for an input and silently waits when none is ready yet.
func (r *Replica) tryPropose(ctx *simnet.Context) {
	v := r.view
	vs := r.at(v)
	if vs.proposalOut || r.decided || r.byzSilent() {
		return
	}
	var value Value
	var justify *QC
	if r.lockedQC != nil {
		if lv, ok := r.values[r.lockedQC.Digest]; ok {
			value, justify = lv, r.lockedQC
		}
	}
	if value == nil {
		value = r.cfg.Propose(r.index, v)
		justify = r.lockedQC
	}
	if value == nil {
		return // input not ready; NotifyReady or the next leader will retry
	}
	vs.proposalOut = true
	m := &MsgProposal{View: v, Value: value, Justify: justify, EntryTC: r.entryTC}
	if r.cfg.Equivocator[r.index] && r.cfg.AltPropose != nil {
		alt := *m
		alt.Value = r.cfg.AltPropose(r.index, v)
		for p := 0; p < ctx.N(); p++ {
			if p == r.index {
				continue
			}
			pm := m
			if p%2 == 1 {
				pm = &alt
			}
			ctx.Send(simnet.NodeID(p), pm)
		}
	} else {
		ctx.Broadcast(m)
	}
	r.handleProposal(ctx, m)
}

// Deliver dispatches a protocol message; parents must pre-filter with
// IsProtocolMessage.
func (r *Replica) Deliver(ctx *simnet.Context, from simnet.NodeID, msg simnet.Message) {
	if r.byzSilent() {
		return
	}
	switch m := msg.(type) {
	case *MsgProposal:
		r.handleProposal(ctx, m)
	case *MsgVote:
		r.handleVote(ctx, m)
	case *MsgLock:
		r.handleLock(ctx, m)
	case *MsgDecide:
		r.handleDecide(ctx, m)
	case *MsgTimeout:
		r.handleTimeout(ctx, m)
	case *MsgTC:
		r.handleTC(ctx, m.TC)
	}
}

func (r *Replica) handleProposal(ctx *simnet.Context, m *MsgProposal) {
	if r.decided {
		return
	}
	// A proposal for a future view must prove the view change.
	if m.View > r.view {
		if m.EntryTC != nil && m.EntryTC.View == m.View-1 && m.EntryTC.Verify(r.cfg.Pubs(), r.cfg.Quorum()) {
			r.enterView(ctx, m.View)
		} else {
			return
		}
	}
	if m.View != r.view || !r.cfg.validate(m.Value) {
		return
	}
	digest := m.Value.Digest()
	r.values[digest] = m.Value
	// Safety rule: vote only if the value matches our lock, or the
	// proposal justifies displacing it with a QC from a view at or above
	// the lock's.
	if r.lockedQC != nil && digest != r.lockedQC.Digest {
		if m.Justify == nil || m.Justify.Phase != 1 || m.Justify.View < r.lockedQC.View ||
			!m.Justify.Verify(r.cfg.Pubs(), r.cfg.Quorum()) {
			return
		}
	}
	r.castVote(ctx, m.View, 1, digest)
}

func (r *Replica) castVote(ctx *simnet.Context, view, phase int, digest sig.Digest) {
	vs := r.at(view)
	if vs.voted[phase-1] {
		return
	}
	vs.voted[phase-1] = true
	ctx.Trace(obs.Event{Type: obs.EvVote, A: int64(view), B: int64(phase)})
	s := r.cfg.Pubs().Sign(r.me, voteDomain(phase), qcInput(phase, view, digest))
	v := &MsgVote{View: view, Phase: phase, Digest: digest, Sig: s}
	leader := r.cfg.Leader(view)
	if leader == r.index {
		r.handleVote(ctx, v)
		return
	}
	ctx.Send(simnet.NodeID(leader), v)
}

func (r *Replica) handleVote(ctx *simnet.Context, m *MsgVote) {
	if r.cfg.Leader(m.View) != r.index || r.decided {
		return
	}
	if !sig.Verify(r.cfg.Pubs(), voteDomain(m.Phase), qcInput(m.Phase, m.View, m.Digest), m.Sig) {
		return
	}
	vs := r.at(m.View)
	key := voteKey{m.Phase, m.Digest}
	bucket := vs.votes[key]
	for _, s := range bucket {
		if s.Signer == m.Sig.Signer {
			return
		}
	}
	bucket = append(bucket, m.Sig)
	vs.votes[key] = bucket
	if len(bucket) < r.cfg.Quorum() {
		return
	}
	qc := &QC{Phase: m.Phase, View: m.View, Digest: m.Digest, Sigs: bucket}
	switch m.Phase {
	case 1:
		if vs.lockSent {
			return
		}
		vs.lockSent = true
		lock := &MsgLock{View: m.View, Digest: m.Digest, QC: qc}
		ctx.Broadcast(lock)
		r.handleLock(ctx, lock)
	case 2:
		if vs.decideSent {
			return
		}
		vs.decideSent = true
		value, ok := r.values[m.Digest]
		if !ok {
			return
		}
		dec := &MsgDecide{View: m.View, Value: value, QC: qc}
		ctx.Broadcast(dec)
		r.handleDecide(ctx, dec)
	}
}

func (r *Replica) handleLock(ctx *simnet.Context, m *MsgLock) {
	if r.decided {
		return
	}
	if m.QC == nil || m.QC.Phase != 1 || m.QC.View != m.View || m.QC.Digest != m.Digest ||
		!m.QC.Verify(r.cfg.Pubs(), r.cfg.Quorum()) {
		return
	}
	if r.lockedQC == nil || m.QC.View > r.lockedQC.View {
		r.lockedQC = m.QC
	}
	if m.View != r.view {
		return
	}
	r.castVote(ctx, m.View, 2, m.Digest)
}

func (r *Replica) handleDecide(ctx *simnet.Context, m *MsgDecide) {
	if r.decided {
		return
	}
	if m.QC == nil || m.QC.Phase != 2 || m.QC.View != m.View ||
		m.QC.Digest != m.Value.Digest() || !m.QC.Verify(r.cfg.Pubs(), r.cfg.Quorum()) {
		return
	}
	if !r.cfg.validate(m.Value) {
		return
	}
	r.decided = true
	r.decidedValue = m.Value
	r.decidedView = m.View
	r.decidedAt = ctx.Now()
	r.timerGen++ // cancel pacemaker
	ctx.Logf("info", "hotstuff: decided in view %d on %s", m.View, m.QC.Digest.Short())
	// Relay once so laggards terminate even if the leader's broadcast is
	// still in flight to them.
	ctx.Broadcast(m)
	if r.cfg.OnDecide != nil {
		r.cfg.OnDecide(ctx, r.index, m.Value)
	}
}

func (r *Replica) onLocalTimeout(ctx *simnet.Context, view int, gen int) {
	if gen != r.timerGen || r.decided || view != r.view || r.byzSilent() {
		return
	}
	vs := r.at(view)
	if vs.sentTimeout {
		return
	}
	vs.sentTimeout = true
	ctx.Logf("info", "hotstuff: view %d timed out", view)
	ctx.Trace(obs.Event{Type: obs.EvTimeout, A: int64(view), Label: "pacemaker"})
	m := &MsgTimeout{View: view, HighQC: r.lockedQC, Sig: r.cfg.Pubs().Sign(r.me, domainTimeout, tcInput(view))}
	ctx.Broadcast(m)
	r.handleTimeout(ctx, m)
}

func (r *Replica) handleTimeout(ctx *simnet.Context, m *MsgTimeout) {
	if r.decided || m.View < r.view {
		return
	}
	if !sig.Verify(r.cfg.Pubs(), domainTimeout, tcInput(m.View), m.Sig) {
		return
	}
	vs := r.at(m.View)
	if vs.timeouts[m.Sig.Signer] != nil {
		return
	}
	vs.timeouts[m.Sig.Signer] = m
	vs.shares++
	if vs.shares < r.cfg.Quorum() || vs.tcFormed {
		return
	}
	vs.tcFormed = true
	tc := &TC{View: m.View}
	// Shares go in by signer, not by arrival: the TC's signature list, and
	// which of two equal-view HighQCs wins, are part of the run's output.
	for _, share := range vs.timeouts {
		if share == nil {
			continue
		}
		tc.Sigs = append(tc.Sigs, share.Sig)
		if share.HighQC != nil && (tc.HighQC == nil || share.HighQC.View > tc.HighQC.View) {
			tc.HighQC = share.HighQC
		}
	}
	ctx.Broadcast(&MsgTC{TC: tc})
	r.handleTC(ctx, tc)
}

func (r *Replica) handleTC(ctx *simnet.Context, tc *TC) {
	if r.decided || tc == nil || tc.View < r.view {
		return
	}
	if !tc.Verify(r.cfg.Pubs(), r.cfg.Quorum()) {
		return
	}
	// Adopt the certificate's high lock if it beats ours and verifies.
	if tc.HighQC != nil && tc.HighQC.Phase == 1 &&
		(r.lockedQC == nil || tc.HighQC.View > r.lockedQC.View) &&
		tc.HighQC.Verify(r.cfg.Pubs(), r.cfg.Quorum()) {
		r.lockedQC = tc.HighQC
	}
	r.entryTC = tc
	r.enterView(ctx, tc.View+1)
}
