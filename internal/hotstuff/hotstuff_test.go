package hotstuff

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"partialtor/internal/sig"
	"partialtor/internal/simnet"
	"partialtor/internal/testkit"
)

// testValue is a string payload.
type testValue struct{ s string }

func (v testValue) Digest() sig.Digest { return sig.Hash([]byte(v.s)) }
func (v testValue) Size() int64        { return int64(len(v.s)) + 8 }

// tnode adapts a Replica to simnet.Handler.
type tnode struct{ r *Replica }

func (n *tnode) Start(ctx *simnet.Context) { n.r.Start(ctx) }
func (n *tnode) Deliver(ctx *simnet.Context, from simnet.NodeID, msg simnet.Message) {
	n.r.Deliver(ctx, from, msg)
}

// build creates n replicas over a fresh network.
func build(t *testing.T, n int, seed int64, mut func(*Config)) ([]*Replica, *testkit.Net) {
	t.Helper()
	cfg := &Config{
		Keys: testkit.Authorities(n, seed),
		Propose: func(index, view int) Value {
			return testValue{s: fmt.Sprintf("input-%d", index)}
		},
		BaseTimeout: 5 * time.Second,
	}
	if mut != nil {
		mut(cfg)
	}
	reps := make([]*Replica, n)
	hs := make([]simnet.Handler, n)
	for i := range reps {
		reps[i] = NewReplica(cfg, i)
		hs[i] = &tnode{r: reps[i]}
	}
	tn := testkit.NewNet(n, 250e6, seed)
	tn.Attach(hs)
	return reps, tn
}

// assertAgreement checks that every non-silent replica decided the same
// value.
func assertAgreement(t *testing.T, reps []*Replica, silent map[int]bool) Value {
	t.Helper()
	var first Value
	for i, r := range reps {
		if silent[i] {
			continue
		}
		v, ok := r.decidedValue, r.decided
		if !ok {
			t.Fatalf("replica %d undecided (view %d)", i, r.View())
		}
		if first == nil {
			first = v
		} else if v.Digest() != first.Digest() {
			t.Fatalf("replica %d decided %s, others %s", i, v.Digest().Short(), first.Digest().Short())
		}
	}
	return first
}

func TestHappyPathDecidesInViewOne(t *testing.T) {
	reps, tn := build(t, 9, 1, nil)
	tn.Run(time.Minute)
	v := assertAgreement(t, reps, nil)
	if v.Digest() != (testValue{s: "input-0"}).Digest() {
		t.Fatalf("decided %s, want leader 0's input", v.Digest().Short())
	}
	for i, r := range reps {
		if r.DecidedView() != 1 {
			t.Fatalf("replica %d decided in view %d, want 1", i, r.DecidedView())
		}
		if r.decidedAt > 2*time.Second {
			t.Fatalf("replica %d decided at %v; too slow for a healthy net", i, r.decidedAt)
		}
	}
}

func TestSmallQuorumConfigs(t *testing.T) {
	for _, n := range []int{4, 7, 10} {
		reps, tn := build(t, n, int64(n), nil)
		tn.Run(time.Minute)
		assertAgreement(t, reps, nil)
	}
}

func TestQuorumArithmetic(t *testing.T) {
	cfg := &Config{Keys: testkit.Authorities(9, 1)}
	if cfg.F() != 2 || cfg.Quorum() != 7 {
		t.Fatalf("n=9: f=%d quorum=%d, want 2/7", cfg.F(), cfg.Quorum())
	}
	cfg4 := &Config{Keys: testkit.Authorities(4, 1)}
	if cfg4.F() != 1 || cfg4.Quorum() != 3 {
		t.Fatalf("n=4: f=%d quorum=%d, want 1/3", cfg4.F(), cfg4.Quorum())
	}
	if cfg.Leader(1) != 0 || cfg.Leader(10) != 0 || cfg.Leader(2) != 1 {
		t.Fatal("leader rotation wrong")
	}
}

func TestSilentLeaderTriggersViewChange(t *testing.T) {
	reps, tn := build(t, 9, 2, func(cfg *Config) {
		cfg.Silent = map[int]bool{0: true}
	})
	tn.Run(5 * time.Minute)
	v := assertAgreement(t, reps, map[int]bool{0: true})
	if v.Digest() != (testValue{s: "input-1"}).Digest() {
		t.Fatalf("decided %s, want view-2 leader's input", v.Digest().Short())
	}
	for i, r := range reps {
		if i == 0 {
			continue
		}
		if r.DecidedView() != 2 {
			t.Fatalf("replica %d decided in view %d, want 2", i, r.DecidedView())
		}
	}
}

func TestConsecutiveSilentLeaders(t *testing.T) {
	reps, tn := build(t, 9, 3, func(cfg *Config) {
		cfg.Silent = map[int]bool{0: true, 1: true}
	})
	tn.Run(10 * time.Minute)
	silent := map[int]bool{0: true, 1: true}
	assertAgreement(t, reps, silent)
	for i, r := range reps {
		if silent[i] {
			continue
		}
		if r.DecidedView() != 3 {
			t.Fatalf("replica %d decided in view %d, want 3", i, r.DecidedView())
		}
	}
}

func TestEquivocatingLeaderCannotSplitDecision(t *testing.T) {
	reps, tn := build(t, 9, 4, func(cfg *Config) {
		cfg.Equivocator = map[int]bool{0: true}
		cfg.AltPropose = func(index, view int) Value {
			return testValue{s: fmt.Sprintf("evil-%d-%d", index, view)}
		}
	})
	tn.Run(10 * time.Minute)
	// Neither of the leader's two values can gather a quorum (4 evens vs 4
	// odds); the view times out and an honest leader decides.
	v := assertAgreement(t, reps, map[int]bool{0: true})
	for i, r := range reps {
		if i == 0 {
			continue
		}
		if r.DecidedView() < 2 {
			t.Fatalf("replica %d decided in view %d despite equivocating first leader", i, r.DecidedView())
		}
	}
	if v == nil {
		t.Fatal("no decision")
	}
}

func TestExternalValidityBlocksInvalidProposals(t *testing.T) {
	reps, tn := build(t, 9, 5, func(cfg *Config) {
		cfg.Propose = func(index, view int) Value {
			if index == 0 {
				return testValue{s: "invalid"}
			}
			return testValue{s: fmt.Sprintf("input-%d", index)}
		}
		cfg.Validate = func(v Value) bool { return v.(testValue).s != "invalid" }
	})
	tn.Run(5 * time.Minute)
	v := assertAgreement(t, reps, nil)
	if v.(testValue).s == "invalid" {
		t.Fatal("invalid value decided")
	}
}

// ctxNode adapts a Replica whose input turns ready 3s into the run: it then
// calls onReady and NotifyReady, the way a parent protocol would.
type ctxNode struct {
	r       *Replica
	onReady func() // nil = the input is ready from the start
}

func (n *ctxNode) Start(ctx *simnet.Context) {
	if n.onReady != nil {
		ctx.After(3*time.Second, func() {
			n.onReady()
			n.r.NotifyReady(ctx)
		})
	}
	n.r.Start(ctx)
}
func (n *ctxNode) Deliver(ctx *simnet.Context, from simnet.NodeID, msg simnet.Message) {
	n.r.Deliver(ctx, from, msg)
}

func TestLazyInputViaNotifyReady(t *testing.T) {
	// The leader's input becomes ready only after 3s; NotifyReady lets it
	// propose mid-view, so the decision lands in view 1 well before the
	// 30s view timeout.
	var ready bool
	cfg := &Config{
		Keys: testkit.Authorities(4, 6),
		Propose: func(index, view int) Value {
			if index == 0 && !ready {
				return nil
			}
			return testValue{s: fmt.Sprintf("input-%d", index)}
		},
		BaseTimeout: 30 * time.Second,
	}
	reps := make([]*Replica, 4)
	hs := make([]simnet.Handler, 4)
	for i := range reps {
		reps[i] = NewReplica(cfg, i)
		hs[i] = &ctxNode{r: reps[i]}
	}
	hs[0].(*ctxNode).onReady = func() { ready = true }
	tn := testkit.NewNet(4, 250e6, 6)
	tn.Attach(hs)
	tn.Run(time.Minute)
	assertAgreement(t, reps, nil)
	for i, r := range reps {
		if r.DecidedView() != 1 {
			t.Fatalf("replica %d decided in view %d, want 1 (NotifyReady should avoid a view change)", i, r.DecidedView())
		}
		if r.decidedAt >= 30*time.Second {
			t.Fatalf("replica %d decided only at %v", i, r.decidedAt)
		}
	}
}

func TestOutageStallsThenRecovers(t *testing.T) {
	// 5 of 9 replicas are offline for the first 60s: no quorum for values
	// or timeout certificates exists, so the protocol must not advance.
	// Once bandwidth returns, queued traffic flushes and a decision lands
	// within seconds — the paper's Figure 11 behaviour.
	reps, tn := build(t, 9, 7, nil)
	for i := 0; i < 5; i++ {
		tn.Throttle(i, 0, time.Minute, 0)
	}
	tn.Run(2 * time.Minute)
	assertAgreement(t, reps, nil)
	for i, r := range reps {
		if r.decidedAt < time.Minute {
			t.Fatalf("replica %d decided at %v, during the outage", i, r.decidedAt)
		}
		if r.decidedAt > 80*time.Second {
			t.Fatalf("replica %d took until %v to recover; want seconds after GST", i, r.decidedAt)
		}
	}
}

func TestAgreementUnderRandomPreGSTDelays(t *testing.T) {
	// Property-style check: under adversarial random delays before GST the
	// protocol never violates agreement, and after GST it terminates.
	for seed := int64(0); seed < 12; seed++ {
		reps, tn := build(t, 7, 100+seed, nil)
		rng := rand.New(rand.NewSource(seed))
		gst := 45 * time.Second
		net := tn.Network
		net.SetDelayFilter(func(from, to simnet.NodeID, m simnet.Message) time.Duration {
			if net.Now() < gst {
				return time.Duration(rng.Int63n(int64(30 * time.Second)))
			}
			return 0
		})
		tn.Run(20 * time.Minute)
		var first Value
		for i, r := range reps {
			v, ok := r.decidedValue, r.decided
			if !ok {
				t.Fatalf("seed %d: replica %d undecided", seed, i)
			}
			if first == nil {
				first = v
			} else if v.Digest() != first.Digest() {
				t.Fatalf("seed %d: agreement violated", seed)
			}
		}
	}
}

func TestQCAndTCVerification(t *testing.T) {
	keys := testkit.Authorities(4, 1)
	pubs := sig.PublicSet(keys)
	digest := sig.Hash([]byte("v"))
	qc := &QC{Phase: 1, View: 3, Digest: digest}
	for i := 0; i < 3; i++ {
		qc.Sigs = append(qc.Sigs, keys[i].Sign(domainVote1, qcInput(1, 3, digest)))
	}
	if !qc.Verify(pubs, 3) {
		t.Fatal("valid QC rejected")
	}
	if qc.Verify(pubs, 4) {
		t.Fatal("QC accepted below quorum")
	}
	dup := &QC{Phase: 1, View: 3, Digest: digest, Sigs: []sig.Signature{qc.Sigs[0], qc.Sigs[0], qc.Sigs[1]}}
	if dup.Verify(pubs, 3) {
		t.Fatal("QC with duplicate signer accepted")
	}
	wrongPhase := &QC{Phase: 2, View: 3, Digest: digest, Sigs: qc.Sigs}
	if wrongPhase.Verify(pubs, 3) {
		t.Fatal("QC verified under wrong phase domain")
	}

	tc := &TC{View: 5}
	for i := 0; i < 3; i++ {
		tc.Sigs = append(tc.Sigs, keys[i].Sign(domainTimeout, tcInput(5)))
	}
	if !tc.Verify(pubs, 3) {
		t.Fatal("valid TC rejected")
	}
	tcBad := &TC{View: 6, Sigs: tc.Sigs}
	if tcBad.Verify(pubs, 3) {
		t.Fatal("TC accepted for wrong view")
	}
}

func TestViewTimeoutBackoff(t *testing.T) {
	cfg := &Config{Keys: testkit.Authorities(4, 1), BaseTimeout: 10 * time.Second}
	if cfg.viewTimeout(1) != 10*time.Second {
		t.Fatal("base timeout wrong")
	}
	if cfg.viewTimeout(2) != 20*time.Second || cfg.viewTimeout(3) != 40*time.Second {
		t.Fatal("backoff not doubling")
	}
	if cfg.viewTimeout(6) != DefaultMaxTimeout || cfg.viewTimeout(10) != DefaultMaxTimeout {
		t.Fatal("backoff not capped")
	}
}

func TestIsProtocolMessage(t *testing.T) {
	if !IsProtocolMessage(&MsgVote{}) || !IsProtocolMessage(&MsgTC{TC: &TC{}}) {
		t.Fatal("hotstuff messages not recognized")
	}
	if IsProtocolMessage(foreignMsg{}) {
		t.Fatal("foreign type recognized")
	}
}

// foreignMsg is a non-hotstuff simnet message.
type foreignMsg struct{}

func (foreignMsg) Size() int64 { return 1 }
func (foreignMsg) Kind() string {
	return "foreign"
}

func TestReplicasOfAConfigShareOneRegistry(t *testing.T) {
	keys := sig.Authorities(1, 4)
	cfg := &Config{Keys: keys}
	pubs := cfg.Pubs()
	for i := range keys {
		if r := NewReplica(cfg, i); r.cfg.Pubs() != pubs {
			t.Fatalf("replica %d verifies through its own registry", i)
		}
	}
	if other := (&Config{Keys: keys}).Pubs(); other == pubs {
		t.Fatal("two agreement instances share a registry: it must not outlive its run")
	}
}
