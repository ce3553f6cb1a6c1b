package hotstuff

import (
	"fmt"
	"testing"
	"time"

	"partialtor/internal/simnet"
	"partialtor/internal/testkit"
)

// TestLockedValueSurvivesViewChange pins the safety core of the two-chain
// protocol: once a quorum locks on QC₁(v, d), a later view must re-propose
// that value — even though the new leader has its own input.
//
// Construction: view 1 proceeds through PROPOSE/VOTE₁/LOCK normally, but
// every phase-2 vote of view 1 is delayed past the view timeout, so QC₂
// never forms. The timeout certificate carries the lock to view 2, whose
// leader must decide view 1's value, not its own.
func TestLockedValueSurvivesViewChange(t *testing.T) {
	cfg := &Config{
		Keys: testkit.Authorities(9, 3),
		Propose: func(index, view int) Value {
			return testValue{s: fmt.Sprintf("input-%d", index)}
		},
		BaseTimeout: 5 * time.Second,
	}
	reps := make([]*Replica, 9)
	hs := make([]simnet.Handler, 9)
	for i := range reps {
		reps[i] = NewReplica(cfg, i)
		hs[i] = &tnode{r: reps[i]}
	}
	tn := testkit.NewNet(9, 250e6, 3)
	tn.Network.SetDelayFilter(func(from, to simnet.NodeID, m simnet.Message) time.Duration {
		if v, ok := m.(*MsgVote); ok && v.Phase == 2 && v.View == 1 {
			return time.Hour // strand view 1's second phase
		}
		return 0
	})
	tn.Attach(hs)
	tn.Run(30 * time.Minute)

	want := (testValue{s: "input-0"}).Digest()
	for i, r := range reps {
		v, ok := r.decidedValue, r.decided
		if !ok {
			t.Fatalf("replica %d undecided", i)
		}
		if v.Digest() != want {
			t.Fatalf("replica %d decided %s; the view-1 lock on input-0 was abandoned",
				i, v.Digest().Short())
		}
		if r.DecidedView() < 2 {
			t.Fatalf("replica %d decided in view %d; the delay filter failed", i, r.DecidedView())
		}
	}
}

// TestStaleProposalWithoutEntryTCIgnored: a proposal claiming a future view
// must prove the view change with a valid TC.
func TestStaleProposalWithoutEntryTCIgnored(t *testing.T) {
	cfg := &Config{
		Keys:        testkit.Authorities(4, 5),
		Propose:     func(index, view int) Value { return testValue{s: "x"} },
		BaseTimeout: time.Hour, // no organic view changes
	}
	reps := make([]*Replica, 4)
	hs := make([]simnet.Handler, 4)
	for i := range reps {
		reps[i] = NewReplica(cfg, i)
		hs[i] = &tnode{r: reps[i]}
	}
	tn := testkit.NewNet(4, 250e6, 5)
	// Drop everything so the replicas stay in view 1 untouched.
	tn.Network.SetDropFilter(func(from, to simnet.NodeID, m simnet.Message) bool { return true })
	tn.Attach(hs)
	tn.Network.Run(time.Second)

	// Inject a view-7 proposal with no TC directly: the replica must
	// ignore it before touching any context or voting state.
	reps[1].handleProposal(nil, &MsgProposal{View: 7, Value: testValue{s: "evil"}})
	if reps[1].View() != 1 {
		t.Fatalf("replica jumped to view %d on an unproven proposal", reps[1].View())
	}
	if reps[1].views[7] != nil {
		t.Fatal("replica voted in an unproven view")
	}
}
