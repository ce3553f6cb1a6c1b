package harness

import (
	"testing"
	"time"

	"partialtor/internal/attack"
	"partialtor/internal/client"
)

// campaign runs the scaled multi-period experiment these tests share: 150
// relays, 15 s rounds, the hash chain and the availability model on, and —
// in the periods attacked marks (nil = none) — the majority of the
// authorities flooded down to residual for the two vote rounds.
func campaign(t *testing.T, proto Protocol, periods int, residual float64, attacked func(int) bool) *ExperimentResult {
	t.Helper()
	opts := []ExperimentOption{
		WithScenario(Scenario{Protocol: proto, Relays: 150, EntryPadding: -1, Round: 15 * time.Second, Seed: 1}),
		WithPeriods(periods),
		WithAvailability(client.DefaultPolicy()),
		WithChain(),
	}
	if attacked != nil {
		opts = append(opts,
			WithAttack(attack.Plan{Targets: attack.MajorityTargets(9), End: 30 * time.Second, Residual: residual}),
			WithAttackSchedule(attacked))
	}
	exp, err := NewExperiment(opts...)
	if err != nil {
		t.Fatal(err)
	}
	r, err := exp.Run(bg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Runs) != periods || len(r.Outcomes) != periods {
		t.Fatalf("runs=%d outcomes=%d, want %d each", len(r.Runs), len(r.Outcomes), periods)
	}
	return r
}

func afterFirst(i int) bool { return i > 0 }

func TestCampaignHealthy(t *testing.T) {
	r := campaign(t, ICPS, 5, 0, nil)
	if r.Successes != 5 {
		t.Fatalf("successes=%d of 5: %v", r.Successes, r.Outcomes)
	}
	if r.Chain.Len() != 5 {
		t.Fatalf("chain length %d", r.Chain.Len())
	}
	if err := r.Chain.Verify(); err != nil {
		t.Fatalf("chain invalid: %v", err)
	}
	if r.Availability != 1 || r.FirstOutage != -1 {
		t.Fatalf("availability %.2f firstOutage %v", r.Availability, r.FirstOutage)
	}
	head, ok := r.Chain.Head()
	if !ok || head.Epoch != 5 {
		t.Fatalf("head %+v", head)
	}
}

func TestCampaignSustainedAttackOnCurrent(t *testing.T) {
	// Period 0 healthy, every later period attacked: the current protocol
	// loses them all, the chain freezes at one link, and the network goes
	// down exactly three hours after the only consensus.
	r := campaign(t, Current, 6, 5e3, afterFirst)
	if r.Successes != 1 {
		t.Fatalf("successes=%d, want 1: %v", r.Successes, r.Outcomes)
	}
	if r.Chain.Len() != 1 {
		t.Fatalf("chain length %d", r.Chain.Len())
	}
	if r.FirstOutage != 3*time.Hour {
		t.Fatalf("network died at %v, want 3h", r.FirstOutage)
	}
	if r.Availability >= 1 {
		t.Fatal("availability did not drop")
	}
}

func TestCampaignSustainedAttackOnICPS(t *testing.T) {
	// The same attack schedule against the partially synchronous protocol:
	// every period still produces a consensus (the attack only delays it),
	// the chain grows every hour and the network never goes down.
	r := campaign(t, ICPS, 6, 5e3, afterFirst)
	if r.Successes != 6 {
		t.Fatalf("successes=%d of 6: %v", r.Successes, r.Outcomes)
	}
	if r.Chain.Len() != 6 {
		t.Fatalf("chain length %d", r.Chain.Len())
	}
	if err := r.Chain.Verify(); err != nil {
		t.Fatalf("chain invalid: %v", err)
	}
	if r.FirstOutage != -1 || r.Availability != 1 {
		t.Fatalf("outage %v availability %.2f", r.FirstOutage, r.Availability)
	}
}

func TestCrossProtocolConsensusAgreement(t *testing.T) {
	// On a healthy network with identical inputs, all three protocols must
	// aggregate the *same* consensus document: the aggregation algorithm
	// (Figure 2) is shared and deterministic, and each protocol delivers
	// all nine votes.
	digest := map[Protocol]string{}
	for _, proto := range []Protocol{Current, Synchronous, ICPS} {
		run := mustRun(t, Scenario{
			Protocol:     proto,
			Relays:       120,
			EntryPadding: 0,
			Round:        20 * time.Second,
			Seed:         6,
		})
		if !run.Success {
			t.Fatalf("%v failed", proto)
		}
		c := run.Consensus()
		if c == nil {
			t.Fatalf("%v succeeded without a consensus document", proto)
		}
		digest[proto] = c.Digest().Hex()
	}
	if digest[Current] != digest[Synchronous] || digest[Current] != digest[ICPS] {
		t.Fatalf("protocols disagree on the consensus document: %v", digest)
	}
}

// TestCampaignFullOutage runs the knock-offline case end to end: with a
// zero residual the attacked periods flood the majority down to zero
// bandwidth, and the current protocol still loses every attacked period.
func TestCampaignFullOutage(t *testing.T) {
	r := campaign(t, Current, 5, 0, afterFirst)
	if r.Successes != 1 {
		t.Fatalf("successes=%d, want only the healthy period: %v", r.Successes, r.Outcomes)
	}
	if r.FirstOutage != 3*time.Hour {
		t.Fatalf("network died at %v, want validity end 3h", r.FirstOutage)
	}
	if r.Availability >= 1 {
		t.Fatal("availability did not drop under the full outage")
	}
}
