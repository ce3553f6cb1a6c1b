package core

import (
	"math/rand"
	"testing"
	"time"

	"partialtor/internal/sig"
	"partialtor/internal/simnet"
	"partialtor/internal/testkit"
	"partialtor/internal/vote"
)

// runScenario wires the authorities into a network and runs it.
func runScenario(t *testing.T, cfg Config, bandwidth float64, limit time.Duration,
	shape func(*testkit.Net)) []*Authority {
	t.Helper()
	n := len(cfg.Keys)
	tn := testkit.NewNet(n, bandwidth, 1)
	if shape != nil {
		shape(tn)
	}
	auths := NewAuthorities(cfg)
	hs := make([]simnet.Handler, n)
	for i, a := range auths {
		hs[i] = a
	}
	tn.Attach(hs)
	tn.Run(limit)
	return auths
}

// result is what the tests read off a run's authorities.
type result struct {
	DoneAt     []time.Duration // per authority; Never if it did not publish
	ConsDigest []sig.Digest
	Success    bool          // every correct authority published
	DoneCount  int           // authorities that published
	Latency    time.Duration // max DoneAt over correct authorities
	OKCount    int           // non-⊥ entries of the agreed vector
	Consensus  *vote.Consensus
}

// collect reads the run's outcome off the authorities. correct(i)
// distinguishes honest authorities (Byzantine ones are exempt from the
// success criteria); nil means all but the silent and the equivocators.
func collect(auths []*Authority, cfg Config, correct func(i int) bool) *result {
	if correct == nil {
		correct = func(i int) bool { return !cfg.Silent[i] && cfg.Equivocators[i] == nil }
	}
	res := &result{Latency: simnet.Never, Success: true}
	latest := time.Duration(0)
	for i, a := range auths {
		cons, _, done, at := a.Record()
		res.DoneAt = append(res.DoneAt, at)
		res.ConsDigest = append(res.ConsDigest, a.consDigest)
		if done {
			if res.DoneCount++; res.Consensus == nil {
				res.Consensus, res.OKCount = cons, a.decided.OKCount()
			}
		}
		if correct(i) {
			res.Success = res.Success && done
			latest = max(latest, at)
		}
	}
	if res.Success = res.Success && res.DoneCount > 0; res.Success {
		res.Latency = latest
	}
	return res
}

func baseConfig(t *testing.T, n, relays, padding int) Config {
	t.Helper()
	keys := testkit.Authorities(n, 1)
	return Config{
		Keys:        keys,
		Docs:        testkit.Docs(keys, relays, 1, padding),
		Delta:       5 * time.Second,
		BaseTimeout: 10 * time.Second,
	}
}

// assertDefinition51 checks the four properties of Interactive Consistency
// under Partial Synchrony over the correct authorities.
func assertDefinition51(t *testing.T, auths []*Authority, cfg Config, correct func(int) bool) {
	t.Helper()
	if correct == nil {
		correct = func(int) bool { return true }
	}
	var ref []sig.Digest
	for i, a := range auths {
		if !correct(i) {
			continue
		}
		// Termination.
		if !a.done {
			t.Fatalf("authority %d did not terminate", i)
		}
		vec := a.decided.DigestVector()
		if len(vec) != cfg.n() {
			t.Fatalf("authority %d output vector of size %d", i, len(vec))
		}
		// Agreement.
		if ref == nil {
			ref = vec
		} else {
			for j := range vec {
				if vec[j] != ref[j] {
					t.Fatalf("authority %d disagrees at entry %d", i, j)
				}
			}
		}
		// Common set validity: |X|≠⊥ ≥ n−f.
		nonBot := 0
		for _, d := range vec {
			if !d.IsZero() {
				nonBot++
			}
		}
		if nonBot < cfg.Quorum() {
			t.Fatalf("authority %d output only %d non-⊥ entries, need %d", i, nonBot, cfg.Quorum())
		}
		// Value validity: x_{i,i} ∈ {x_i, ⊥}.
		own := cfg.Docs[i].Digest()
		if !vec[i].IsZero() && vec[i] != own {
			t.Fatalf("authority %d's own entry is a foreign digest", i)
		}
	}
}

func TestHappyPathICPS(t *testing.T) {
	cfg := baseConfig(t, 9, 100, -1)
	auths := runScenario(t, cfg, 250e6, 2*time.Minute, nil)
	res := collect(auths, cfg, nil)
	if !res.Success || res.DoneCount != 9 {
		t.Fatalf("success=%v done=%d", res.Success, res.DoneCount)
	}
	assertDefinition51(t, auths, cfg, nil)
	// GST = 0: every correct node's own document is included (strong value
	// validity) — all 9 entries OK.
	if res.OKCount != 9 {
		t.Fatalf("OKCount=%d, want 9 under GST=0", res.OKCount)
	}
	for i, a := range auths {
		vec := a.decided.DigestVector()
		if vec[i] != cfg.Docs[i].Digest() {
			t.Fatalf("authority %d's own document excluded under GST=0", i)
		}
		if a.DecidedView() != 1 {
			t.Fatalf("authority %d decided in view %d, want 1", i, a.DecidedView())
		}
	}
	// All signed the same consensus.
	for i := 1; i < 9; i++ {
		if res.ConsDigest[i] != res.ConsDigest[0] {
			t.Fatalf("consensus digest split at %d", i)
		}
	}
	if res.Latency > 10*time.Second {
		t.Fatalf("latency %v too high on a healthy 250 Mbit/s network", res.Latency)
	}
	if res.Consensus == nil || len(res.Consensus.Relays) == 0 {
		t.Fatal("no consensus document")
	}
}

func TestTwoSilentAuthorities(t *testing.T) {
	// f = 2 crash faults: the protocol must still terminate with ≥ n−f
	// entries; the silent authorities' entries are ⊥ by timeout.
	cfg := baseConfig(t, 9, 60, 0)
	cfg.Silent = map[int]bool{4: true, 7: true}
	auths := runScenario(t, cfg, 250e6, 5*time.Minute, nil)
	correct := func(i int) bool { return !cfg.Silent[i] }
	res := collect(auths, cfg, correct)
	if !res.Success {
		t.Fatalf("correct authorities did not all finish: %v", res.DoneAt)
	}
	assertDefinition51(t, auths, cfg, correct)
	if res.OKCount != 7 {
		t.Fatalf("OKCount=%d, want 7 (two crashed)", res.OKCount)
	}
	v := auths[0].Decided()
	for _, j := range []int{4, 7} {
		if v.Entries[j].Status != EntryBotEquivocation && v.Entries[j].Status != EntryBotTimeout {
			t.Fatalf("silent authority %d has status %v", j, v.Entries[j].Status)
		}
	}
}

func TestEquivocatorExcludedWithProof(t *testing.T) {
	// Authority 3 sends different documents to even and odd peers. The
	// leader assembles an equivocation proof and the agreed vector marks
	// entry 3 as ⊥(equivocation); the consensus is built without it and
	// no correct pair ends with different documents.
	cfg := baseConfig(t, 9, 60, 0)
	altDocs := testkit.Docs(cfg.Keys, 30, 77, 0)
	cfg.Equivocators = map[int]*vote.Document{3: altDocs[3]}
	auths := runScenario(t, cfg, 250e6, 5*time.Minute, nil)
	correct := func(i int) bool { return i != 3 }
	res := collect(auths, cfg, correct)
	if !res.Success {
		t.Fatalf("run failed: %v", res.DoneAt)
	}
	assertDefinition51(t, auths, cfg, correct)
	v := auths[0].Decided()
	if v.Entries[3].Status != EntryBotEquivocation {
		t.Fatalf("entry 3 status %v, want ⊥(equivocation)", v.Entries[3].Status)
	}
	if res.OKCount != 8 {
		t.Fatalf("OKCount=%d, want 8", res.OKCount)
	}
	// The excluded document's relays are absent from the consensus (they
	// are known only to authority 3's vote): all other relays survive.
	if res.Consensus.NumVotes != 8 {
		t.Fatalf("consensus aggregated %d votes, want 8", res.Consensus.NumVotes)
	}
}

func TestSilentFirstLeaderViewChange(t *testing.T) {
	cfg := baseConfig(t, 9, 40, 0)
	cfg.Silent = map[int]bool{0: true}
	auths := runScenario(t, cfg, 250e6, 5*time.Minute, nil)
	correct := func(i int) bool { return i != 0 }
	res := collect(auths, cfg, correct)
	if !res.Success {
		t.Fatalf("run failed: %v", res.DoneAt)
	}
	assertDefinition51(t, auths, cfg, correct)
	for i := 1; i < 9; i++ {
		if auths[i].DecidedView() < 2 {
			t.Fatalf("authority %d decided in view %d despite silent leader", i, auths[i].DecidedView())
		}
	}
}

func TestWorksAtDDoSBandwidth(t *testing.T) {
	// At 1 Mbit/s the current protocol's deadlines are hopeless, but ICPS
	// just takes longer: dissemination streams the documents, agreement
	// and aggregation ride on small messages.
	cfg := baseConfig(t, 9, 100, -1) // V ≈ 250 kB
	auths := runScenario(t, cfg, 1e6, 30*time.Minute, nil)
	res := collect(auths, cfg, nil)
	if !res.Success {
		t.Fatalf("ICPS failed at 1 Mbit/s: %v", res.DoneAt)
	}
	assertDefinition51(t, auths, cfg, nil)
	if res.Latency < 10*time.Second {
		t.Fatalf("latency %v suspiciously low for 1 Mbit/s", res.Latency)
	}
	if res.Latency > 10*time.Minute {
		t.Fatalf("latency %v too high", res.Latency)
	}
}

func TestFiveMinuteOutageRecovery(t *testing.T) {
	// The paper's Figure 11 scenario, scaled to a 60s outage: 5 of 9
	// authorities knocked offline at the start. Nothing can decide during
	// the outage (no quorum), and consensus lands seconds after it ends.
	cfg := baseConfig(t, 9, 60, 0)
	outage := time.Minute
	auths := runScenario(t, cfg, 250e6, outage+10*time.Minute, func(tn *testkit.Net) {
		for i := 0; i < 5; i++ {
			tn.Throttle(i, 0, outage, 0)
		}
	})
	res := collect(auths, cfg, nil)
	if !res.Success {
		t.Fatalf("no recovery after outage: %v", res.DoneAt)
	}
	assertDefinition51(t, auths, cfg, nil)
	for i, a := range auths {
		if a.doneAt < outage {
			t.Fatalf("authority %d finished at %v, during the outage", i, a.doneAt)
		}
		if a.doneAt > outage+30*time.Second {
			t.Fatalf("authority %d took until %v; want seconds after recovery", i, a.doneAt)
		}
	}
}

func TestLaggardCatchesUpAndAggregates(t *testing.T) {
	// Authority 8 can send but not receive for the first 20s: the others
	// decide without it (its document IS included — uplink works); once
	// its downlink recovers it learns the decision and completes
	// aggregation from queued traffic.
	cfg := baseConfig(t, 9, 40, 0)
	auths := runScenario(t, cfg, 250e6, 5*time.Minute, func(tn *testkit.Net) {
		tn.Down[8].ThrottleMin(0, 20*time.Second, 0)
	})
	res := collect(auths, cfg, nil)
	if !res.Success {
		t.Fatalf("run failed: %v", res.DoneAt)
	}
	assertDefinition51(t, auths, cfg, nil)
	if auths[8].doneAt < 20*time.Second {
		t.Fatalf("laggard finished at %v, before its downlink recovered", auths[8].doneAt)
	}
	for i := 0; i < 8; i++ {
		if auths[i].doneAt >= 20*time.Second {
			t.Fatalf("authority %d waited for the laggard (done at %v)", i, auths[i].doneAt)
		}
	}
	// The laggard's own document was included: uplink was never cut.
	vec := auths[0].decided.DigestVector()
	if vec[8].IsZero() {
		t.Fatal("laggard's document excluded despite a working uplink")
	}
}

func TestAgreementUnderAdversarialDelays(t *testing.T) {
	// Random pre-GST delays: Definition 5.1 must hold on every seed.
	for seed := int64(0); seed < 6; seed++ {
		cfg := baseConfig(t, 9, 30, 0)
		n := len(cfg.Keys)
		tn := testkit.NewNet(n, 250e6, 100+seed)
		rng := rand.New(rand.NewSource(seed))
		gst := 40 * time.Second
		net := tn.Network
		net.SetDelayFilter(func(from, to simnet.NodeID, m simnet.Message) time.Duration {
			if net.Now() < gst {
				return time.Duration(rng.Int63n(int64(25 * time.Second)))
			}
			return 0
		})
		auths := NewAuthorities(cfg)
		hs := make([]simnet.Handler, n)
		for i, a := range auths {
			hs[i] = a
		}
		tn.Attach(hs)
		tn.Run(30 * time.Minute)
		res := collect(auths, cfg, nil)
		if !res.Success {
			t.Fatalf("seed %d: termination failed: %v", seed, res.DoneAt)
		}
		assertDefinition51(t, auths, cfg, nil)
	}
}

func TestConfigArithmetic(t *testing.T) {
	cfg := Config{Keys: testkit.Authorities(9, 1)}
	if cfg.F() != 2 || cfg.Quorum() != 7 || cfg.Majority() != 5 {
		t.Fatalf("n=9: f=%d quorum=%d majority=%d", cfg.F(), cfg.Quorum(), cfg.Majority())
	}
	if cfg.delta() != DefaultDelta {
		t.Fatal("delta default not applied")
	}
}
