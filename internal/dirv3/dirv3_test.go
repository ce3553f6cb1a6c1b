package dirv3

import (
	"strings"
	"testing"
	"time"

	"partialtor/internal/sig"
	"partialtor/internal/simnet"
	"partialtor/internal/testkit"
	"partialtor/internal/vote"
)

// runScenario executes a dirv3 run and returns the result and network.
func runScenario(t *testing.T, cfg Config, relays int, bandwidth float64,
	shape func(*testkit.Net)) (*result, *testkit.Net) {
	t.Helper()
	auths, tn := runAuthorities(t, cfg, bandwidth, shape)
	return collect(auths), tn
}

// result is what the tests read off a run's authorities.
type result struct {
	Success      bool // at least one authority published
	SuccessCount int
	SigCounts    []int
	VoteCounts   []int // votes held at the end of the run
	Digests      []sig.Digest
	Latency      time.Duration   // the latest publisher's
	Consensus    *vote.Consensus // the lowest-index publisher's
}

func collect(auths []*Authority) *result {
	res := &result{Latency: simnet.Never}
	for _, a := range auths {
		cons, sigs, published, lat := a.Record()
		res.SigCounts = append(res.SigCounts, sigs)
		res.VoteCounts = append(res.VoteCounts, len(a.votes))
		res.Digests = append(res.Digests, a.consDigest)
		if !published {
			continue
		}
		if res.SuccessCount++; res.Consensus == nil {
			res.Consensus = cons
		}
		if lat != simnet.Never && (res.Latency == simnet.Never || lat > res.Latency) {
			res.Latency = lat
		}
	}
	res.Success = res.SuccessCount > 0
	return res
}

// runAuthorities executes a dirv3 run and returns the authorities as it
// left them.
func runAuthorities(t *testing.T, cfg Config, bandwidth float64, shape func(*testkit.Net)) ([]*Authority, *testkit.Net) {
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
	tn.Run(cfg.EndTime() + time.Second)
	return auths, tn
}

func baseConfig(t *testing.T, n, relays, padding int) Config {
	t.Helper()
	keys := testkit.Authorities(n, 1)
	return Config{Keys: keys, Docs: testkit.Docs(keys, relays, 1, padding)}
}

func TestHappyPathConsensus(t *testing.T) {
	cfg := baseConfig(t, 9, 100, -1)
	res, _ := runScenario(t, cfg, 100, 250e6, nil)
	if !res.Success || res.SuccessCount != 9 {
		t.Fatalf("success=%v count=%d, want all 9", res.Success, res.SuccessCount)
	}
	for i := 1; i < 9; i++ {
		if res.Digests[i] != res.Digests[0] {
			t.Fatalf("digest mismatch at authority %d", i)
		}
		if res.SigCounts[i] != 9 {
			t.Fatalf("authority %d holds %d matching sigs, want 9", i, res.SigCounts[i])
		}
	}
	if res.Consensus == nil || len(res.Consensus.Relays) == 0 {
		t.Fatal("no consensus document produced")
	}
	if res.Latency == simnet.Never || res.Latency <= 0 {
		t.Fatalf("latency=%v", res.Latency)
	}
	if res.Latency > 10*time.Second {
		t.Fatalf("latency %v implausibly high at 250 Mbit/s with 100 relays", res.Latency)
	}
}

func TestConsensusContainsAggregatedRelays(t *testing.T) {
	cfg := baseConfig(t, 5, 60, 0)
	res, _ := runScenario(t, cfg, 60, 250e6, nil)
	if !res.Success {
		t.Fatal("run failed")
	}
	// Relays dropped by too many views are excluded; most survive.
	if got := len(res.Consensus.Relays); got < 55 || got > 60 {
		t.Fatalf("consensus has %d relays, want ~60", got)
	}
	if res.Consensus.NumVotes != 5 {
		t.Fatalf("NumVotes=%d, want 5", res.Consensus.NumVotes)
	}
}

func TestAttackPreventsConsensus(t *testing.T) {
	// Scaled-down headline attack: throttle a majority of authorities to a
	// trickle for the vote rounds. Votes cannot propagate; nobody reaches
	// the 5-vote threshold.
	cfg := baseConfig(t, 9, 300, -1)
	cfg.Round = 15 * time.Second
	cfg.FetchTimeout = 3 * time.Second
	res, tn := runScenario(t, cfg, 300, 250e6, func(tn *testkit.Net) {
		for i := 0; i < 5; i++ {
			tn.Throttle(i, 0, 30*time.Second, 5e3) // 5 kbit/s residual
		}
	})
	if res.Success {
		t.Fatalf("consensus succeeded under attack: %+v", res.SigCounts)
	}
	if res.SuccessCount != 0 {
		t.Fatalf("%d authorities succeeded under attack", res.SuccessCount)
	}
	// A healthy authority's log shows the Figure-1 lines.
	log := tn.Network.NodeLog(8)
	var text strings.Builder
	for _, e := range log {
		text.WriteString(e.Text)
		text.WriteByte('\n')
	}
	for _, want := range []string{
		"Time to fetch any votes that we're missing.",
		"We're missing votes from",
		"Asking every other authority for a copy.",
		"Time to compute a consensus.",
		"We don't have enough votes to generate a consensus:",
	} {
		if !strings.Contains(text.String(), want) {
			t.Fatalf("log missing %q; log:\n%s", want, text.String())
		}
	}
}

func TestGiveUpLogUnderOutage(t *testing.T) {
	cfg := baseConfig(t, 9, 100, -1)
	cfg.Round = 15 * time.Second
	cfg.FetchTimeout = 3 * time.Second
	_, tn := runScenario(t, cfg, 100, 250e6, func(tn *testkit.Net) {
		for i := 0; i < 5; i++ {
			tn.Throttle(i, 0, 40*time.Second, 0) // knocked offline
		}
	})
	log := tn.Network.NodeLog(7)
	found := false
	for _, e := range log {
		if strings.Contains(e.Text, "Giving up downloading votes from") {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no give-up lines logged for unreachable peers")
	}
}

func TestFetchRecoversMissingVote(t *testing.T) {
	// One authority is throttled during the vote round only; the fetch
	// round retrieves its vote from peers that did receive it, and the run
	// succeeds.
	cfg := baseConfig(t, 9, 50, 0)
	cfg.Round = 20 * time.Second
	cfg.FetchTimeout = 5 * time.Second
	res, _ := runScenario(t, cfg, 50, 250e6, func(tn *testkit.Net) {
		// Node 0's uplink is dead for the first 15s: its direct votes to
		// some peers will be late, but it reaches at least one peer before
		// the fetch round, which then serves everyone.
		tn.Up[0].ThrottleMin(100*time.Millisecond, 15*time.Second, 2e3)
	})
	if !res.Success {
		t.Fatalf("fetch round failed to recover: votes=%v", res.VoteCounts)
	}
}

func TestLowUniformBandwidthFailureThreshold(t *testing.T) {
	// With round = 15s at 10 Mbit/s, an authority moves 8 vote copies
	// through its uplink in 64·V/B seconds. 500 relays (V≈1.25MB) fit in
	// ~8s; 1500 relays (V≈3.75MB) need ~24s and miss the deadline chain.
	small := baseConfig(t, 9, 500, -1)
	small.Round = 15 * time.Second
	resSmall, _ := runScenario(t, small, 500, 10e6, nil)
	if !resSmall.Success {
		t.Fatal("500 relays at 10 Mbit/s should succeed")
	}
	big := baseConfig(t, 9, 1500, -1)
	big.Round = 15 * time.Second
	resBig, _ := runScenario(t, big, 1500, 10e6, nil)
	if resBig.Success {
		t.Fatal("1500 relays at 10 Mbit/s with 15s rounds should fail")
	}
}

func TestEquivocationSplitsConsensus(t *testing.T) {
	// Authority 0 sends one vote to even peers and another to odd peers.
	// The two camps aggregate different documents, so only one camp can
	// assemble a majority of matching signatures (the insecurity Luo et
	// al. demonstrated in the current protocol).
	cfg := baseConfig(t, 9, 80, 0)
	altDocs := testkit.Docs(cfg.Keys, 40, 99, 0)
	cfg.Equivocators = map[int]*vote.Document{0: altDocs[0]}
	res, tn := runScenario(t, cfg, 80, 250e6, nil)
	distinct := map[string]int{}
	for i, d := range res.Digests {
		if res.VoteCounts[i] > 0 && !d.IsZero() {
			distinct[d.Hex()]++
		}
	}
	if len(distinct) < 2 {
		t.Fatalf("equivocation produced a single digest set: %v", distinct)
	}
	if res.SuccessCount == 9 {
		t.Fatal("all authorities succeeded despite split consensus")
	}
	// Honest receivers that saw both copies log the conflict during the
	// fetch round (vote responses relay the other copy).
	sawWarn := false
	for id := 1; id < 9; id++ {
		for _, e := range tn.Network.NodeLog(simnet.NodeID(id)) {
			if strings.Contains(e.Text, "equivocated") {
				sawWarn = true
			}
		}
	}
	if !sawWarn {
		t.Log("no equivocation warning observed (copies may not have crossed); acceptable")
	}
}

func TestBadSignatureRejected(t *testing.T) {
	// A vote signed by the wrong key is rejected: build a config where doc
	// authority indices don't match the signer.
	cfg := baseConfig(t, 4, 20, 0)
	// Tamper: authority 1's doc claims to be from authority 2.
	cfg.Docs[1].AuthorityIndex = 2
	res, _ := runScenario(t, cfg, 20, 250e6, nil)
	// Authority 1's vote is rejected everywhere (signer mismatch): each
	// other authority holds 3 votes (incl. own), authority 1 holds 4 of
	// its own accounting.
	for i, vc := range res.VoteCounts {
		if i == 1 {
			continue
		}
		if vc != 3 {
			t.Fatalf("authority %d holds %d votes, want 3 (forged vote rejected)", i, vc)
		}
	}
}

func TestLatencyMetricGrowsWithDocumentSize(t *testing.T) {
	smallCfg := baseConfig(t, 9, 100, -1)
	resSmall, _ := runScenario(t, smallCfg, 100, 50e6, nil)
	bigCfg := baseConfig(t, 9, 800, -1)
	resBig, _ := runScenario(t, bigCfg, 800, 50e6, nil)
	if !resSmall.Success || !resBig.Success {
		t.Fatal("both runs should succeed at 50 Mbit/s")
	}
	if resBig.Latency <= resSmall.Latency {
		t.Fatalf("latency not increasing with size: %v vs %v", resSmall.Latency, resBig.Latency)
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{Keys: testkit.Authorities(9, 1)}
	if cfg.Majority() != 5 {
		t.Fatalf("majority=%d, want 5", cfg.Majority())
	}
	if cfg.round() != DefaultRound || cfg.fetchTimeout() != DefaultFetchTimeout {
		t.Fatal("defaults not applied")
	}
	if cfg.EndTime() != 600*time.Second {
		t.Fatalf("EndTime=%v, want 600s", cfg.EndTime())
	}
}
