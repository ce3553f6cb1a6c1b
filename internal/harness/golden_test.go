package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"sort"
	"testing"
	"time"

	"partialtor/internal/attack"
	"partialtor/internal/dircache"
	"partialtor/internal/faults"
	"partialtor/internal/gossip"
	"partialtor/internal/obs"
	"partialtor/internal/simnet"
	"partialtor/internal/topo"
)

// The golden kernel corpus pins byte-identical outputs of the simulation
// kernel: for every registered paper protocol, across several seeds, one
// DDoS-attacked scenario (authority flood carried into a cache-tier flood
// during distribution) and one compromised-mirror scenario (equivocating
// caches against verifying client fleets). The digests cover the coverage
// curves, the transport stats (including per-kind accounting), every
// authority's protocol log, and the full distribution outcome.
//
// These digests were recorded before the flood-scale kernel rewrite
// (value-heap scheduler, allocation-free fluid pipes, interned kind stats)
// and must never drift: any optimization of internal/simnet or the dircache
// hot paths has to reproduce these bytes exactly. Re-record only for an
// intentional semantic change, with GOLDEN_RECORD=1:
//
//	GOLDEN_RECORD=1 go test ./internal/harness -run TestGoldenKernelCorpus -v
var goldenKernelDigests = map[string]string{
	"Current/seed1/attacked":         "aaa713c37d7478f9177daf590344e9b375bbd45d3a05f7e47fc5c69c354241fd",
	"Current/seed1/compromised":      "29fde4c4b1109c74718c88fc55f260702dfe2a223ab33262cf1a2e33c8e2fac3",
	"Current/seed7/attacked":         "3463d65c02b5804893441955e55887351e1faf93502599b808179fe9de1071c1",
	"Current/seed7/compromised":      "825b893a17a49b7c97bd5c1f3c6d516e607d2f16273770145746c99b3c6af49f",
	"Current/seed42/attacked":        "7335c059fb488b92bda6e0da5ea9ba5e40a99440513a18915938587e4fc1de65",
	"Current/seed42/compromised":     "943f13556757bf398cf0e0c74229f902e06c000d457e5df121ab034df1067828",
	"Synchronous/seed1/attacked":     "2f583c41757468a249efa4e5c822244812fac6da1f2b729b27b22d2d00629d5c",
	"Synchronous/seed1/compromised":  "6c584169b43399d0b60acffa11bbd25da754f1d285d96e6da2c13e053e376ecd",
	"Synchronous/seed7/attacked":     "ab5ca6acd88722ee84c6874c51605a15d28578faeb4dfbd8af9b0539c91782ed",
	"Synchronous/seed7/compromised":  "4eac21f0d4b27090683ac90a749f37946d5290fa3cc23b9ebee762705f9d5f0b",
	"Synchronous/seed42/attacked":    "24d2de2f60e506f66d07051dd892d76d1aecedc8d82f50b3cc683728f02c3db3",
	"Synchronous/seed42/compromised": "2ab9af0268c35211ec857de5f474a21a1ae15c5073993bc7d706a291bf7feae1",
	"Ours/seed1/attacked":            "53152583ab79496ea95c4d2dcc357808944e21f9ee4ca0d40f9adc5120bc4e8a",
	"Ours/seed1/compromised":         "e37c66f389130dd5a9b0e887e9a6777e8c77312f95f4c4102a168f52b39942f0",
	"Ours/seed7/attacked":            "ca23faee94b559d3d4f04bc4c1ae2c8c144c903323fbb5b046c1392315317566",
	"Ours/seed7/compromised":         "e08acbb12e1fb9ea09cf08b7ebd131c5353f3b215170ccd64b99d1c72f969999",
	"Ours/seed42/attacked":           "6ee696ced497c97c66d97b78e28798fbaaf79f3123b632b2bdaa99aa676207a8",
	"Ours/seed42/compromised":        "504d2e1da16cd2759bfec94da2f5b850b43bd182aedfbe8778c33a8a068a2eac",

	// The regional cells pin the topology layer: continental placement and
	// latencies, a region-scoped mirror flood, and the K=2 racing client.
	// They were recorded after the cells above and extend the corpus — the
	// flat cells' digests did not change when the topology layer landed.
	"Current/seed1/regional":      "4a93099c085443dd5b7f537a07b14d1fb87e6ffcb917ed95d33f80fcaf421417",
	"Current/seed7/regional":      "3c4c50a0eec792e9cab697f14325e0ab9482ef5f08590a98c48750847800eff5",
	"Current/seed42/regional":     "3d6a73785ead629ed4547404e7c0afef54f1d0316e49a9bc0e6b53819d25cdf6",
	"Synchronous/seed1/regional":  "9613a2da96ef915d585e01cfa2f2d1e814d2a36f62c3e368a4ee2db805dbdd74",
	"Synchronous/seed7/regional":  "4654fc35793318946da15a1882ec784efd9f8aed3eabc61a1219beb6df9a4e66",
	"Synchronous/seed42/regional": "41aac68126b61441db270fc7964d3690179622a417881573db21a64e1a22dbd9",
	"Ours/seed1/regional":         "b6a16182dfbce1960644a9c156cbf6de369bf0b3f71350a361a9410e7c9f58e7",
	"Ours/seed7/regional":         "88b24ec428858cb87964c8f70c7a85c7bfbebb3e8bfd076d1cd4aaf8fb40aecb",
	"Ours/seed42/regional":        "81d4f6e20eb5ad16b29607e7505d7a886e8f89e5585a6310f26368b955ac0c76",

	// The gossip cells pin the cache mesh: a total authority flood with one
	// seeded mirror, recovery over the fanout-3 mesh, plus the no-gossip
	// baseline curve hashed into the same digest. Recorded after the cells
	// above — no earlier digest changed when the mesh landed.
	"Current/seed1/gossip":      "07f98ddc39c33e357545f1782b30ef8419dd14dee36b2691147c97ed600b95f6",
	"Current/seed7/gossip":      "ce6b8cd25cb5b807348b080073cf7ebdc319c07520abd1dff63d6fdb86ba9982",
	"Current/seed42/gossip":     "c37fe55421a73c5463171f6453504ea48cddfa98e2d9fd8001fc8d4c35863319",
	"Synchronous/seed1/gossip":  "a33cd687d048c6a54928c5c2fa7b6c21b546bb96a17119f1ca43d5622593bf75",
	"Synchronous/seed7/gossip":  "4999538818f75acd0ff8796440a2fff9129ed2ab35642265789293362a0f5338",
	"Synchronous/seed42/gossip": "a65434e5792dcc9a1fd2c4a3a7085f622437e6a577c31ed515b3e1df3ec77dd1",
	"Ours/seed1/gossip":         "a44c17765d077c12f551f2a633bfb319f1e9bdde810b7ca7d92401e12833661c",
	"Ours/seed7/gossip":         "8bdeebc14d877fb0a760042e58a0b0febcc0b34d6ef6b69228b2cd0edfb93501",
	"Ours/seed42/gossip":        "a281e1426e5360f47482e0d66b5eb564748e3ef6a2fe66581e50ad6ff9e340f5",

	// The faults cells pin the chaos layer: the compound flood + crash +
	// churn drill with jittered-backoff fleets, plus the legacy fixed-retry
	// baseline curve hashed into the same digest. Recorded after the cells
	// above — no earlier digest changed when the fault layer landed.
	"Current/seed1/faults":      "962d19f3645e1e149440aa8a42e71f83c248911f2f6f8830d9321b344b52feb1",
	"Current/seed7/faults":      "3b6585a8b81b87e1b76c2778aaa29c8d224188385f7ace8a1032e6dab33cc38b",
	"Current/seed42/faults":     "b2b8dcadaf42e7a397c7e350268b152f848321c541ed26883b3e77bec2caaa1d",
	"Synchronous/seed1/faults":  "5bdf9a46d8fc2c2a52f45475e3eb4e8204ed5ddc3f7505ebbd9b22114186e364",
	"Synchronous/seed7/faults":  "a35e84a19f3051d8be2e67d4467fe93d567cb5209e8591ca8d76118e5e56fc2c",
	"Synchronous/seed42/faults": "dff9b84e45d1fb5545256f58e568bc1d41353c88e6a77c01d3fb066c70e08c84",
	"Ours/seed1/faults":         "187e84aae348c78ed0b4b24a191a2a4640877bdc1df1e0340ddf49c7dc371787",
	"Ours/seed7/faults":         "c175f9b0d5d6c360bdf11a97aa73e3cc560eff77fc228fca3ba1a5577d32a5dc",
	"Ours/seed42/faults":        "9dc2593541b0e534a5206c9bffd02d19cd39cc9303c0d411bb1bc3f2b77cb0fc",
}

// goldenSeeds are the corpus seeds; small primes apart so the latency maps
// and Poisson draws of the runs share nothing.
var goldenSeeds = []int64{1, 7, 42}

// goldenAttacked is the congested-kernel scenario: a majority authority
// flood with a small residual during the vote exchange, and a cache-tier
// flood while the fleets fetch — exactly the high-fan-in contention the
// fluid model's slow paths serve.
func goldenAttacked(p Protocol, seed int64) Scenario {
	return Scenario{
		Protocol:     p,
		Relays:       150,
		EntryPadding: 0,
		Round:        15 * time.Second,
		Seed:         seed,
		Attack: &attack.Plan{
			Targets:  attack.MajorityTargets(9),
			Start:    0,
			End:      90 * time.Second,
			Residual: 20e3,
		},
		Distribution: &dircache.Spec{
			Clients:     20_000,
			Caches:      6,
			Fleets:      2,
			FetchWindow: 6 * time.Minute,
			Tick:        5 * time.Second,
			Attacks: []attack.Plan{{
				Tier:     attack.TierCache,
				Targets:  []int{0, 1},
				Start:    0,
				End:      2 * time.Minute,
				Residual: 1e6,
			}},
		},
	}
}

// goldenRegional is the topology-layer scenario: authorities and caches
// placed on the continental map, an "eu"-scoped cache flood resolved against
// that placement, and fleets running the K=2 racing client — the regional
// latency maps, region targeting and racing paths in one deterministic run.
func goldenRegional(p Protocol, seed int64) Scenario {
	return Scenario{
		Protocol:     p,
		Relays:       150,
		EntryPadding: 0,
		Round:        15 * time.Second,
		Seed:         seed,
		Topology:     topo.Continents(),
		Distribution: &dircache.Spec{
			Clients:     20_000,
			Caches:      6,
			Fleets:      6,
			RaceK:       2,
			RaceTimeout: 10 * time.Second,
			FetchWindow: 6 * time.Minute,
			Tick:        5 * time.Second,
			Attacks: []attack.Plan{{
				Tier:         attack.TierCache,
				TargetRegion: "eu",
				Start:        0,
				End:          2 * time.Minute,
				Residual:     1e6,
			}},
		},
	}
}

// goldenGossip is the mesh-dissemination scenario, and the headline outage
// drill: every authority flooded to zero residual for the whole run — the
// Figure-10 plan turned all the way up — while one cache (index 0) holds the
// fresh consensus from t=0. A fanout-3 mesh over 30 mirrors must spread that
// surviving publication across the tier. The digest also pins the no-gossip
// baseline curve (same flood, no mesh), which strands the fleet.
func goldenGossip(p Protocol, seed int64) Scenario {
	return Scenario{
		Protocol:     p,
		Relays:       150,
		EntryPadding: 0,
		Round:        15 * time.Second,
		Seed:         seed,
		Distribution: &dircache.Spec{
			Clients:     20_000,
			Caches:      30,
			Fleets:      2,
			FetchWindow: 6 * time.Minute,
			Tick:        5 * time.Second,
			Attacks: []attack.Plan{{
				Tier:     attack.TierAuthority,
				Targets:  attack.FirstTargets(9),
				Start:    0,
				End:      90 * time.Minute,
				Residual: 0,
			}},
			Gossip: &gossip.Config{Fanout: 3, Seeds: []int{0}},
		},
	}
}

// goldenFaults is the chaos-layer scenario and the PR's compound acceptance
// drill: every authority flooded to zero residual for the whole run, 30% of
// the mirrors crashed mid-run (state lost, links dark) and a further 20% of
// the mesh membership churned away and back — while the fleets retry under
// capped seeded-jitter backoff and the fanout-3 mesh re-knits around the
// holes. The digest also pins the legacy baseline (same flood, fixed retry,
// no mesh, no faults), which strands.
func goldenFaults(p Protocol, seed int64) Scenario {
	return Scenario{
		Protocol:     p,
		Relays:       150,
		EntryPadding: 0,
		Round:        15 * time.Second,
		Seed:         seed,
		Distribution: &dircache.Spec{
			Clients:        20_000,
			Caches:         20,
			Fleets:         2,
			FetchWindow:    6 * time.Minute,
			Tick:           5 * time.Second,
			TargetCoverage: 0.9,
			Attacks: []attack.Plan{{
				Tier:     attack.TierAuthority,
				Targets:  attack.FirstTargets(9),
				Start:    0,
				End:      90 * time.Minute,
				Residual: 0,
			}},
			Gossip:  &gossip.Config{Fanout: 3, Seeds: []int{0}},
			Backoff: &faults.Backoff{Base: 10 * time.Second, Cap: time.Minute, Jitter: 0.5},
			Faults: &faults.Plan{Faults: []faults.Fault{
				{
					Kind:    faults.Crash,
					Tier:    attack.TierCache,
					Targets: faults.SpreadTargets(1, 20, 6),
					Start:   time.Minute,
					End:     2*time.Minute + 30*time.Second,
				},
				{
					Kind:    faults.Churn,
					Tier:    attack.TierCache,
					Targets: faults.SpreadTargets(2, 20, 4),
					Start:   time.Minute + 30*time.Second,
					End:     3 * time.Minute,
				},
			}},
		},
	}
}

// goldenCompromised is the verification-path scenario: two equivocating
// caches against chain-verifying fleets, exercising fork detection,
// retraction and the re-fetch retry machinery.
func goldenCompromised(p Protocol, seed int64, tracer obs.Tracer) (*Experiment, error) {
	// WithScenario replaces the whole base scenario, so WithTracer must
	// come after it (options layer in order).
	return NewExperiment(
		WithScenario(Scenario{
			Protocol:     p,
			Relays:       150,
			EntryPadding: 0,
			Round:        15 * time.Second,
			Seed:         seed,
		}),
		WithDistribution(dircache.Spec{
			Clients:     20_000,
			Caches:      8,
			Fleets:      2,
			FetchWindow: 6 * time.Minute,
			Tick:        5 * time.Second,
			Compromise: &attack.CompromisePlan{
				Targets: attack.FirstTargets(2),
				Mode:    attack.CompromiseEquivocate,
			},
			VerifyClients: true,
		}),
		WithTracer(tracer),
	)
}

// hashRun folds one protocol run's observable output into w: verdict,
// latency metrics, transport stats with sorted per-kind maps, per-node byte
// accounting and every node's protocol log.
func hashRun(w io.Writer, res *RunResult) {
	fmt.Fprintf(w, "success=%v latency=%d doneAt=%d\n", res.Success, res.Latency, res.DoneAt)
	if c := res.Consensus(); c != nil {
		fmt.Fprintf(w, "consensus=%x relays=%d size=%d\n", c.Digest(), len(c.Relays), c.EncodedSize())
	}
	st := res.Net.Stats()
	fmt.Fprintf(w, "sent=%d delivered=%d dropped=%d bytesSent=%d bytesDelivered=%d\n",
		st.MessagesSent, st.MessagesDelivered, st.MessagesDropped, st.BytesSent, st.BytesDelivered)
	hashKindMap(w, "kindBytes", st.KindBytes)
	hashKindMap(w, "kindCount", st.KindCount)
	for i := 0; i < res.Net.N(); i++ {
		id := simnet.NodeID(i)
		fmt.Fprintf(w, "node=%d sent=%d recv=%d\n", i, res.Net.NodeBytesSent(id), res.Net.NodeBytesReceived(id))
		for _, e := range res.Net.NodeLog(id) {
			fmt.Fprintf(w, "log node=%d at=%d level=%s text=%s\n", i, e.At, e.Level, e.Text)
		}
	}
}

func hashKindMap(w io.Writer, label string, m map[string]int64) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%s %s=%d\n", label, k, m[k])
	}
}

// hashDistribution folds the whole distribution outcome into w: the merged
// coverage curve point by point, the tier egress accounting, per-cache
// service and arrival instants, and the verification outcomes.
func hashDistribution(w io.Writer, d *dircache.Result) {
	fmt.Fprintf(w, "dist clients=%d covered=%d timeToTarget=%d\n", d.TotalClients, d.Covered, d.TimeToTarget)
	for _, p := range d.Points {
		fmt.Fprintf(w, "point at=%d count=%d\n", p.At, p.Count)
	}
	fmt.Fprintf(w, "egress auth=%d cache=%d fleet=%d\n", d.AuthorityEgress, d.CacheEgress, d.FleetEgress)
	fmt.Fprintf(w, "served fulls=%d diffs=%d failed=%d fallbacks=%d withDoc=%d\n",
		d.FullDocsServed, d.DiffsServed, d.FailedFetches, d.CacheFallbacks, d.CachesWithDoc)
	for i := range d.CacheServed {
		fmt.Fprintf(w, "cache=%d served=%d fetchedAt=%d\n", i, d.CacheServed[i], d.CacheFetchedAt[i])
	}
	fmt.Fprintf(w, "misled=%d stale=%d extra=%d distrusted=%v\n",
		d.Misled, d.StaleRejections, d.ExtraFetches, d.DistrustedCaches)
	// Racing and region lines appear only when those features ran, so the
	// flat corpus cells hash the exact bytes they always did.
	if d.Spec.RaceK >= 1 {
		fmt.Fprintf(w, "race k=%d waste=%d laggards=%d timeouts=%d\n",
			d.Spec.RaceK, d.RaceWasteBytes, d.RaceLaggards, d.RaceTimeouts)
	}
	if d.Spec.Gossip != nil {
		fmt.Fprintf(w, "gossip fanout=%d pushes=%d pulls=%d serves=%d rounds=%d fromPeers=%d bytes=%d\n",
			d.Spec.Gossip.Fanout, d.GossipPushes, d.GossipPulls, d.GossipServes,
			d.GossipRounds, d.CachesFromPeers, d.GossipBytes)
	}
	if d.Spec.Backoff != nil {
		fmt.Fprintf(w, "backoff bursts=%d dropped=%d\n", d.RetryBursts, d.RetryDropped)
	}
	if d.Spec.Faults != nil {
		fmt.Fprintf(w, "faults events=%d below=%d\n", d.FaultEvents, d.TimeBelowTarget)
		for _, rec := range d.Recoveries {
			fmt.Fprintf(w, "recovery fault=%d cleared=%d mttr=%d\n", rec.Fault, rec.ClearedAt, rec.MTTR)
		}
	}
	for _, rc := range d.Regions {
		fmt.Fprintf(w, "region=%s clients=%d covered=%d target=%d p50=%d p99=%d\n",
			rc.Name, rc.Clients, rc.Covered, rc.TimeToTarget, rc.P50, rc.P99)
	}
	for _, det := range d.ForkDetections {
		fmt.Fprintf(w, "fork at=%d caches=%v", det.At, det.Caches)
		if det.Proof != nil {
			fmt.Fprintf(w, " a=%x b=%x culprits=%v", det.Proof.A.Digest, det.Proof.B.Digest, det.Proof.Culprits())
		}
		fmt.Fprintln(w)
	}
}

// goldenKinds are the corpus cell kinds, one scenario builder each.
var goldenKinds = []string{"attacked", "compromised", "regional", "gossip", "faults"}

// goldenCell runs one corpus cell with the tracer attached (nil = none): the
// protocol runs and, in digest order, every distribution outcome the cell's
// digest covers — its own and, for the gossip and faults kinds, the
// counterfactual baseline's.
func goldenCell(t *testing.T, p Protocol, seed int64, kind string, tracer obs.Tracer) ([]*RunResult, []*dircache.Result) {
	t.Helper()
	if kind == "compromised" {
		exp, err := goldenCompromised(p, seed, tracer)
		if err != nil {
			t.Fatal(err)
		}
		res, err := exp.Run(t.Context())
		if err != nil {
			t.Fatal(err)
		}
		return res.Runs, res.Distributions
	}
	run := func(s Scenario) *RunResult {
		s.Tracer = tracer
		res, err := RunE(t.Context(), s)
		if err != nil {
			t.Fatal(err)
		}
		if res.Distribution == nil {
			t.Fatalf("%s corpus scenario produced no distribution phase", kind)
		}
		return res
	}
	s := goldenAttacked(p, seed)
	switch kind {
	case "regional":
		s = goldenRegional(p, seed)
	case "gossip":
		s = goldenGossip(p, seed)
	case "faults":
		s = goldenFaults(p, seed)
	}
	res := run(s)
	dists := []*dircache.Result{res.Distribution}
	switch kind {
	case "gossip":
		// The recovery curve means nothing without the counterfactual:
		// pin the no-gossip baseline (same flood, no mesh) in the same
		// digest, so both curves of the acceptance plot are frozen.
		base := goldenGossip(p, seed)
		base.Distribution.Gossip = nil
		dists = append(dists, run(base).Distribution)
	case "faults":
		// Pin the legacy counterfactual in the same digest: the identical
		// flood against fixed-retry star fleets — no mesh, no backoff, no
		// faults — which strands. The gap between the two curves is the
		// graceful-degradation claim this cell freezes.
		base := goldenFaults(p, seed)
		base.Distribution.Gossip = nil
		base.Distribution.Backoff = nil
		base.Distribution.Faults = nil
		dists = append(dists, run(base).Distribution)
	}
	return []*RunResult{res}, dists
}

// goldenDigest runs one corpus cell and returns the hex digest of its
// observable output. A non-nil tracer is attached to the run — the digest
// must not change (the observability layer's zero-perturbation contract).
func goldenDigest(t *testing.T, p Protocol, seed int64, kind string, tracer obs.Tracer) string {
	t.Helper()
	h := sha256.New()
	runs, dists := goldenCell(t, p, seed, kind, tracer)
	for _, run := range runs {
		hashRun(h, run)
	}
	forks, misled := 0, 0
	for _, d := range dists {
		hashDistribution(h, d)
		forks += len(d.ForkDetections)
		misled += d.Misled
	}
	if kind == "compromised" {
		fmt.Fprintf(h, "forks=%d misled=%d\n", forks, misled)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestDistributionNeverDrops holds every corpus scenario to the network model
// the paper argues from — partial synchrony: a message is delayed arbitrarily
// long, never lost. Floods, crashes and churn throttle pipes to zero and the
// traffic waits; neither the consensus network nor the distribution network
// of any run may count a dropped message.
func TestDistributionNeverDrops(t *testing.T) {
	for _, p := range []Protocol{Current, Synchronous, ICPS} {
		for _, kind := range goldenKinds {
			t.Run(fmt.Sprintf("%s/%s", p, kind), func(t *testing.T) {
				t.Parallel()
				runs, dists := goldenCell(t, p, 1, kind, nil)
				for i, run := range runs {
					if n := run.Net.Stats().MessagesDropped; n != 0 {
						t.Errorf("consensus network of run %d dropped %d messages", i, n)
					}
				}
				for i, d := range dists {
					if n := d.Stats.MessagesDropped; n != 0 {
						t.Errorf("distribution network of outcome %d dropped %d messages", i, n)
					}
				}
			})
		}
	}
}

// timedDigest is goldenDigest with the cell's wall time logged (-v shows it):
// the corpus is most of this package's test time, and its cells are unequal.
func timedDigest(t *testing.T, p Protocol, seed int64, kind string, tracer obs.Tracer) string {
	t.Helper()
	start := time.Now() //detlint:wallclock ok(times the test around the simulation; never reaches a digest)
	got := goldenDigest(t, p, seed, kind, tracer)
	//detlint:wallclock ok(as above)
	t.Logf("cell ran in %v", time.Since(start).Round(time.Millisecond))
	return got
}

// TestGoldenCorpusTracingNeutral re-runs corpus cells with a recording
// tracer (and a detector teed in) and demands the exact pinned digests: the
// observability layer must not perturb the simulation by a single byte, in
// any protocol, attacked or compromised. It also demands a non-empty
// recording — a trivially-passing nil pipeline would prove nothing.
func TestGoldenCorpusTracingNeutral(t *testing.T) {
	if os.Getenv("GOLDEN_RECORD") != "" {
		t.Skip("recording digests; the nil-tracer pass owns the corpus")
	}
	for _, p := range []Protocol{Current, Synchronous, ICPS} {
		for _, kind := range goldenKinds {
			name := fmt.Sprintf("%s/seed1/%s", p, kind)
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				rec := obs.NewRecorder(0)
				tracer := obs.Tee(rec, obs.NewDetector())
				got := timedDigest(t, p, 1, kind, tracer)
				if want := goldenKernelDigests[name]; got != want {
					t.Errorf("recording tracer perturbed the kernel for %s:\n  got  %s\n  want %s", name, got, want)
				}
				if rec.Len() == 0 {
					t.Fatalf("tracer attached but recorded nothing for %s", name)
				}
			})
		}
	}
}

// TestGoldenKernelCorpus checks every corpus cell against its pinned digest.
func TestGoldenKernelCorpus(t *testing.T) {
	record := os.Getenv("GOLDEN_RECORD") != ""
	for _, p := range []Protocol{Current, Synchronous, ICPS} {
		for _, seed := range goldenSeeds {
			for _, kind := range goldenKinds {
				name := fmt.Sprintf("%s/seed%d/%s", p, seed, kind)
				t.Run(name, func(t *testing.T) {
					if !record {
						t.Parallel() // recording prints the cells in corpus order
					}
					got := timedDigest(t, p, seed, kind, nil)
					if record {
						fmt.Printf("\t%q: %q,\n", name, got)
						return
					}
					want, ok := goldenKernelDigests[name]
					if !ok {
						t.Fatalf("no pinned digest for %s; got %s (run with GOLDEN_RECORD=1 to record)", name, got)
					}
					if got != want {
						t.Errorf("kernel output drifted for %s:\n  got  %s\n  want %s\n"+
							"the simulation kernel must stay byte-identical; if this change is an intentional semantic change, re-record with GOLDEN_RECORD=1", name, got, want)
					}
				})
			}
		}
	}
}
