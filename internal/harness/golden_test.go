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
// intentional semantic change. That happened once: 39 cells (every
// compromised, regional, gossip and faults cell, and the attacked cells of
// Ours) were re-recorded when every pipe share became exactly rate/n, which
// moved their instants by 1 to 62 ns and nothing else. To re-record:
//
//	GOLDEN_RECORD=1 go test ./internal/harness -run TestGoldenKernelCorpus -v
var goldenKernelDigests = map[string]string{
	"Current/seed1/attacked":         "aaa713c37d7478f9177daf590344e9b375bbd45d3a05f7e47fc5c69c354241fd",
	"Current/seed1/compromised":      "a1ed9f563c22d1b532e47e949a7363eb01a75ab3e0c857a1f819f6356df72317",
	"Current/seed7/attacked":         "3463d65c02b5804893441955e55887351e1faf93502599b808179fe9de1071c1",
	"Current/seed7/compromised":      "e78169f504f7645eb3483838fa8ae280f35d087f9ec876122c26c03908e07411",
	"Current/seed42/attacked":        "7335c059fb488b92bda6e0da5ea9ba5e40a99440513a18915938587e4fc1de65",
	"Current/seed42/compromised":     "dbff00ed52c9ed56084106d154f435a87bb32e7cb1d89749f1db33a210e61b4b",
	"Synchronous/seed1/attacked":     "2f583c41757468a249efa4e5c822244812fac6da1f2b729b27b22d2d00629d5c",
	"Synchronous/seed1/compromised":  "7a41f6eac34d0c74a654bf6476bc6ebfc64dce2a6252d1e0f548f9c6ef88e90a",
	"Synchronous/seed7/attacked":     "ab5ca6acd88722ee84c6874c51605a15d28578faeb4dfbd8af9b0539c91782ed",
	"Synchronous/seed7/compromised":  "3a630d0775895f0511871edbd5824001a92b2f7a19643778bcefbcf3155c779c",
	"Synchronous/seed42/attacked":    "24d2de2f60e506f66d07051dd892d76d1aecedc8d82f50b3cc683728f02c3db3",
	"Synchronous/seed42/compromised": "b7a4a4f10ece0b0e4ff6ac2d007d2b58ab6a05dab0435e0683367846c32cfbfe",
	"Ours/seed1/attacked":            "5b496c57ca972a02539acc95b735638f6a4527f75176bc91020ce71a6e8e6cd7",
	"Ours/seed1/compromised":         "8fc93fb5d02d669ff468aa467d90640e962d50792f18be7cb55936100fb00748",
	"Ours/seed7/attacked":            "137512b3051f2d09fd0b55c6d21346564dc06065fc7b1c638bb2fe720921f352",
	"Ours/seed7/compromised":         "6e4c73a77faafe4d678740fe09d14a8935ebbb4e561fbcd88af0fc8d31431025",
	"Ours/seed42/attacked":           "20216e85141f9ec8805e24dfcfb768685a23bd42a246fa1cb626312ecc41251c",
	"Ours/seed42/compromised":        "a823c0b3dcfff5b5bcbdb9c214dba17df2664def87f7efe159f740a395e1bcd3",

	// The regional cells pin the topology layer: continental placement and
	// latencies, a region-scoped mirror flood, and the K=2 racing client.
	// They were recorded after the cells above and extend the corpus — the
	// flat cells' digests did not change when the topology layer landed.
	"Current/seed1/regional":      "a78b8765301e545aebc621895f989f46fcb75a998e6c6ebf20c0303c24adc67e",
	"Current/seed7/regional":      "6cc8026be973ae4f0dd71b1251298111c258284da3275af1050d3d39d516c4fb",
	"Current/seed42/regional":     "5d412c66d9c7ec93be94193a03386e6e081455a0e0fd41e564c9aee9a9a8eff1",
	"Synchronous/seed1/regional":  "cf4a8fe39a4d9cb5ea3268042e382abca8168898e4ac112bfebf7fd876b7d20c",
	"Synchronous/seed7/regional":  "7a0e75fb42318d23f5fb69e6f7782547619f5d707eea4b0d6a683b36bd544e4d",
	"Synchronous/seed42/regional": "44cdd814a75be8d181e6a097143750b0f0d0666c225892cd7d173a2cd88e1329",
	"Ours/seed1/regional":         "31a8a9055817a3adcba364238da5c2afe08797ad97cf9fa34ccaa34b58585431",
	"Ours/seed7/regional":         "59505dc6d8ecf6a6543e9fdafe61a113b288de93635d5096c9f57d3f41000ac5",
	"Ours/seed42/regional":        "7833eeb06b9d9a61885ad9607d3be1f4a9369fd55e0b190a1b3aa2b33d12e8ad",

	// The gossip cells pin the cache mesh: a total authority flood with one
	// seeded mirror, recovery over the fanout-3 mesh, plus the no-gossip
	// baseline curve hashed into the same digest. Recorded after the cells
	// above — no earlier digest changed when the mesh landed.
	"Current/seed1/gossip":      "ca98008f9e632c07508b587b587cdaa7e5aa88364fa3f1ca972ef870095d4e32",
	"Current/seed7/gossip":      "9f31df0c316aaa1a533e36d9ae17cc80f8cb1d3ea66785db50f2c8528e7d07b1",
	"Current/seed42/gossip":     "1e955245b8fcacbb980edfcb020b26d3ee6bae2df99e3a9d34d101d0d909a458",
	"Synchronous/seed1/gossip":  "eff1b78078f65592fece295b21bd861ca1db54e80d4a9b6f586007e560217541",
	"Synchronous/seed7/gossip":  "9f2eb12ff0d838596366d05d109cafdc1c5a68d36815bb48da758f75ffd7c86f",
	"Synchronous/seed42/gossip": "ffeb481ca9053100dda16a45e41a5243a953b8f0e10efc46f5ca8739f63c7ded",
	"Ours/seed1/gossip":         "bb38eeee25f21691bd10440925473ce58d931ec4f352a45714d9f8d0967e6354",
	"Ours/seed7/gossip":         "471de341fe0747eadd61eb0fe93a29873c5d6546054044b36a4d822fa6b549e7",
	"Ours/seed42/gossip":        "a63eb9fd6532c1bb1a0abc2b950b7f6f2edf8518bba7126a4fb6b4bd9e1deb34",

	// The faults cells pin the chaos layer: the compound flood + crash +
	// churn drill with jittered-backoff fleets, plus the legacy fixed-retry
	// baseline curve hashed into the same digest. Recorded after the cells
	// above — no earlier digest changed when the fault layer landed.
	"Current/seed1/faults":      "16f56c14daf38712b4fa8e446b21a8dc26611afb0abbbef24e6a3abb70ca72ee",
	"Current/seed7/faults":      "bdef287d8d0c2450fa785fb4333286f581cac31288b7206c3e6db3edbdca76a0",
	"Current/seed42/faults":     "5b3812f0c792a5e9ca16b9a35a719ef70a6aa64a9a25c357b5229bb818f6547d",
	"Synchronous/seed1/faults":  "7c18f8e483df6357be81c0383c7cdccac9c234af0bbe1cb073d78a52364470a0",
	"Synchronous/seed7/faults":  "c4d01ac1cc58ba338dc83844abfd659abf6e0b5aec1f0dabafc5cbfa0c8c73c3",
	"Synchronous/seed42/faults": "9459f2b4281bdf7a386a02fb4a3d8378971591a561465f37a8d548898b3ea107",
	"Ours/seed1/faults":         "d07c9947995e1011822667d350ab2a49adbc3cc8cc2ca835bc6ff0d90d61370c",
	"Ours/seed7/faults":         "f4f5438383e3666dd16312bd94eddf63117a3b6ee5591a73cb8215e2c915c5e1",
	"Ours/seed42/faults":        "c729b423b8f5edb5bd9c55d2670b9fa9eea160b629a08a13ac45480b2d81f69f",
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
