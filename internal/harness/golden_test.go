package harness

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
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

// The golden kernel corpus is one table of cell kinds (goldenKinds), each
// run for every paper protocol at every seed in goldenSeeds: 3 × 3 × 7 = 63
// cells. A kind is a scenario, an optional counterfactual baseline and an
// optional claim:
//
//   - attacked: an authority flood carried into a cache-tier flood;
//   - compromised: equivocating caches against verifying fleets;
//   - regional: the continental topology, a region-scoped flood, racing;
//   - gossip: the total authority outage recovered through the cache mesh;
//   - faults: that outage plus mid-run crashes and mesh churn;
//   - outage: the paper's headline, the five-minute majority outage, on
//     votes at the calibrated entry padding and with no distribution phase;
//   - sameinstant: a mirror's fetch timeout and a mesh transfer finishing
//     at one instant, which pins the kernel's same-instant order.
//
// A baseline is the kind's scenario with the mitigation taken out of its
// distribution spec (no mesh; no mesh, backoff or faults). It runs on the
// same flood, and its outcome is hashed into the cell's digest, so both
// curves of the comparison are frozen. A claim is the paper-level assertion
// the kind reproduces (gossip and faults recover where their baselines
// strand, verifying clients catch the equivocation). Each cell runs once per
// test binary (corpusRun), and every question is asked of that one run:
// TestGoldenKernelCorpus checks its digest against the pinned one below,
// TestDistributionNeverDrops checks that neither network dropped a message,
// and TestGossipOutageRecovery, TestFaultsCompoundRecovery and
// TestExperimentCompromiseDetection check their kind's claim on all nine of
// its cells. The digests cover the coverage curves, the transport stats
// (including per-kind accounting), every authority's protocol log, and the
// full distribution outcome of the kinds that have one.
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

	// The outage cells are the only ones whose votes carry the calibrated
	// entry padding (every other kind runs at EntryPadding 0), so they pin
	// what the padding moves: vote sizes, transfer instants and, through
	// the logs, vote and consensus digests. Recorded after the cells above;
	// no earlier digest changed. The Synchronous and Ours cells were
	// re-recorded once, when a vote's digest became the hash of its natural
	// rendering: only the hex digests in their log text moved (the bundle
	// digest Synchronous agrees on, the value ICPS decides), and every size,
	// instant and byte count held.
	"Current/seed1/outage":      "a8ee887e30a2ddee7196b40ab4d7d1fa484c0e84e9de907041092ee44c731dbb",
	"Current/seed7/outage":      "c4a2fb20fefb3e23db9bb7f5e2259fe77101e73361869e323b14ae0ec43a1681",
	"Current/seed42/outage":     "520d19f374dabb15d42008e6a8f1c8ad630c5ef8c5cf2f5519129a3e3a992f60",
	"Synchronous/seed1/outage":  "b7894c098cac96a3c47088e13d17bee4209ae6be7fcef7193e2bfee34cb4fac6",
	"Synchronous/seed7/outage":  "68bd1500547b04e91559eb16f0002cef74beb2ad813200bd620cb7bfc307515e",
	"Synchronous/seed42/outage": "15ee17b0be260a78a03d455e478cd3e15696c3f3ba1cbbe3d07259d3188e3776",
	"Ours/seed1/outage":         "310dec05103c3675c1c9fbb02434f29bd7b34d5cc7dbcc82b25493aa79e3a4c4",
	"Ours/seed7/outage":         "13bdec51b83a0c5cce60abd7b8c8910ebe2e12d0545c482a62e41ec70715a645",
	"Ours/seed42/outage":        "5d8d2d485bfb055f10cffce84011c3fc9f055cf90f5d19e98b7900d5f2543a6d",

	// The sameinstant cells pin the order of a timer and a transfer
	// completion due at one instant (the heap's (at, seq) order, which the
	// scheduler's same-instant lane keeps): a lane run before the
	// earlier-armed timeout moves every one of them. Recorded after the
	// cells above; no earlier digest changed.
	"Current/seed1/sameinstant":      "672437739f8d27bd51d1e7e81b4473e9d7a87171d13017d7247d98c7ec817824",
	"Current/seed7/sameinstant":      "371cf93dc2cf447691345d63328da7a9ab71d79d71bc74b0d9064afedae942c7",
	"Current/seed42/sameinstant":     "470dfa58a47762c3353332c8976eb0e4e1e8aff67168b2b12e21eec6776aa4ab",
	"Synchronous/seed1/sameinstant":  "2e0b5fbcfbeec8936c8c7c3ba2f75a36999e3f5cbcd4c2b80f24b2aa7bfcbffe",
	"Synchronous/seed7/sameinstant":  "19aaf7dd3e974ad072da339a8db3eb8f464e3da0926c5824f18b599818ac2dd2",
	"Synchronous/seed42/sameinstant": "b320ee0b94795caa8fdc7fc32bc6a66b6fde8b62865773c3afb87203e09dbf71",
	"Ours/seed1/sameinstant":         "4ed0ee2bfbd250994442d2c51d52f57d93289037b10b6b950a7b51dde2f88e17",
	"Ours/seed7/sameinstant":         "1a6bf5f12b3a81373f1592a6d714262dd904a3e093a002b475891e680e761e1e",
	"Ours/seed42/sameinstant":        "bc81423f0b8208511d797faecd95cd74d55d9cea0eba5261a1202551c3407bd1",
}

// goldenSeeds are the corpus seeds; small primes apart so the latency maps
// and Poisson draws of the runs share nothing.
var goldenSeeds = []int64{1, 7, 42}

// goldenKind is one kind of corpus cell. scenario builds the cell's run;
// baseline, when set, takes the mitigation out of a copy of its distribution
// spec, and that counterfactual run's outcome is hashed into the same digest;
// claim, when set, is the assertion the kind reproduces, checked on the
// cell's protocol, its run and the run's baseline (nil when the kind has
// none); tally appends the fork and misled totals to the digest.
type goldenKind struct {
	name     string
	scenario func(p Protocol, seed int64) Scenario
	baseline func(*dircache.Spec)
	claim    func(t *testing.T, p Protocol, res *RunResult, d, base *dircache.Result)
	tally    bool
}

// corpusScenario is the consensus phase every cell shares (150 relays,
// 15-second rounds) followed by a 20 000-client distribution phase on spec,
// fetching over a six-minute window in five-second ticks.
func corpusScenario(p Protocol, seed int64, spec dircache.Spec) Scenario {
	spec.Clients, spec.FetchWindow, spec.Tick = 20_000, 6*time.Minute, 5*time.Second
	return Scenario{Protocol: p, Relays: 150, EntryPadding: 0, Round: 15 * time.Second, Seed: seed, Distribution: &spec}
}

// totalAuthorityFlood floods all nine authorities to zero residual for the
// whole run: the Figure-10 plan turned all the way up.
func totalAuthorityFlood() []attack.Plan {
	return []attack.Plan{{
		Tier:     attack.TierAuthority,
		Targets:  attack.FirstTargets(9),
		Start:    0,
		End:      90 * time.Minute,
		Residual: 0,
	}}
}

// goldenKinds are the corpus cell kinds, in corpus order.
var goldenKinds = []goldenKind{
	{
		// The congested kernel: a majority authority flood with a small
		// residual during the vote exchange, and a cache-tier flood while
		// the fleets fetch — exactly the high-fan-in contention the fluid
		// model's slow paths serve.
		name: "attacked",
		scenario: func(p Protocol, seed int64) Scenario {
			s := corpusScenario(p, seed, dircache.Spec{
				Caches: 6,
				Fleets: 2,
				Attacks: []attack.Plan{{
					Tier:     attack.TierCache,
					Targets:  []int{0, 1},
					Start:    0,
					End:      2 * time.Minute,
					Residual: 1e6,
				}},
			})
			s.Attack = &attack.Plan{
				Targets:  attack.MajorityTargets(9),
				Start:    0,
				End:      90 * time.Second,
				Residual: 20e3,
			}
			return s
		},
	},
	{
		// The verification path: two equivocating caches against
		// chain-verifying fleets — fork detection, retraction and the
		// re-fetch retry machinery. The claim: the fork is caught and
		// proven, nobody is misled, the honest caches carry the fleet to
		// target, blame lands only on the two equivocators, and the chain
		// the clients verify is anchored on the run's own consensus.
		name: "compromised",
		scenario: func(p Protocol, seed int64) Scenario {
			return corpusScenario(p, seed, dircache.Spec{
				Caches: 8,
				Fleets: 2,
				Compromise: &attack.CompromisePlan{
					Targets: attack.FirstTargets(2),
					Mode:    attack.CompromiseEquivocate,
				},
				VerifyClients: true,
			})
		},
		claim: func(t *testing.T, _ Protocol, res *RunResult, d, _ *dircache.Result) {
			if len(d.ForkDetections) == 0 {
				t.Error("verifying fleets caught no fork")
			}
			if d.Misled != 0 {
				t.Errorf("%d verifying clients misled", d.Misled)
			}
			if d.Coverage() < d.Spec.TargetCoverage {
				t.Errorf("coverage %.3f below target %.2f despite an honest majority", d.Coverage(), d.Spec.TargetCoverage)
			}
			for _, det := range d.ForkDetections {
				if det.Proof == nil || len(det.Proof.Culprits()) == 0 {
					t.Errorf("fork at %v has no proof or no culprits", det.At)
				}
				for _, c := range det.Caches {
					if c > 1 {
						t.Errorf("fork at %v blames honest cache %d", det.At, c)
					}
				}
			}
			if got, want := d.Spec.Chain.Genuine.Digest, res.Consensus().Digest(); got != want {
				t.Errorf("chain anchored on %s, the run's consensus is %s", got.Short(), want.Short())
			}
		},
		tally: true,
	},
	{
		// The topology layer: authorities and caches placed on the
		// continental map, an "eu"-scoped cache flood resolved against that
		// placement, and fleets running the K=2 racing client.
		name: "regional",
		scenario: func(p Protocol, seed int64) Scenario {
			s := corpusScenario(p, seed, dircache.Spec{
				Caches:      6,
				Fleets:      6,
				RaceK:       2,
				RaceTimeout: 10 * time.Second,
				Attacks: []attack.Plan{{
					Tier:         attack.TierCache,
					TargetRegion: "eu",
					Start:        0,
					End:          2 * time.Minute,
					Residual:     1e6,
				}},
			})
			s.Topology = topo.Continents()
			return s
		},
	},
	{
		// The outage drill: every authority flooded out while one cache
		// (index 0) holds the fresh consensus from t=0, and a fanout-3 mesh
		// over 30 mirrors spreads it. The baseline is the same flood with
		// no mesh. The claim: the mesh carries ≥ 95 % of the fleet within
		// the run, ≥ 25 mirrors get the consensus from a peer and the mesh
		// counters show the work; the baseline strands below 20 % with
		// silent counters.
		name: "gossip",
		scenario: func(p Protocol, seed int64) Scenario {
			return corpusScenario(p, seed, dircache.Spec{
				Caches:  30,
				Fleets:  2,
				Attacks: totalAuthorityFlood(),
				Gossip:  &gossip.Config{Fanout: 3, Seeds: []int{0}},
			})
		},
		baseline: func(d *dircache.Spec) { d.Gossip = nil },
		claim: func(t *testing.T, _ Protocol, _ *RunResult, d, base *dircache.Result) {
			if got := d.Coverage(); got < 0.95 || d.TimeToTarget == simnet.Never || d.TimeToTarget > d.Spec.RunLimit() {
				t.Errorf("gossip mesh covered %.1f%% of the fleet, target reached at %v: want >= 95%% by %v",
					100*got, d.TimeToTarget, d.Spec.RunLimit())
			}
			if d.CachesFromPeers < 25 {
				t.Errorf("only %d/30 caches obtained the consensus from peers; the flood should leave the mesh as the only source", d.CachesFromPeers)
			}
			if d.GossipBytes == 0 || d.GossipPushes == 0 || d.GossipPulls == 0 {
				t.Errorf("mesh counters empty (pushes=%d pulls=%d bytes=%d) despite recovery", d.GossipPushes, d.GossipPulls, d.GossipBytes)
			}
			if got := base.Coverage(); got >= 0.20 {
				t.Errorf("no-gossip baseline covered %.1f%% under a total authority flood, want < 20%%", 100*got)
			}
			if base.GossipPushes != 0 || base.GossipPulls != 0 || base.GossipBytes != 0 {
				t.Errorf("baseline without a mesh recorded gossip activity: pushes=%d pulls=%d bytes=%d", base.GossipPushes, base.GossipPulls, base.GossipBytes)
			}
		},
	},
	{
		// The compound drill: every authority flooded out, 30 % of the
		// mirrors crashed mid-run (state lost, links dark) and a further
		// 20 % of the mesh membership churned away and back, while the
		// fleets retry under capped seeded-jitter backoff and the fanout-3
		// mesh re-knits around the holes. The baseline is the same flood
		// against fixed-retry star fleets: no mesh, no backoff, no faults.
		// The claim: the drill recovers to the 90 % target after the faults
		// clear, having spent time below it, with every fault's MTTR
		// finite; the baseline never reaches target.
		name: "faults",
		scenario: func(p Protocol, seed int64) Scenario {
			return corpusScenario(p, seed, dircache.Spec{
				Caches:         20,
				Fleets:         2,
				TargetCoverage: 0.9,
				Attacks:        totalAuthorityFlood(),
				Gossip:         &gossip.Config{Fanout: 3, Seeds: []int{0}},
				Backoff:        &faults.Backoff{Base: 10 * time.Second, Cap: time.Minute, Jitter: 0.5},
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
			})
		},
		baseline: func(d *dircache.Spec) { d.Gossip, d.Backoff, d.Faults = nil, nil, nil },
		claim: func(t *testing.T, _ Protocol, _ *RunResult, d, base *dircache.Result) {
			need := int(0.9 * float64(d.TotalClients))
			if d.Covered < need || d.TimeToTarget == simnet.Never {
				t.Errorf("chaos fleet stranded: covered %d of %d (need %d), target reached at %v", d.Covered, d.TotalClients, need, d.TimeToTarget)
			}
			if d.FaultEvents == 0 {
				t.Error("no fault events scheduled: the plan did not reach the tier")
			}
			if d.TimeBelowTarget <= 0 {
				t.Error("TimeBelowTarget is zero under a full-window authority flood")
			}
			if w := faults.WorstMTTR(d.Recoveries); w == simnet.Never {
				t.Error("a fault never recovered (worst MTTR = Never)")
			}
			if base.TimeToTarget != simnet.Never || base.Covered >= need {
				t.Errorf("legacy baseline covered %d of %d and reached target at %v; the counterfactual no longer strands", base.Covered, base.TotalClients, base.TimeToTarget)
			}
		},
	},
	{
		// The paper's headline (Figure 11's five-minute point) at the
		// calibrated entry size: a majority of the authorities flooded to
		// zero for five minutes over 300 relays, default round and
		// bandwidth, and no distribution phase. The claim: both lock-step
		// protocols lose the consensus, and ICPS decides it once the flood
		// lifts, within half a minute.
		name: "outage",
		scenario: func(p Protocol, seed int64) Scenario {
			a := attack.FiveMinuteOutage(attack.MajorityTargets(9))
			return Scenario{Protocol: p, Relays: 300, EntryPadding: -1, Seed: seed, Attack: &a}
		},
		claim: func(t *testing.T, p Protocol, res *RunResult, _, _ *dircache.Result) {
			if p == ICPS {
				if !res.Success || res.Latency <= 5*time.Minute || res.Latency > 5*time.Minute+30*time.Second {
					t.Errorf("ICPS success=%v latency %v, want the consensus within (5m, 5m30s]", res.Success, res.Latency)
				}
			} else if res.Success {
				t.Errorf("%s produced a consensus through a five-minute majority outage (latency %v)", p, res.Latency)
			}
		},
	},
	{
		// The same-instant drill: a timer and a transfer completion due at
		// one instant, the timer armed after the completion was planned.
		// Mirror 1 pulls the 375 MB document from the seeded mirror 0 and
		// crashes at 10 s, before it arrives; the document waits on its dark
		// downlink. Mirror 0 goes dark from 20 s to 70 s, so nothing else
		// reaches mirror 1, and every authority is flooded out for good. At
		// 25 s mirror 1 restarts, asks an authority and arms its 15-second
		// fetch timeout; the document's last bit lands at 40 s too (3 Gbit
		// at 200 Mbit/s). The kernel runs the earlier-armed timeout first,
		// so the mirror falls back once more before it holds the document:
		// the digest pins that order. The claim: the coincidence is there.
		name: "sameinstant",
		scenario: func(p Protocol, seed int64) Scenario {
			return Scenario{Protocol: p, Relays: 150, EntryPadding: 0, Round: 15 * time.Second, Seed: seed, Distribution: &dircache.Spec{
				Caches:      2,
				Fleets:      1,
				Clients:     1,
				FetchWindow: 2 * time.Minute,
				Tick:        5 * time.Second,
				DocBytes:    375_000_000 - 64, // 3 Gbit on the wire: 15 s at a mirror's 200 Mbit/s
				Gossip:      &gossip.Config{Fanout: 1, Seeds: []int{0}},
				Attacks: append(totalAuthorityFlood(), attack.Plan{
					Tier: attack.TierCache, Targets: []int{0}, Start: 20 * time.Second, End: 70 * time.Second,
				}),
				Faults: &faults.Plan{Faults: []faults.Fault{{
					Kind: faults.Crash, Tier: attack.TierCache, Targets: []int{1},
					Start: 10 * time.Second, End: 25 * time.Second,
				}}},
			}}
		},
		claim: func(t *testing.T, _ Protocol, _ *RunResult, d, _ *dircache.Result) {
			if got, want := d.CacheFetchedAt[1], 40*time.Second; got != want || d.CachesFromPeers != 1 {
				t.Errorf("mirror 1 took the document from %d peer(s) at %v, want from the mesh at %v, its fetch timeout's instant",
					d.CachesFromPeers, got, want)
			}
		},
	},
}

// goldenKindNamed returns the corpus kind called name.
func goldenKindNamed(t *testing.T, name string) goldenKind {
	for _, k := range goldenKinds {
		if k.name == name {
			return k
		}
	}
	t.Fatalf("no corpus kind %q", name)
	return goldenKind{}
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

// corpusProtocols are the paper protocols every corpus kind runs under.
var corpusProtocols = []Protocol{Current, Synchronous, ICPS}

// corpusCell is one cell's outcome: runs[0] is the kind's scenario and
// runs[1], when the kind has one, its baseline; d and base are their
// distribution outcomes (d is nil for a kind with no distribution phase).
type corpusCell struct {
	runs    []*RunResult
	d, base *dircache.Result
	took    time.Duration
}

// runCell runs one corpus cell with the tracer attached (nil = none).
func runCell(ctx context.Context, p Protocol, seed int64, k goldenKind, tracer obs.Tracer) (*corpusCell, error) {
	start := time.Now() //detlint:wallclock ok(times the test around the simulation; never reaches a digest)
	scenarios := []Scenario{k.scenario(p, seed)}
	if k.baseline != nil {
		s := k.scenario(p, seed)
		k.baseline(s.Distribution)
		scenarios = append(scenarios, s)
	}
	c := &corpusCell{}
	for _, s := range scenarios {
		s.Tracer = tracer
		res, err := RunE(ctx, s)
		if err != nil {
			return nil, err
		}
		if s.Distribution != nil && res.Distribution == nil {
			return nil, fmt.Errorf("%s corpus scenario produced no distribution phase", k.name)
		}
		c.runs = append(c.runs, res)
	}
	c.d = c.runs[0].Distribution
	if len(c.runs) > 1 {
		c.base = c.runs[1].Distribution
	}
	//detlint:wallclock ok(as above)
	c.took = time.Since(start)
	return c, nil
}

// corpus holds each cell's one untraced run, by cell name.
var corpus sync.Map

// corpusRun returns the cell's one untraced run. The first test that asks
// for a cell runs it; every other test reads that run.
func corpusRun(t *testing.T, p Protocol, seed int64, k goldenKind) *corpusCell {
	t.Helper()
	type once struct {
		sync.Once
		c   *corpusCell
		err error
	}
	v, _ := corpus.LoadOrStore(fmt.Sprintf("%s/seed%d/%s", p, seed, k.name), &once{})
	o := v.(*once)
	o.Do(func() { o.c, o.err = runCell(t.Context(), p, seed, k, nil) })
	if o.err != nil {
		t.Fatal(o.err)
	}
	return o.c
}

// goldenDigest is the hex digest of one cell's observable output: the
// protocol run, its distribution outcome and, for kinds with one, the
// baseline's.
func goldenDigest(k goldenKind, c *corpusCell) string {
	h := sha256.New()
	hashRun(h, c.runs[0])
	if c.d != nil {
		hashDistribution(h, c.d)
	}
	if c.base != nil {
		hashDistribution(h, c.base)
	}
	if k.tally {
		fmt.Fprintf(h, "forks=%d misled=%d\n", len(c.d.ForkDetections), c.d.Misled)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// walkClaim holds the one run of every cell of the named kind to the kind's
// claim, in a parallel subtest per protocol and seed.
func walkClaim(t *testing.T, kind string) {
	k := goldenKindNamed(t, kind)
	for _, p := range corpusProtocols {
		for _, seed := range goldenSeeds {
			t.Run(fmt.Sprintf("%s/seed%d", p, seed), func(t *testing.T) {
				t.Parallel()
				c := corpusRun(t, p, seed, k)
				k.claim(t, p, c.runs[0], c.d, c.base)
			})
		}
	}
}

// TestFiveMinuteOutageHeadline holds the outage cells to the paper's
// headline at the calibrated entry size.
func TestFiveMinuteOutageHeadline(t *testing.T) { walkClaim(t, "outage") }

// TestSameInstantDrill holds the sameinstant cells to their coincidence: a
// timer and a transfer completion due at one instant.
func TestSameInstantDrill(t *testing.T) { walkClaim(t, "sameinstant") }

// TestGoldenCorpusTracingNeutral re-runs corpus cells with a recording
// tracer (and a detector teed in) and demands the exact pinned digests: the
// observability layer must not perturb the simulation by a single byte, in
// any protocol or kind. It also demands a non-empty recording — a
// trivially-passing nil pipeline would prove nothing.
func TestGoldenCorpusTracingNeutral(t *testing.T) {
	if os.Getenv("GOLDEN_RECORD") != "" {
		t.Skip("recording digests; the nil-tracer pass owns the corpus")
	}
	for _, p := range corpusProtocols {
		for _, k := range goldenKinds {
			name := fmt.Sprintf("%s/seed1/%s", p, k.name)
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				rec := obs.NewRecorder(0)
				c, err := runCell(t.Context(), p, 1, k, obs.Tee(rec, obs.NewDetector()))
				if err != nil {
					t.Fatal(err)
				}
				if got, want := goldenDigest(k, c), goldenKernelDigests[name]; got != want {
					t.Errorf("recording tracer perturbed the kernel for %s:\n  got  %s\n  want %s", name, got, want)
				}
				if rec.Len() == 0 {
					t.Fatalf("tracer attached but recorded nothing for %s", name)
				}
			})
		}
	}
}

// TestGoldenKernelCorpus runs every corpus cell once and checks its pinned
// digest. The cell's wall time is logged (-v shows it): the corpus is most
// of this package's test time, and its cells are unequal.
func TestGoldenKernelCorpus(t *testing.T) {
	record := os.Getenv("GOLDEN_RECORD") != ""
	for _, p := range corpusProtocols {
		for _, seed := range goldenSeeds {
			for _, k := range goldenKinds {
				name := fmt.Sprintf("%s/seed%d/%s", p, seed, k.name)
				t.Run(name, func(t *testing.T) {
					if !record {
						t.Parallel() // recording prints the cells in corpus order
					}
					c := corpusRun(t, p, seed, k)
					t.Logf("cell ran in %v", c.took.Round(time.Millisecond))
					got := goldenDigest(k, c)
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

// TestDistributionNeverDrops holds every corpus run, and every baseline run,
// to the network model the paper argues from — partial synchrony: a message
// is delayed arbitrarily long, never lost. Floods, crashes and churn throttle
// pipes to zero and the traffic waits; neither the consensus network nor the
// distribution network of any run may count a dropped message.
func TestDistributionNeverDrops(t *testing.T) {
	for _, p := range corpusProtocols {
		for _, k := range goldenKinds {
			t.Run(fmt.Sprintf("%s/%s", p, k.name), func(t *testing.T) {
				t.Parallel()
				for _, seed := range goldenSeeds {
					for i, run := range corpusRun(t, p, seed, k).runs {
						if n := run.Net.Stats().MessagesDropped; n != 0 {
							t.Errorf("seed %d: consensus network of run %d dropped %d messages", seed, i, n)
						}
						if run.Distribution == nil {
							continue
						}
						if n := run.Distribution.Stats.MessagesDropped; n != 0 {
							t.Errorf("seed %d: distribution network of run %d dropped %d messages", seed, i, n)
						}
					}
				}
			})
		}
	}
}
