package main

import (
	"context"
	"math/rand"
	"time"

	"partialtor/internal/client"
	"partialtor/internal/dircache"
	"partialtor/internal/faults"
	"partialtor/internal/gossip"
	"partialtor/internal/harness"
	"partialtor/internal/relay"
	"partialtor/internal/sig"
	"partialtor/internal/simnet"
	"partialtor/internal/sweep"
	"partialtor/internal/topo"
	"partialtor/internal/vote"
)

// probeReps is how often each micro-probe repeats its batch; the reported
// cost is the median batch divided by the batch size.
const probeReps = 5

// perCall times batch consecutive calls of fn, probeReps times, and returns
// the median cost of one call.
func perCall(batch int, fn func()) time.Duration {
	costs := make([]float64, probeReps)
	for r := range costs {
		start := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		costs[r] = float64(time.Since(start)) / float64(batch)
	}
	return time.Duration(median(costs))
}

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink any

// runProbes makes direct timed calls into each layer's public functions on
// inputs of the consensus workloads' size. The same probes run in every
// traced invocation, whatever the workload: they describe the layers, and a
// layer's probe moving while its workload's end-to-end numbers stay put is
// itself a finding.
func runProbes(seed int64) map[string]float64 {
	out := map[string]float64{}
	keys, docs := harness.Inputs(consensusScenario(harness.Current, seed, nil))
	doc := docs[0]
	encoded := doc.Encode()
	out["vote.doc_bytes"] = float64(len(encoded))

	// sig
	hash := perCall(8, func() { sink = sig.Hash(encoded) })
	out["sig.hash_mb_per_s"] = float64(len(encoded)) / 1e6 / hash.Seconds()
	msg := encoded[:256]
	var s sig.Signature
	out["sig.sign_us"] = us(perCall(200, func() { s = keys[0].Sign("probe", msg) }))
	pubs := sig.PublicSet(keys)
	out["sig.verify_us"] = us(perCall(200, func() { sink = sig.Verify(pubs, "probe", msg, s) }))

	// vote and relay
	out["vote.encode_ms"] = ms(perCall(2, func() {
		fresh := vote.NewDocument(doc.AuthorityIndex, doc.AuthorityName, doc.Fingerprint, doc.ValidAfter, doc.Relays)
		fresh.EntryPadding = doc.EntryPadding
		sink = fresh.Encode()
	}))
	out["vote.digest_ms"] = ms(perCall(8, func() { sink = doc.Digest() }))
	out["vote.parse_ms"] = ms(perCall(2, func() { sink, _ = vote.Parse(encoded) }))
	out["vote.aggregate_ms"] = ms(perCall(2, func() { sink, _ = vote.Aggregate(docs, len(docs)) }))
	out["relay.population_ms"] = ms(perCall(4, func() { sink = relay.Population(consensusRelays, seed) }))

	// simnet: the bare event heap, then 64 senders converging on one
	// downlink (the fan-in the cache floods produce).
	const schedEvents = 200_000
	out["simnet.sched_ns_per_event"] = float64(perCall(1, func() {
		sched := simnet.NewScheduler()
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < schedEvents; i++ {
			sched.At(time.Duration(rng.Int63n(int64(time.Hour))), func() {})
		}
		sched.Run()
	})) / schedEvents
	const senders, perSender = 64, 40
	out["simnet.fanin_us_per_transfer"] = us(perCall(1, func() {
		net := simnet.New(simnet.Config{Seed: seed})
		net.AddNode(idleNode{}, simnet.NewProfile(100e6), simnet.NewProfile(100e6))
		for i := 0; i < senders; i++ {
			net.AddNode(burstNode{n: perSender}, simnet.NewProfile(100e6), simnet.NewProfile(100e6))
		}
		net.Run(time.Hour)
	})) / (senders * perSender)

	// gossip, faults, topo
	const mirrors = 60
	var mesh [][]int
	out["gossip.buildmesh_ms"] = ms(perCall(20, func() { mesh = gossip.BuildMesh(mirrors, 4, seed, nil) }))
	eng := gossip.NewEngine(0, mesh[0])
	rng := rand.New(rand.NewSource(seed))
	out["gossip.selectpeers_ns"] = float64(perCall(100_000, func() { sink = eng.SelectPeers(rng, 3) }))
	backoff := faults.Backoff{Base: 10 * time.Second, Cap: time.Minute, Jitter: 0.5}.WithDefaults()
	attempt := 0
	out["faults.backoff_ns"] = float64(perCall(100_000, func() {
		sink = backoff.Delay(attempt%6, rng)
		attempt++
	}))
	continents := topo.Continents()
	out["topo.place_us"] = us(perCall(1000, func() { sink = topo.PlaceTier(continents, mirrors) }))

	// chain and client: the first check of a link pays the Ed25519 threshold
	// verification, every later one hits the per-digest memo.
	cc := dircache.SynthChain(seed, len(keys), sig.Digest{})
	var v *client.Verifier
	out["client.verify_first_us"] = us(perCall(20, func() {
		v = client.NewVerifier(cc.Pubs, cc.Threshold, cc.Genuine.Epoch, cc.Genuine.Prev)
		sink = v.Check(cc.Genuine)
	}))
	out["client.verify_memo_ns"] = float64(perCall(100_000, func() { sink = v.Check(cc.Genuine) }))

	// sweep: the pool's cost per cell when the cell does nothing.
	grid := sweep.MustNew(sweep.Ints("i", make([]int, 2000)...))
	out["sweep.overhead_us_per_cell"] = us(perCall(1, func() {
		sink = sweep.RunParams(context.Background(), grid, sweep.Params{Workers: campaignWorkers},
			func(context.Context, sweep.Cell) (int, error) { return 0, nil })
	})) / float64(grid.Size())
	return out
}

// probeMsg is a fixed-size message for the fan-in probe.
type probeMsg struct{}

func (probeMsg) Size() int64  { return 50_000 }
func (probeMsg) Kind() string { return "probe" }

type idleNode struct{}

func (idleNode) Start(*simnet.Context)                                  {}
func (idleNode) Deliver(*simnet.Context, simnet.NodeID, simnet.Message) {}

// burstNode sends n messages to node 0 at start.
type burstNode struct{ n int }

func (b burstNode) Start(c *simnet.Context) {
	for i := 0; i < b.n; i++ {
		c.Send(0, probeMsg{})
	}
}
func (burstNode) Deliver(*simnet.Context, simnet.NodeID, simnet.Message) {}
