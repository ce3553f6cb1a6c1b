package harness

import (
	"time"

	"partialtor/internal/core"
	"partialtor/internal/dirv3"
	"partialtor/internal/sig"
	"partialtor/internal/simnet"
	"partialtor/internal/syncdir"
	"partialtor/internal/vote"
)

// The three paper protocols as registered drivers. Each Build constructs the
// protocol config from the scenario, instantiates the authorities, and hands
// them to protocolRun.

func init() {
	RegisterDriver(Current, dirv3Driver{})
	RegisterDriver(Synchronous, syncdirDriver{})
	RegisterDriver(ICPS, icpsDriver{})
}

// authority is what every protocol's Authority reports once the network has
// run: the consensus it aggregated, the signatures it gathered on that
// document's digest, whether it published, and its latency.
type authority interface {
	simnet.Handler
	Record() (cons *vote.Consensus, sigs int, published bool, latency time.Duration)
}

// protocolRun packages an authority set whose Collect folds the authorities'
// records. every marks a protocol in which every authority must publish
// (ICPS); the lock-step protocols succeed when any does.
func protocolRun[A authority](auths []A, end time.Duration, every bool) ProtocolRun {
	nodes := make([]simnet.Handler, len(auths))
	for i, a := range auths {
		nodes[i] = a
	}
	return ProtocolRun{Nodes: nodes, EndTime: end, Collect: func() Outcome { return fold(auths, every) }}
}

// fold derives a run's Outcome from its authorities' records. The run
// succeeds when any authority published, or, with every, when each did; its
// latency is then the latest publisher's, with every also its completion
// instant. Its consensus is the lowest-index publisher's.
func fold[A authority](auths []A, every bool) Outcome {
	out := Outcome{Latency: simnet.Never, DoneAt: simnet.Never, Records: make([]Record, len(auths))}
	published := 0
	for i, a := range auths {
		r := &out.Records[i]
		if r.Consensus, r.Sigs, r.Published, r.Latency = a.Record(); !r.Published {
			continue
		}
		if published++; published == 1 {
			out.Consensus = r.Consensus
		}
		if r.Latency != simnet.Never && (out.Latency == simnet.Never || r.Latency > out.Latency) {
			out.Latency = r.Latency
		}
	}
	out.Success = published > 0 && (!every || published == len(auths))
	if every {
		if !out.Success {
			out.Latency = simnet.Never
		}
		out.DoneAt = out.Latency
	}
	return out
}

// dirv3Driver runs the deployed Tor directory protocol v3.
type dirv3Driver struct{}

func (dirv3Driver) Name() string { return "Current" }

func (dirv3Driver) Build(s Scenario, keys []*sig.KeyPair, docs []*vote.Document) (ProtocolRun, error) {
	cfg := dirv3.Config{Keys: keys, Docs: docs, Round: s.Round, FetchTimeout: s.FetchTimeout}
	auths := dirv3.NewAuthorities(cfg)
	return protocolRun(auths, cfg.EndTime()+time.Second, false), nil
}

// syncdirDriver runs Luo et al.'s Dolev-Strong-based synchronous protocol.
type syncdirDriver struct{}

func (syncdirDriver) Name() string { return "Synchronous" }

func (syncdirDriver) Build(s Scenario, keys []*sig.KeyPair, docs []*vote.Document) (ProtocolRun, error) {
	cfg := syncdir.Config{Keys: keys, Docs: docs, Round: s.Round}
	auths := syncdir.NewAuthorities(cfg)
	return protocolRun(auths, cfg.EndTime()+time.Second, false), nil
}

// icpsDriver runs the paper's protocol: interactive consistency under
// partial synchrony on two-chain HotStuff.
type icpsDriver struct{}

func (icpsDriver) Name() string { return "Ours" }

func (icpsDriver) Build(s Scenario, keys []*sig.KeyPair, docs []*vote.Document) (ProtocolRun, error) {
	cfg := core.Config{Keys: keys, Docs: docs, BaseTimeout: s.BaseTimeout}
	auths := core.NewAuthorities(cfg)
	// ICPS has no lock-step deadline; the horizon just bounds the pacemaker's
	// patience.
	return protocolRun(auths, 6*time.Hour, true), nil
}
