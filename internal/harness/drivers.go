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
// protocolRun the package's Collect.

func init() {
	RegisterDriver(Current, dirv3Driver{})
	RegisterDriver(Synchronous, syncdirDriver{})
	RegisterDriver(ICPS, icpsDriver{})
}

// protocolRun packages an authority set and what its package's Collect has
// to say to the harness: success, the latency metric, the consensus, and
// itself as Detail. absolute marks a protocol whose latency is also its
// completion instant (ICPS); the lock-step protocols report none.
func protocolRun[A simnet.Handler](auths []A, end time.Duration, absolute bool,
	collect func() (ok bool, latency time.Duration, cons *vote.Consensus, detail any)) ProtocolRun {
	nodes := make([]simnet.Handler, len(auths))
	for i, a := range auths {
		nodes[i] = a
	}
	return ProtocolRun{Nodes: nodes, EndTime: end, Collect: func() Outcome {
		out := Outcome{DoneAt: simnet.Never}
		out.Success, out.Latency, out.Consensus, out.Detail = collect()
		if absolute {
			out.DoneAt = out.Latency
		}
		return out
	}}
}

// dirv3Driver runs the deployed Tor directory protocol v3.
type dirv3Driver struct{}

func (dirv3Driver) Name() string { return "Current" }

func (dirv3Driver) Build(s Scenario, keys []*sig.KeyPair, docs []*vote.Document) (ProtocolRun, error) {
	cfg := dirv3.Config{Keys: keys, Docs: docs, Round: s.Round, FetchTimeout: s.FetchTimeout}
	auths := dirv3.NewAuthorities(cfg)
	return protocolRun(auths, cfg.EndTime()+time.Second, false, func() (bool, time.Duration, *vote.Consensus, any) {
		r := dirv3.Collect(auths, cfg)
		return r.Success, r.Latency, r.Consensus, r
	}), nil
}

// syncdirDriver runs Luo et al.'s Dolev-Strong-based synchronous protocol.
type syncdirDriver struct{}

func (syncdirDriver) Name() string { return "Synchronous" }

func (syncdirDriver) Build(s Scenario, keys []*sig.KeyPair, docs []*vote.Document) (ProtocolRun, error) {
	cfg := syncdir.Config{Keys: keys, Docs: docs, Round: s.Round}
	auths := syncdir.NewAuthorities(cfg)
	return protocolRun(auths, cfg.EndTime()+time.Second, false, func() (bool, time.Duration, *vote.Consensus, any) {
		r := syncdir.Collect(auths, cfg)
		return r.Success, r.Latency, r.Consensus, r
	}), nil
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
	return protocolRun(auths, 6*time.Hour, true, func() (bool, time.Duration, *vote.Consensus, any) {
		r := core.Collect(auths, cfg, nil)
		return r.Success, r.Latency, r.Consensus, r
	}), nil
}
