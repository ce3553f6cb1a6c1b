// Package testkit provides shared scaffolding for protocol tests: authority
// key sets, vote documents over synthetic relay views, and pre-wired
// networks with per-node capacity profiles.
package testkit

import (
	"time"

	"partialtor/internal/sig"
	"partialtor/internal/simnet"
	"partialtor/internal/vote"
)

// Authorities builds n deterministic authority keys.
func Authorities(n int, seed int64) []*sig.KeyPair { return sig.Authorities(seed, n) }

// Docs builds one vote document per authority over perturbed views of a
// shared synthetic population (vote.Views, vote.Votes). padding < 0 selects
// the calibrated default; padding == 0 disables padding (natural entry size).
// The votes are sealed and share one consensus memo, as an inputs entry's do.
func Docs(keys []*sig.KeyPair, relays int, seed int64, padding int) []*vote.Document {
	if padding < 0 {
		padding = vote.DefaultEntryPadding
	}
	return vote.Votes(keys, vote.Views(len(keys), relays, seed), padding)
}

// Net bundles a network with its per-node profiles so tests can throttle
// them before the run starts.
type Net struct {
	Network *simnet.Network
	Up      []*simnet.Profile
	Down    []*simnet.Profile
}

// NewNet builds an n-node network where every node has the given symmetric
// access bandwidth (bits/s). Handlers are attached via Attach.
func NewNet(n int, bandwidth float64, seed int64) *Net {
	net := simnet.New(simnet.Config{Seed: seed, Overhead: 128})
	t := &Net{Network: net}
	for i := 0; i < n; i++ {
		t.Up = append(t.Up, simnet.NewProfile(bandwidth))
		t.Down = append(t.Down, simnet.NewProfile(bandwidth))
	}
	return t
}

// Attach registers handlers node-by-node; len(hs) must equal the profile
// count.
func (t *Net) Attach(hs []simnet.Handler) {
	if len(hs) != len(t.Up) {
		panic("testkit: handler count mismatch")
	}
	for i, h := range hs {
		t.Network.AddNode(h, t.Up[i], t.Down[i])
	}
}

// Throttle caps node i's bandwidth in [from, to).
func (t *Net) Throttle(i int, from, to time.Duration, bits float64) {
	t.Up[i].ThrottleMin(from, to, bits)
	t.Down[i].ThrottleMin(from, to, bits)
}

// Run starts the network and executes until the limit.
func (t *Net) Run(limit time.Duration) { t.Network.Run(limit) }
