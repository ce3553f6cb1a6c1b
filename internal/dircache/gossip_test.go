package dircache

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"partialtor/internal/attack"
	"partialtor/internal/gossip"
)

// gossipOutageSpec is the mesh unit-test spec: every authority flooded to
// zero residual for the whole run, cache 0 seeded with the consensus.
func gossipOutageSpec(fanout int) Spec {
	s := smallSpec()
	s.Caches = 12
	s.FetchWindow = 6 * time.Minute
	s.Gossip = &gossip.Config{Fanout: fanout, Seeds: []int{0}}
	s.Attacks = []attack.Plan{{
		Tier:     attack.TierAuthority,
		Targets:  attack.FirstTargets(9),
		Start:    0,
		End:      2 * time.Hour,
		Residual: 0,
	}}
	return s
}

// TestGossipMeshRevivesStarvedTier: with the authorities flooded out, the
// mesh is the only path — the seeded mirror's document must reach the tier
// and the fleet, while the same spec without the mesh strands.
func TestGossipMeshRevivesStarvedTier(t *testing.T) {
	res, err := Run(gossipOutageSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.CachesWithDoc != res.Spec.Caches {
		t.Fatalf("%d/%d caches got the consensus through the mesh", res.CachesWithDoc, res.Spec.Caches)
	}
	if res.CachesFromPeers != res.Spec.Caches-1 {
		t.Fatalf("%d caches peer-fed, want all but the seed (%d)", res.CachesFromPeers, res.Spec.Caches-1)
	}
	if res.Coverage() < 0.95 {
		t.Fatalf("meshed tier covered only %.1f%%", 100*res.Coverage())
	}
	if res.GossipPushes == 0 || res.GossipPulls == 0 || res.GossipServes == 0 || res.GossipBytes == 0 {
		t.Fatalf("mesh counters empty despite recovery: %+v", res.Summary())
	}

	base := gossipOutageSpec(3)
	base.Gossip = nil
	bres, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if bres.CachesWithDoc != 0 || bres.Coverage() > 0.01 {
		t.Fatalf("starved baseline still covered %.1f%% via %d caches",
			100*bres.Coverage(), bres.CachesWithDoc)
	}
}

// TestGossipSpecValidate: the spec surface rejects malformed mesh configs.
func TestGossipSpecValidate(t *testing.T) {
	bad := []func(*Spec){
		func(s *Spec) { s.Gossip.Seeds = []int{99} },
		func(s *Spec) { s.Gossip.Seeds = []int{-1} },
	}
	for i, mutate := range bad {
		s := smallSpec()
		s.Gossip = &gossip.Config{}
		mutate(&s)
		if _, err := Run(s); err == nil {
			t.Fatalf("bad gossip config %d validated", i)
		}
	}
}

// TestConcurrentGossipSweep runs the fanout cells of a gossip sweep
// concurrently and serially and demands identical results — the -race
// exercise for the mesh code paths (shared Spec values, per-run engines).
func TestConcurrentGossipSweep(t *testing.T) {
	fanouts := []int{1, 2, 3, 4}
	run := func(parallel bool) []string {
		out := make([]string, len(fanouts))
		var wg sync.WaitGroup
		for i, f := range fanouts {
			work := func(i, f int) {
				res, err := Run(gossipOutageSpec(f))
				if err != nil {
					t.Errorf("fanout %d: %v", f, err)
					return
				}
				out[i] = res.Summary()
			}
			if parallel {
				wg.Add(1)
				go func(i, f int) { defer wg.Done(); work(i, f) }(i, f)
			} else {
				work(i, f)
			}
		}
		wg.Wait()
		return out
	}
	serial := run(false)
	concurrent := run(true)
	if !reflect.DeepEqual(serial, concurrent) {
		t.Fatalf("concurrent gossip sweep diverged from serial:\n%v\n%v", serial, concurrent)
	}
}
