// Gossip outage demo: the dissemination layer that decouples the cache tier
// from the authorities. The paper's headline attack floods nine authority
// links for five minutes and breaks the hourly consensus; the same flood
// held for a whole fetch window also starves the mirror tier, because every
// cache fetches from the authorities' star. This example meshes the caches
// instead: with all nine authorities flooded to zero residual and a single
// mirror holding the fresh consensus, a fanout-3 gossip mesh carries the
// document cache-to-cache and revives the fleet, while the star-topology
// baseline strands below 20% coverage. The attacker's counter — cutting a
// mirror out of the mesh — now means flooding cache links, priced per mesh
// degree by the cost model.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"partialtor"
)

func main() {
	const (
		clients = 200_000
		caches  = 30
		window  = 6 * time.Minute
	)

	// The outage: every authority flooded to zero residual for the whole
	// run — no cache can complete an authority fetch. Cache 0 alone is
	// seeded with the fresh consensus (it fetched just before the flood).
	outage := []partialtor.AttackPlan{{
		Tier:     partialtor.TierAuthority,
		Targets:  partialtor.FirstTargets(9),
		Start:    0,
		End:      window + time.Hour,
		Residual: 0,
	}}
	run := func(cfg *partialtor.GossipConfig) *partialtor.DistributionResult {
		res, err := partialtor.RunDistribution(partialtor.DistributionSpec{
			Clients:     clients,
			Caches:      caches,
			Fleets:      2,
			FetchWindow: window,
			Seed:        42,
			Attacks:     outage,
			Gossip:      cfg,
		})
		if err != nil {
			log.Fatalf("gossipoutage: %v", err)
		}
		return res
	}

	fmt.Println("== total authority flood, one seeded mirror, 200k clients ==")
	fmt.Println()

	base := run(nil)
	mesh := run(&partialtor.GossipConfig{Fanout: 3, Seeds: []int{0}})
	fmt.Printf("star baseline: %5.1f%% coverage — the tier starves with the authorities\n",
		100*base.Coverage())
	fmt.Printf("fanout-3 mesh: %5.1f%% coverage, 95%% at %v — %d of %d mirrors fed by peers, %.1f MB mesh traffic\n",
		100*mesh.Coverage(), mesh.TimeToCoverage(0.95).Round(time.Second),
		mesh.CachesFromPeers, caches, float64(mesh.GossipBytes)/1e6)
	fmt.Println()

	// The defense economics: isolating one mirror from a degree-d mesh
	// means flooding it and its d neighbours' cache links for the window.
	pricing := partialtor.DefaultCostModel()
	fmt.Println("cutting one mirror out of the mesh (per window):")
	for _, degree := range []int{2, 4, 6, 8} {
		fmt.Printf("  degree %d: $%.3f\n", degree, pricing.MeshPartitionCost(degree, window, 0))
	}
	fmt.Println()

	// The full comparison table: baseline and meshes of rising fanout.
	table, err := partialtor.GossipTable(context.Background(), partialtor.GossipParams{
		Clients: clients,
		Caches:  caches,
		Window:  window,
		Fanouts: []int{1, 2, 3},
	}, partialtor.SweepParams{})
	if err != nil {
		log.Fatalf("gossipoutage: %v", err)
	}
	fmt.Println(table.Render())
}
