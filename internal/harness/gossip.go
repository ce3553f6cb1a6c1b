package harness

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"partialtor/internal/attack"
	"partialtor/internal/dircache"
	"partialtor/internal/gossip"
	"partialtor/internal/sweep"
)

// GossipRow is one cell of the gossip-outage experiment: every authority
// flooded to zero residual for the whole run, one seeded mirror, and the
// cache tier meshed at one push fanout (Fanout -1 is the no-gossip
// baseline).
type GossipRow struct {
	Fanout int // push fanout; -1 = gossip disabled (the baseline)
	// Coverage is the fleet fraction covered when the fetch window closes;
	// T95 the time to 95% coverage (simnet.Never if unreached); MeshFill the
	// instant the last mirror obtained the consensus (simnet.Never if one
	// never did).
	Coverage float64
	T95      time.Duration
	MeshFill time.Duration
	// Pushes/Pulls count mesh activity; MeshBytes its wire traffic.
	Pushes, Pulls int
	MeshBytes     int64
	// PartitionCost prices cutting one mirror out of this mesh for the
	// window (attack.CostModel.MeshPartitionCost); 0 for the baseline.
	PartitionCost float64
}

// GossipParams scales the experiment (unset fields = demo scale).
type GossipParams struct {
	Clients int
	Caches  int
	Fleets  int
	Window  time.Duration
	Fanouts []int // mesh fanouts to sweep, after the no-gossip baseline
	Degree  int   // mesh degree
	Seed    int64
}

var (
	gossipPaper = GossipParams{
		Clients: 20_000,
		Caches:  30,
		Fleets:  2,
		Window:  6 * time.Minute,
		Fanouts: []int{1, 3},
		Degree:  (gossip.Config{}).WithDefaults().Degree,
		Seed:    42,
	}
	gossipQuick = GossipParams{Clients: 5_000, Caches: 20, Fanouts: []int{3}}

	gossipArtifact = artifact("gossip", gossipQuick, GossipTable)
)

// gossipOutageSpec is the experiment's distribution spec: authorities
// flooded to zero residual for the whole run, cache 0 seeded with the fresh
// consensus, the rest reachable only through the mesh (nil Gossip = the
// stranded baseline).
func gossipOutageSpec(p GossipParams, cfg *gossip.Config) dircache.Spec {
	return dircache.Spec{
		Clients:     p.Clients,
		Caches:      p.Caches,
		Fleets:      p.Fleets,
		FetchWindow: p.Window,
		Seed:        p.Seed,
		Gossip:      cfg,
		Attacks: []attack.Plan{{
			Tier:     attack.TierAuthority,
			Targets:  attack.FirstTargets(9),
			Start:    0,
			End:      p.Window + time.Hour,
			Residual: 0,
		}},
	}
}

// GossipTable compares the stranded baseline against gossip meshes of
// increasing fanout under a total authority flood, reporting per-cell
// coverage, mesh spread, wire cost and the partition price. The headline:
// with all nine authorities down and a single cache seeded, the mesh carries
// the fleet to coverage while the baseline strands, and partitioning the
// mesh costs the attacker cache-tier floods instead of nine authority
// links. Cells fan out over the sweep engine.
func GossipTable(ctx context.Context, p GossipParams, sp sweep.Params) (*Table[GossipRow], error) {
	p = overlay(p, gossipPaper)
	cost := attack.DefaultCostModel()
	grid := sweep.MustNew(sweep.Ints("fanout", append([]int{-1}, p.Fanouts...)...))
	return sweepTable(ctx, grid, sp, func(_ context.Context, c sweep.Cell) (GossipRow, error) {
		row := GossipRow{Fanout: c.Int("fanout")}
		var cfg *gossip.Config
		if row.Fanout >= 0 {
			cfg = &gossip.Config{Fanout: row.Fanout, Degree: p.Degree, Seeds: []int{0}}
		}
		r, err := dircache.Run(gossipOutageSpec(p, cfg))
		if err != nil {
			return GossipRow{}, err
		}
		row.Coverage = r.CoverageAt(p.Window)
		row.T95 = r.TimeToCoverage(0.95)
		for _, at := range r.CacheFetchedAt {
			// Never is the largest Duration: one unfed mirror makes the fill Never.
			row.MeshFill = max(row.MeshFill, at)
		}
		row.Pushes = r.GossipPushes
		row.Pulls = r.GossipPulls
		row.MeshBytes = r.GossipBytes
		if row.Fanout >= 0 {
			row.PartitionCost = cost.MeshPartitionCost(p.Degree, p.Window, 0)
		}
		return row, nil
	}, layout[GossipRow]{
		title: fmt.Sprintf("Gossip: authority flood vs cache mesh (degree %d, %v window)", p.Degree, p.Window),
		cols: []column[GossipRow]{
			{"Mesh", func(r GossipRow) string {
				if r.Fanout < 0 {
					return "no gossip"
				}
				return fmt.Sprintf("fanout %d", r.Fanout)
			}},
			{"Coverage", func(r GossipRow) string { return fmt.Sprintf("%.1f%%", 100*r.Coverage) }},
			{"t95 (s)", func(r GossipRow) string { return fmtLatency(r.T95) }},
			{"Mesh fill (s)", func(r GossipRow) string { return fmtLatency(r.MeshFill) }},
			{"Pushes", func(r GossipRow) string { return strconv.Itoa(r.Pushes) }},
			{"Pulls", func(r GossipRow) string { return strconv.Itoa(r.Pulls) }},
			{"Mesh traffic", func(r GossipRow) string { return fmtBytes(r.MeshBytes) }},
			{"Partition $", func(r GossipRow) string {
				if r.Fanout < 0 {
					return "—"
				}
				return fmt.Sprintf("$%.3f", r.PartitionCost)
			}},
		},
	}.render)
}
