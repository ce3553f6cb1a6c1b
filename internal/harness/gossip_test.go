package harness

import (
	"strings"
	"testing"
	"time"

	"partialtor/internal/simnet"
	"partialtor/internal/sweep"
)

// TestGossipOutageRecovery holds every gossip corpus cell to its kind's
// claim: with all nine authorities flooded to zero residual and a single
// cache holding the fresh consensus, a fanout-3 mesh of 30 mirrors carries
// >= 95% of the fleet to coverage within the validity window, while the
// no-gossip baseline strands below 20%.
func TestGossipOutageRecovery(t *testing.T) { walkClaim(t, "gossip") }

// TestGossipRunDeterministic: the gossip scenario run again in the same
// process reproduces its corpus run's coverage curve, mesh counters and the
// rest of its distribution outcome (the digest pins them across builds).
func TestGossipRunDeterministic(t *testing.T) {
	k := goldenKindNamed(t, "gossip")
	res, err := RunE(t.Context(), k.scenario(Synchronous, 7))
	if err != nil {
		t.Fatal(err)
	}
	var want, got strings.Builder
	hashDistribution(&want, corpusRun(t, Synchronous, 7, k).d)
	hashDistribution(&got, res.Distribution)
	if got.String() != want.String() {
		t.Fatalf("the gossip run drifted between identical runs:\n%s\n%s", want.String(), got.String())
	}
}

// TestGossipFanoutMonotonic: on a fixed seed, raising the push fanout never
// hurts — client coverage is non-decreasing, and the mesh itself spreads no
// slower: the instant the last mirror obtains the consensus is
// non-increasing across fanout 1..4 on the outage scenario. (Time to client
// target coverage is arrival-draw-dominated once the mesh has flooded, so
// the mirror-tier spread is the honest fanout metric.)
func TestGossipFanoutMonotonic(t *testing.T) {
	prevCovered := -1
	prevLast := simnet.Never
	for fanout := 1; fanout <= 4; fanout++ {
		s := goldenKindNamed(t, "gossip").scenario(Current, 42)
		s.Distribution.Gossip.Fanout = fanout
		res, err := RunE(t.Context(), s)
		if err != nil {
			t.Fatal(err)
		}
		d := res.Distribution
		if d.Covered < prevCovered {
			t.Fatalf("fanout %d covered %d clients, fewer than fanout %d's %d",
				fanout, d.Covered, fanout-1, prevCovered)
		}
		last := time.Duration(0)
		for _, at := range d.CacheFetchedAt {
			if at == simnet.Never {
				t.Fatalf("fanout %d left a mirror without the consensus", fanout)
			}
			if at > last {
				last = at
			}
		}
		if last > prevLast {
			t.Fatalf("fanout %d filled the mesh at %v, slower than fanout %d's %v",
				fanout, last, fanout-1, prevLast)
		}
		prevCovered, prevLast = d.Covered, last
	}
}

// TestGossipTable smoke-runs the fanout sweep at demo scale: the baseline
// row strands, every mesh row recovers, and the partition price is attached
// to mesh rows only.
func TestGossipTable(t *testing.T) {
	res, err := GossipTable(t.Context(), GossipParams{
		Clients: 2_000,
		Fanouts: []int{3},
	}, sweep.Params{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("want baseline + 1 fanout row, got %d", len(res.Rows))
	}
	base, mesh := res.Rows[0], res.Rows[1]
	if base.Fanout != -1 || mesh.Fanout != 3 {
		t.Fatalf("row order drifted: %+v", res.Rows)
	}
	if base.Coverage >= 0.20 || base.PartitionCost != 0 || base.Pushes != 0 {
		t.Fatalf("baseline row not stranded and quiet: %+v", base)
	}
	if mesh.Coverage < 0.95 || mesh.PartitionCost <= 0 || mesh.Pushes == 0 {
		t.Fatalf("mesh row did not recover with a priced mesh: %+v", mesh)
	}
	if mesh.MeshFill == simnet.Never || mesh.MeshFill > gossipPaper.Window {
		t.Fatalf("mesh never filled within the window: %v", mesh.MeshFill)
	}
	if out := res.Render(); len(out) == 0 {
		t.Fatal("empty render")
	}
}
