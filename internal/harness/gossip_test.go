package harness

import (
	"reflect"
	"testing"
	"time"

	"partialtor/internal/simnet"
	"partialtor/internal/sweep"
)

// TestGossipOutageRecovery is the PR's acceptance criterion: with all nine
// authorities flooded to zero residual (the Figure-10 plan, held for the
// whole run) and a single cache holding the fresh consensus, a fanout-3 mesh
// of 30 mirrors must carry ≥95% of the fleet to coverage within the
// validity window, while the no-gossip baseline strands below 20%.
func TestGossipOutageRecovery(t *testing.T) {
	s := goldenGossip(Current, 1)
	res, err := RunE(t.Context(), s)
	if err != nil {
		t.Fatal(err)
	}
	d := res.Distribution
	if got := d.Coverage(); got < 0.95 {
		t.Fatalf("gossip mesh covered %.1f%% of the fleet, want >= 95%%", 100*got)
	}
	if d.TimeToTarget == simnet.Never || d.TimeToTarget > d.Spec.RunLimit() {
		t.Fatalf("gossip mesh never reached target coverage (t=%v)", d.TimeToTarget)
	}
	if d.CachesFromPeers < 25 {
		t.Fatalf("only %d/30 caches obtained the consensus from peers; the flood should leave the mesh as the only source", d.CachesFromPeers)
	}
	if d.GossipBytes == 0 || d.GossipPushes == 0 || d.GossipPulls == 0 {
		t.Fatalf("mesh counters empty (pushes=%d pulls=%d bytes=%d) despite recovery", d.GossipPushes, d.GossipPulls, d.GossipBytes)
	}

	base := goldenGossip(Current, 1)
	base.Distribution.Gossip = nil
	bres, err := RunE(t.Context(), base)
	if err != nil {
		t.Fatal(err)
	}
	bd := bres.Distribution
	if got := bd.Coverage(); got >= 0.20 {
		t.Fatalf("no-gossip baseline covered %.1f%% under a total authority flood, want < 20%%", 100*got)
	}
	if bd.GossipPushes != 0 || bd.GossipBytes != 0 {
		t.Fatalf("baseline without a mesh still recorded gossip activity: pushes=%d bytes=%d", bd.GossipPushes, bd.GossipBytes)
	}
}

// TestGossipRunDeterministic: the same gossip scenario must reproduce the
// identical coverage curve and mesh counters run over run — the
// byte-identical half of the acceptance criterion, checked within one
// process (the golden corpus pins it across builds).
func TestGossipRunDeterministic(t *testing.T) {
	run := func() ([]any, []any) {
		res, err := RunE(t.Context(), goldenGossip(Synchronous, 7))
		if err != nil {
			t.Fatal(err)
		}
		d := res.Distribution
		scalars := []any{d.Covered, d.TimeToTarget, d.GossipPushes, d.GossipPulls,
			d.GossipServes, d.GossipRounds, d.CachesFromPeers, d.GossipBytes}
		curve := make([]any, 0, len(d.Points))
		for _, p := range d.Points {
			curve = append(curve, p)
		}
		return scalars, curve
	}
	s1, c1 := run()
	s2, c2 := run()
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("gossip counters drifted between identical runs:\n  %v\n  %v", s1, s2)
	}
	if !reflect.DeepEqual(c1, c2) {
		t.Fatal("coverage curve drifted between identical runs")
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
		s := goldenGossip(Current, 42)
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
