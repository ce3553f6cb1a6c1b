package gossip

import (
	"math/rand"
	"testing"
)

// exchange runs one anti-entropy contact from a to b over the toy instant
// transport: a sends its vector, b pulls if behind, b replies with its own
// vector if a is behind, and a then pulls. This is exactly the dircache
// wiring minus latency.
func exchange(a, b *Engine) {
	av := a.Vector(nil).EpochFor(0)
	if b.NeedsPull(av) {
		b.BeginPull(av)
		if serve, _ := a.OnPull(b.Epoch()); serve {
			b.Acquire(a.Epoch())
		}
	} else if av < b.Epoch() && a.NeedsPull(b.Epoch()) {
		a.BeginPull(b.Epoch())
		if serve, _ := b.OnPull(a.Epoch()); serve {
			a.Acquire(b.Epoch())
		}
	}
}

// TestAntiEntropyConvergence is the headline mesh property: for randomized
// meshes across 100 seeds, with a random subset of nodes flooded off the
// mesh (every link to them cut — a partition), every surviving connected
// component converges to its maximum epoch within D anti-entropy rotations,
// where D is the component's diameter and one rotation (degree rounds) takes
// each node through its full peer list once.
func TestAntiEntropyConvergence(t *testing.T) {
	for seed := int64(1); seed <= 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(36)
		degree := 2 + rng.Intn(5)
		adj := BuildMesh(n, degree, seed, nil)

		removed := make([]bool, n)
		for i := 0; i < n/4; i++ {
			removed[rng.Intn(n)] = true
		}

		// Prune the flooded nodes out: the survivors' reachable peers.
		pruned := make([][]int, n)
		maxDeg := 1
		for i := range adj {
			if removed[i] {
				continue
			}
			for _, p := range adj[i] {
				if !removed[p] {
					pruned[i] = append(pruned[i], p)
				}
			}
			if len(pruned[i]) > maxDeg {
				maxDeg = len(pruned[i])
			}
		}

		engs := make([]*Engine, n)
		for i := range engs {
			if !removed[i] {
				engs[i] = NewEngine(i, pruned[i])
				engs[i].SetEpoch(uint64(rng.Intn(4)))
			}
		}

		comp, diam := components(pruned, removed)
		rounds := (diam + 1) * maxDeg
		for r := 0; r < rounds; r++ {
			for i := range engs {
				if engs[i] == nil {
					continue
				}
				if p, ok := engs[i].NextPeer(); ok {
					exchange(engs[i], engs[p])
				}
			}
		}

		// Every component must sit at its own max epoch.
		compMax := map[int]uint64{}
		for i, e := range engs {
			if e != nil && e.Epoch() > compMax[comp[i]] {
				compMax[comp[i]] = e.Epoch()
			}
		}
		for i, e := range engs {
			if e == nil {
				continue
			}
			if e.Epoch() != compMax[comp[i]] {
				t.Fatalf("seed %d (n=%d degree=%d): node %d at epoch %d, component max %d after %d rounds",
					seed, n, degree, i, e.Epoch(), compMax[comp[i]], rounds)
			}
		}
	}
}

// components labels each surviving node with a component id and returns the
// largest component diameter (BFS from every node).
func components(adj [][]int, removed []bool) (comp []int, diameter int) {
	n := len(adj)
	comp = make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	next := 0
	for i := 0; i < n; i++ {
		if removed[i] || comp[i] >= 0 {
			continue
		}
		comp[i] = next
		queue := []int{i}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, p := range adj[v] {
				if comp[p] < 0 {
					comp[p] = next
					queue = append(queue, p)
				}
			}
		}
		next++
	}
	dist := make([]int, n)
	for i := 0; i < n; i++ {
		if removed[i] {
			continue
		}
		for j := range dist {
			dist[j] = -1
		}
		dist[i] = 0
		queue := []int{i}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, p := range adj[v] {
				if dist[p] < 0 {
					dist[p] = dist[v] + 1
					if dist[p] > diameter {
						diameter = dist[p]
					}
					queue = append(queue, p)
				}
			}
		}
	}
	return comp, diameter
}

// TestPushIdempotence: re-delivered digests cause no duplicate fetches and
// no duplicate relays — the metamorphic half of the push protocol.
func TestPushIdempotence(t *testing.T) {
	e := NewEngine(0, []int{1, 2, 3, 4})
	d := Digest{Epoch: 2, TTL: 4}

	pulls, relays := 0, 0
	for i := 0; i < 5; i++ {
		if e.NeedsPull(d.Epoch) {
			e.BeginPull(d.Epoch)
			pulls++
		}
		if e.NoteAnnounce(d) {
			relays++
		}
	}
	if pulls != 1 {
		t.Fatalf("5 deliveries of one digest caused %d pulls, want 1", pulls)
	}
	if relays != 1 {
		t.Fatalf("5 deliveries of one digest caused %d relays, want 1", relays)
	}

	// The pull lands; later re-deliveries of the same epoch stay inert.
	if !e.Acquire(2) {
		t.Fatal("acquire of the pulled epoch did not advance")
	}
	if e.NeedsPull(d.Epoch) || e.NoteAnnounce(d) {
		t.Fatal("digest for a held epoch still triggered work")
	}
	// An expired pull re-arms exactly once.
	e2 := NewEngine(0, []int{1})
	seq := 0
	if e2.NeedsPull(3) {
		seq = e2.BeginPull(3)
	}
	if e2.NeedsPull(3) {
		t.Fatal("pull in flight but NeedsPull still true")
	}
	if !e2.PullExpired(seq) {
		t.Fatal("outstanding pull did not expire")
	}
	if e2.PullExpired(seq) {
		t.Fatal("pull expired twice")
	}
	if !e2.NeedsPull(3) {
		t.Fatal("expired pull did not re-arm the node")
	}
}

func TestOnPullServesDiffOnlyAcrossOneEpoch(t *testing.T) {
	e := NewEngine(0, nil)
	e.SetEpoch(5)
	if serve, full := e.OnPull(4); !serve || full {
		t.Fatalf("one-epoch gap: serve=%v full=%v, want diff", serve, full)
	}
	if serve, full := e.OnPull(2); !serve || !full {
		t.Fatalf("three-epoch gap: serve=%v full=%v, want full doc", serve, full)
	}
	if serve, _ := e.OnPull(5); serve {
		t.Fatal("served a peer that is not behind")
	}
	if serve, _ := e.OnPull(9); serve {
		t.Fatal("served a peer that is ahead")
	}
	empty := NewEngine(1, nil)
	if serve, _ := empty.OnPull(0); serve {
		t.Fatal("served with nothing held")
	}
}

func TestAcquireResolvesPendingPull(t *testing.T) {
	e := NewEngine(0, nil)
	e.BeginPull(2)
	// An under-delivering server (stale cache one epoch back) still resolves
	// the pull; the node stays eligible for the next trigger.
	if !e.Acquire(1) {
		t.Fatal("acquire of epoch 1 from epoch 0 did not advance")
	}
	if !e.NeedsPull(2) {
		t.Fatal("resolved pull left the node unable to re-pull")
	}
}

func TestNextPeerRoundRobin(t *testing.T) {
	e := NewEngine(0, []int{3, 5, 9})
	var got []int
	for i := 0; i < 6; i++ {
		p, ok := e.NextPeer()
		if !ok {
			t.Fatal("NextPeer failed with peers present")
		}
		got = append(got, p)
	}
	want := []int{3, 5, 9, 3, 5, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rotation %v, want %v", got, want)
		}
	}
	if _, ok := NewEngine(0, nil).NextPeer(); ok {
		t.Fatal("NextPeer succeeded with no peers")
	}
}

func TestSelectPeers(t *testing.T) {
	peers := []int{2, 4, 6, 8, 10, 12}
	e := NewEngine(0, peers)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		got := e.SelectPeers(rng, 3)
		if len(got) != 3 {
			t.Fatalf("got %d peers, want 3", len(got))
		}
		seen := map[int]bool{}
		for _, p := range got {
			if seen[p] {
				t.Fatalf("duplicate peer %d in %v", p, got)
			}
			seen[p] = true
			member := false
			for _, q := range peers {
				member = member || q == p
			}
			if !member {
				t.Fatalf("selected %d outside the peer list", p)
			}
		}
	}
	// k saturating or degenerate.
	if got := e.SelectPeers(rng, 100); len(got) != len(peers) {
		t.Fatalf("k>n returned %d peers, want all %d", len(got), len(peers))
	}
	if got := e.SelectPeers(rng, 0); len(got) != 0 {
		t.Fatalf("k=0 returned %v", got)
	}
}

// TestSelectPeersAllocFree pins the per-round peer-selection hot path at
// zero allocations once the scratch has warmed up.
func TestSelectPeersAllocFree(t *testing.T) {
	peers := make([]int, 30)
	for i := range peers {
		peers[i] = i + 1
	}
	e := NewEngine(0, peers)
	rng := rand.New(rand.NewSource(1))
	e.SelectPeers(rng, 3) // warm the scratch
	allocs := testing.AllocsPerRun(200, func() {
		e.SelectPeers(rng, 3)
	})
	if allocs != 0 {
		t.Fatalf("SelectPeers allocates %.1f times per round, want 0", allocs)
	}
}

// TestSetPeersKeepsCursor: a mid-run membership change (churned mirrors
// leaving or rejoining) swaps the peer list under the anti-entropy rotation
// without restarting it — the cursor simply continues over the new list —
// and an emptied list parks NextPeer until peers return.
func TestSetPeersKeepsCursor(t *testing.T) {
	e := NewEngine(0, []int{1, 2, 3})
	if p, ok := e.NextPeer(); !ok || p != 1 {
		t.Fatalf("first partner = %d,%v, want 1,true", p, ok)
	}
	if p, ok := e.NextPeer(); !ok || p != 2 {
		t.Fatalf("second partner = %d,%v, want 2,true", p, ok)
	}
	// Mirror 2 churns away; the cursor (now at 2) keeps advancing over the
	// shorter list rather than rewinding.
	e.SetPeers([]int{1, 3})
	if p, ok := e.NextPeer(); !ok || p != 1 {
		t.Fatalf("post-churn partner = %d,%v, want 1,true", p, ok)
	}
	if p, ok := e.NextPeer(); !ok || p != 3 {
		t.Fatalf("post-churn partner = %d,%v, want 3,true", p, ok)
	}
	e.SetPeers(nil)
	if _, ok := e.NextPeer(); ok {
		t.Fatal("NextPeer on an emptied mesh should report no partner")
	}
	e.SetPeers([]int{7})
	if p, ok := e.NextPeer(); !ok || p != 7 {
		t.Fatalf("rejoin partner = %d,%v, want 7,true", p, ok)
	}
}
