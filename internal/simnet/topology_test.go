package simnet

import (
	"testing"
	"time"

	"partialtor/internal/topo"
)

func TestTopologyLatencyWithinJitterBand(t *testing.T) {
	c := topo.Continents()
	net := New(Config{Seed: 3, Topology: c})
	ids := make([]NodeID, 0, 2*c.NumRegions())
	for r := 0; r < c.NumRegions(); r++ {
		for k := 0; k < 2; k++ {
			h := &recorder{}
			ids = append(ids, net.AddNodeIn(h, NewProfile(1e9), NewProfile(1e9), topo.Region(r)))
		}
	}
	for _, a := range ids {
		for _, b := range ids {
			lat := net.pairLatency(a, b)
			if a == b {
				if lat != 0 {
					t.Fatalf("self latency %v", lat)
				}
				continue
			}
			ra, rb := net.nodes[a].region, net.nodes[b].region
			base, span := c.BaseLatency(ra, rb), c.Jitter(ra, rb)
			if lat < base || lat >= base+span {
				t.Fatalf("latency %v outside [%v, %v) for %s->%s",
					lat, base, base+span, c.RegionName(ra), c.RegionName(rb))
			}
			if back := net.pairLatency(b, a); back != lat {
				t.Fatalf("latency asymmetric: %v vs %v", lat, back)
			}
		}
	}
}

func TestTopologyLatencyDeterministic(t *testing.T) {
	build := func() *Network {
		net := New(Config{Seed: 9, Topology: topo.Continents()})
		for i := 0; i < 8; i++ {
			net.AddNodeIn(&recorder{}, NewProfile(1e9), NewProfile(1e9), topo.Region(i%6))
		}
		return net
	}
	n1, n2 := build(), build()
	for a := NodeID(0); a < 8; a++ {
		for b := NodeID(0); b < 8; b++ {
			if n1.pairLatency(a, b) != n2.pairLatency(a, b) {
				t.Fatalf("nondeterministic latency %d->%d", a, b)
			}
		}
	}
}

func TestTopologyMessageTimingUsesRegionLatency(t *testing.T) {
	// Two EU nodes vs an EU->OC pair: the trans-continent delivery must be
	// slower by at least the base-latency gap, with bandwidth held fat.
	c := topo.Continents()
	net := New(Config{Seed: 1, Topology: c})
	src := &recorder{}
	euPeer, ocPeer := &recorder{}, &recorder{}
	net.AddNodeIn(src, NewProfile(1e9), NewProfile(1e9), topo.EU)
	euID := net.AddNodeIn(euPeer, NewProfile(1e9), NewProfile(1e9), topo.EU)
	ocID := net.AddNodeIn(ocPeer, NewProfile(1e9), NewProfile(1e9), topo.OC)
	src.onStart = func(ctx *Context) {
		ctx.Send(euID, testMsg{size: 100, kind: "t"})
		ctx.Send(ocID, testMsg{size: 100, kind: "t"})
	}
	net.Run(time.Minute)
	if len(euPeer.got) != 1 || len(ocPeer.got) != 1 {
		t.Fatalf("deliveries: eu %d, oc %d", len(euPeer.got), len(ocPeer.got))
	}
	gap := ocPeer.got[0].at - euPeer.got[0].at
	minGap := c.BaseLatency(topo.EU, topo.OC) - c.BaseLatency(topo.EU, topo.EU) - c.Jitter(topo.EU, topo.EU)
	if gap < minGap {
		t.Fatalf("trans-continent delivery only %v behind the intra-region one (want >= %v)", gap, minGap)
	}
}
