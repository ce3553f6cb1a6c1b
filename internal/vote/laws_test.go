package vote

import (
	"fmt"
	"slices"
	"testing"

	"partialtor/internal/relay"
	"partialtor/internal/sig"
)

// TestAggregateLawsUnderLyingVotes states the consensus-document laws over
// vote sets in which k of N authorities lie, for every k up to ⌊(N−1)/2⌋, at
// an even and an odd N. TorMult (arXiv 2307.08550) inflates the bandwidth a
// relay is credited with; the defence is the low median and majority rules.
// The liars pick a relay X that every vote lists, measures and flags alike,
// claim a measurement above (or below) every honest one and every flag (or
// none) for it, and list a relay Y no honest vote lists. Then:
//   - X's consensus bandwidth stays within the honest votes' range;
//   - X's consensus flags are the honest votes' flags: a flag needs a strict
//     majority of X's listings, which k ≤ ⌊(N−1)/2⌋ liars never are;
//   - Y is in the consensus exactly when k reaches Figure 2's threshold of
//     ⌊N/2⌋ listings. That is a weaker law than "a relay needs a majority":
//     at odd N, ⌊N/2⌋ = ⌊(N−1)/2⌋, so the largest minority adds a relay.
//
// Each set is checked through both merges: the votes over vote.Views share
// one roster and merge on its indices, and the same votes parsed back hold a
// roster each and merge on identities.
func TestAggregateLawsUnderLyingVotes(t *testing.T) {
	var every relay.Flags
	for _, f := range allFlags {
		every |= f
	}
	for _, n := range []int{8, 9} {
		for _, seed := range []int64{1, 2} {
			keys, views := sig.Authorities(seed, n), Views(n, 200, seed)
			x, y := targets(views, every)
			honest := make([]uint64, 0, n)
			for k := 0; k <= (n-1)/2; k++ {
				for _, up := range []bool{true, false} {
					lied := make([]View, n)
					honest = honest[:0]
					for a, v := range views {
						ls := slices.Clone(v.Listings)
						at := listingOf(ls, x)
						if a >= k {
							honest = append(honest, ls[at].Measured)
							ls = slices.DeleteFunc(ls, func(l relay.Listing) bool { return l.Index == y })
						} else if up {
							ls[at].Measured, ls[at].Flags = 1<<40, every
						} else {
							ls[at].Measured, ls[at].Flags = 1, 0
						}
						lied[a] = View{Roster: v.Roster, Listings: ls}
					}
					votes := Votes(keys, lied, 0)
					parsed := make([]*Document, n)
					for a, d := range votes {
						p, err := Parse(d.Encode())
						if err != nil {
							t.Fatal(err)
						}
						parsed[a] = p
					}
					for m, set := range [][]*Document{votes, parsed} {
						merge := [...]string{"indices", "identities"}[m]
						what := fmt.Sprintf("N=%d seed=%d k=%d up=%v %s", n, seed, k, up, merge)
						c, err := Aggregate(set, n)
						if err != nil {
							t.Fatal(err)
						}
						if (set[0].Relays.Roster == set[1].Relays.Roster) != (merge == "indices") {
							t.Fatalf("%s: the votes do not take the merge under test", what)
						}
						r := views[0].Roster
						gotX, hasX := consensusEntry(c, r.relays[x].Identity)
						if !hasX {
							t.Fatalf("%s: the relay every vote lists is not in the consensus", what)
						}
						if lo, hi := slices.Min(honest), slices.Max(honest); gotX.Bandwidth < lo || gotX.Bandwidth > hi {
							t.Fatalf("%s: the lied-about relay weighs %d, outside the honest votes' %d–%d", what, gotX.Bandwidth, lo, hi)
						}
						if want := views[0].Listings[listingOf(views[0].Listings, x)].Flags; gotX.Flags != want {
							t.Fatalf("%s: the lied-about relay gets flags %v, the honest votes give it %v", what, gotX.Flags, want)
						}
						if _, hasY := consensusEntry(c, r.relays[y].Identity); hasY != (k >= max(n/2, 1)) {
							t.Fatalf("%s: a relay only %d liars list is in the consensus: %v", what, k, hasY)
						}
					}
				}
			}
		}
	}
}

// targets picks the relays the liars of TestAggregateLawsUnderLyingVotes lie
// about: x, the first that every view lists and measures with the same flags,
// short of every flag; and y, the next that every view lists.
func targets(views []View, every relay.Flags) (x, y int32) {
	x, y = -1, -1
	for i := range views[0].Listings {
		idx := views[0].Listings[i].Index
		alike, measured := true, true
		for _, v := range views {
			at := listingOf(v.Listings, idx)
			if at < 0 {
				alike = false
				break
			}
			alike = alike && v.Listings[at].Flags == views[0].Listings[i].Flags
			measured = measured && v.Listings[at].HasMeasured
		}
		switch {
		case !alike:
		case x < 0 && measured && views[0].Listings[i].Flags != every:
			x = idx
		case x >= 0:
			return x, idx
		}
	}
	panic("vote: no relay every view lists alike")
}

// listingOf is the position of roster relay idx among ls, sorted by index, or
// -1 if ls does not list it.
func listingOf(ls []relay.Listing, idx int32) int {
	at, ok := slices.BinarySearchFunc(ls, idx, func(l relay.Listing, idx int32) int { return int(l.Index - idx) })
	if !ok {
		return -1
	}
	return at
}

// consensusEntry is c's entry of the relay with identity id, if it lists one.
func consensusEntry(c *Consensus, id relay.Identity) (ConsensusRelay, bool) {
	for _, e := range c.Relays {
		if c.roster.relays[e.Index].Identity == id {
			return e, true
		}
	}
	return ConsensusRelay{}, false
}
