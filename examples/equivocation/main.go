// Equivocation demo (Luo et al.'s attack, paper §2.2): a Byzantine
// authority sends different votes to different peers.
//
//   - Under the current protocol the authority set splits into camps that
//     aggregate different consensus documents — the equivocation attack
//     that motivated Luo et al.'s fix.
//   - Under the paper's ICPS protocol the leader assembles an equivocation
//     proof (two digests signed by the same authority); the entry becomes
//     ⊥ and every correct authority signs the same consensus, which simply
//     excludes the equivocator's vote.
package main

import (
	"fmt"
	"maps"
	"os"
	"slices"
	"time"

	"partialtor/internal/core"
	"partialtor/internal/dirv3"
	"partialtor/internal/sig"
	"partialtor/internal/simnet"
	"partialtor/internal/vote"
)

const n = 9

func buildDocs(seed int64, relays int) ([]*sig.KeyPair, []*vote.Document) {
	keys := sig.Authorities(seed, n)
	return keys, vote.Votes(keys, vote.Views(n, relays, seed), 0)
}

func buildNet(seed int64) (*simnet.Network, []*simnet.Profile, []*simnet.Profile) {
	net := simnet.New(simnet.Config{Seed: seed, Overhead: 128})
	var ups, downs []*simnet.Profile
	for i := 0; i < n; i++ {
		ups = append(ups, simnet.NewProfile(250e6))
		downs = append(downs, simnet.NewProfile(250e6))
	}
	return net, ups, downs
}

func main() {
	const evil = 3
	keys, docs := buildDocs(11, 300)
	_, altDocs := buildDocs(99, 200) // the equivocator's second vote

	fmt.Println("== equivocation by authority 3 ==")
	fmt.Println()

	// --- current protocol: consensus splits -----------------------------
	cfgCur := dirv3.Config{
		Keys: keys, Docs: docs,
		Round:        20 * time.Second,
		Equivocators: map[int]*vote.Document{evil: altDocs[evil]},
	}
	net, ups, downs := buildNet(1)
	curAuths := dirv3.NewAuthorities(cfgCur)
	for i, a := range curAuths {
		net.AddNode(a, ups[i], downs[i])
	}
	net.Run(cfgCur.EndTime() + time.Second)
	curCamps, curPublished := camps(curAuths, -1)

	fmt.Println("current protocol (dirv3):")
	for _, d := range slices.Sorted(maps.Keys(curCamps)) {
		fmt.Printf("  consensus %s… computed by authorities %v\n", d, curCamps[d])
	}
	fmt.Printf("  => %d distinct consensus documents; %d of %d authorities published\n",
		len(curCamps), curPublished, n)
	fmt.Println()

	// --- ICPS: equivocator excluded with proof --------------------------
	cfgICPS := core.Config{
		Keys: keys, Docs: docs,
		Delta:        5 * time.Second,
		BaseTimeout:  10 * time.Second,
		Equivocators: map[int]*vote.Document{evil: altDocs[evil]},
	}
	net2, ups2, downs2 := buildNet(2)
	icpsAuths := core.NewAuthorities(cfgICPS)
	for i, a := range icpsAuths {
		net2.AddNode(a, ups2[i], downs2[i])
	}
	net2.Run(10 * time.Minute)
	icpsCamps, icpsPublished := camps(icpsAuths, evil)

	fmt.Println("ICPS (this paper):")
	v := icpsAuths[0].Decided()
	fmt.Printf("  agreed vector: %d OK entries; entry %d = %v\n",
		v.OKCount(), evil, v.Entries[evil].Status)
	fmt.Printf("  => %d distinct consensus document(s) among correct authorities; all %d published: %v\n",
		len(icpsCamps), n-1, icpsPublished == n-1)
	fmt.Println()
	fmt.Println("The equivocation proof (two digests signed by authority 3) travels inside")
	fmt.Println("the agreed value, so every correct authority excludes the same vote and")
	fmt.Println("signs the same consensus document.")

	if len(curCamps) < 2 || len(icpsCamps) != 1 || icpsPublished != n-1 {
		fmt.Fprintln(os.Stderr, "equivocation: the demo's claim failed: Current must split into camps, and every correct ICPS authority must publish one document")
		os.Exit(1)
	}
}

// camps groups the authorities but skip by the digest of the consensus each
// aggregated, and counts those of them that published.
func camps[A interface {
	Record() (*vote.Consensus, int, bool, time.Duration)
}](auths []A, skip int) (map[string][]int, int) {
	byDigest, published := map[string][]int{}, 0
	for i, a := range auths {
		if i == skip {
			continue
		}
		cons, _, ok, _ := a.Record()
		if cons != nil {
			d := cons.Digest().Short()
			byDigest[d] = append(byDigest[d], i)
		}
		if ok {
			published++
		}
	}
	return byDigest, published
}
