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
	"sort"
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
	cur := dirv3.Collect(curAuths, cfgCur)

	digests := map[string][]int{}
	for i, d := range cur.Digests {
		if !d.IsZero() {
			digests[d.Short()] = append(digests[d.Short()], i)
		}
	}
	fmt.Println("current protocol (dirv3):")
	shorts := make([]string, 0, len(digests))
	for d := range digests {
		shorts = append(shorts, d)
	}
	sort.Strings(shorts)
	for _, d := range shorts {
		fmt.Printf("  consensus %s… computed by authorities %v\n", d, digests[d])
	}
	fmt.Printf("  => %d distinct consensus documents; %d of %d authorities published\n",
		len(digests), cur.SuccessCount, n)
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
	res := core.Collect(icpsAuths, cfgICPS, func(i int) bool { return i != evil })

	fmt.Println("ICPS (this paper):")
	v := icpsAuths[0].Decided()
	fmt.Printf("  agreed vector: %d OK entries; entry %d = %v\n",
		v.OKCount(), evil, v.Entries[evil].Status)
	uniq := map[string]bool{}
	for i, d := range res.ConsDigest {
		if i != evil && !d.IsZero() {
			uniq[d.Short()] = true
		}
	}
	fmt.Printf("  => %d distinct consensus document(s) among correct authorities; all %d published: %v\n",
		len(uniq), n-1, res.Success)
	fmt.Println()
	fmt.Println("The equivocation proof (two digests signed by authority 3) travels inside")
	fmt.Println("the agreed value, so every correct authority excludes the same vote and")
	fmt.Println("signs the same consensus document.")
}
