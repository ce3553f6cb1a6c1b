package vote

// The encoders and the aggregation core as they were before the append
// encoder and the merge replaced them, bodies verbatim but for reading a vote's
// relays as materialised descriptors (relaysOf) and returning the consensus
// as the flat referenceConsensus it then was: fmt.Fprintf into a growing
// bytes.Buffer, and one map slot of copied descriptors per relay. They are the
// oracle the tests in oracle_test.go hold the new code to, byte for byte.

import (
	"bytes"
	"fmt"
	"sort"

	"partialtor/internal/relay"
)

func referenceEncode(d *Document) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "network-status-version 3\n")
	fmt.Fprintf(&b, "vote-status vote\n")
	fmt.Fprintf(&b, "valid-after %d\n", d.ValidAfter)
	fmt.Fprintf(&b, "entry-padding %d\n", d.EntryPadding)
	fmt.Fprintf(&b, "dir-source %s %s %d\n", d.AuthorityName, d.Fingerprint, d.AuthorityIndex)
	relays := relaysOf(d.Relays)
	for i := range relays {
		referenceEncodeEntry(&b, &relays[i], d.EntryPadding)
	}
	fmt.Fprintf(&b, "directory-footer\n")
	return b.Bytes()
}

func referenceEncodeEntry(b *bytes.Buffer, r *relay.Descriptor, pad int) {
	start := b.Len()
	fmt.Fprintf(b, "r %s %s %s %s %d %d\n",
		r.Nickname, r.Identity, r.Digest, r.Address, r.ORPort, r.DirPort)
	fmt.Fprintf(b, "s %s\n", r.Flags)
	fmt.Fprintf(b, "v Tor %s\n", r.Version)
	fmt.Fprintf(b, "pr %s\n", r.Protocols)
	if r.HasMeasured {
		fmt.Fprintf(b, "w Bandwidth=%d Measured=%d\n", r.Bandwidth, r.Measured)
	} else {
		fmt.Fprintf(b, "w Bandwidth=%d\n", r.Bandwidth)
	}
	fmt.Fprintf(b, "p %s\n", r.ExitPolicy)
	if pad > 0 {
		used := b.Len() - start
		// "pad <filler>\n" consumes the remaining budget exactly when
		// possible (needs at least len("pad x\n") spare bytes).
		if need := pad - used - 6; need >= 0 {
			b.WriteString("pad ")
			for i := 0; i < need+1; i++ {
				b.WriteByte('x')
			}
			b.WriteByte('\n')
		}
	}
}

// referenceRelay and referenceConsensus are the consensus as it was: every
// field of an entry copied out of the votes.
type referenceRelay struct {
	Nickname   string
	Identity   relay.Identity
	Address    string
	ORPort     uint16
	DirPort    uint16
	Flags      relay.Flags
	Version    string
	Protocols  string
	ExitPolicy string
	Bandwidth  uint64
}

type referenceConsensus struct {
	ValidAfter       uint64
	NumVotes         int
	TotalAuthorities int
	Voters           []int
	Relays           []referenceRelay
}

// relaysOf materialises a view: each listed relay's roster descriptor with the
// listing's flags and measurement.
func relaysOf(v View) []relay.Descriptor {
	if len(v.Listings) == 0 {
		return nil
	}
	out := make([]relay.Descriptor, len(v.Listings))
	for i, l := range v.Listings {
		out[i] = v.Roster.relays[l.Index]
		out[i].Flags, out[i].HasMeasured, out[i].Measured = l.Flags, l.HasMeasured, l.Measured
	}
	return out
}

// flatten is c as a referenceConsensus: each entry's roster relay with its
// aggregated flags and bandwidth.
func flatten(c *Consensus) *referenceConsensus {
	out := &referenceConsensus{ValidAfter: c.ValidAfter, NumVotes: c.NumVotes, TotalAuthorities: c.TotalAuthorities, Voters: c.Voters}
	for _, e := range c.Relays {
		d := &c.roster.relays[e.Index]
		out.Relays = append(out.Relays, referenceRelay{Nickname: d.Nickname, Identity: d.Identity, Address: d.Address,
			ORPort: d.ORPort, DirPort: d.DirPort, Flags: e.Flags, Version: d.Version, Protocols: d.Protocols,
			ExitPolicy: d.ExitPolicy, Bandwidth: e.Bandwidth})
	}
	return out
}

func referenceConsensusEncode(c *referenceConsensus) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "network-status-version 3\n")
	fmt.Fprintf(&b, "vote-status consensus\n")
	fmt.Fprintf(&b, "valid-after %d\n", c.ValidAfter)
	fmt.Fprintf(&b, "num-votes %d of %d\n", c.NumVotes, c.TotalAuthorities)
	fmt.Fprintf(&b, "voters")
	for _, v := range c.Voters {
		fmt.Fprintf(&b, " %d", v)
	}
	b.WriteByte('\n')
	for i := range c.Relays {
		r := &c.Relays[i]
		fmt.Fprintf(&b, "r %s %s %s %d %d\n", r.Nickname, r.Identity, r.Address, r.ORPort, r.DirPort)
		fmt.Fprintf(&b, "s %s\n", r.Flags)
		fmt.Fprintf(&b, "v Tor %s\n", r.Version)
		fmt.Fprintf(&b, "pr %s\n", r.Protocols)
		fmt.Fprintf(&b, "w Bandwidth=%d\n", r.Bandwidth)
		fmt.Fprintf(&b, "p %s\n", r.ExitPolicy)
	}
	fmt.Fprintf(&b, "directory-footer\n")
	return b.Bytes()
}

func referenceAggregate(votes []*Document, totalAuthorities int) (*referenceConsensus, error) {
	if len(votes) == 0 {
		return nil, fmt.Errorf("vote: aggregate of zero votes")
	}
	seen := make(map[int]bool, len(votes))
	for _, v := range votes {
		if v == nil {
			return nil, fmt.Errorf("vote: nil vote document")
		}
		if seen[v.AuthorityIndex] {
			return nil, fmt.Errorf("vote: duplicate vote from authority %d", v.AuthorityIndex)
		}
		seen[v.AuthorityIndex] = true
	}
	// Deterministic processing order regardless of input order.
	ordered := make([]*Document, len(votes))
	copy(ordered, votes)
	sort.Slice(ordered, func(i, j int) bool {
		return ordered[i].AuthorityIndex < ordered[j].AuthorityIndex
	})

	n := len(ordered)
	threshold := n / 2 // "at least ⌊n/2⌋ votes" (Figure 2)
	if threshold < 1 {
		threshold = 1
	}

	type slot struct {
		entries []relay.Descriptor // one per vote listing the relay
		voters  []int              // authority indices, aligned with entries
	}
	byID := make(map[relay.Identity]*slot)
	var order []relay.Identity
	for _, v := range ordered {
		relays := relaysOf(v.Relays)
		for i := range relays {
			r := &relays[i]
			s, ok := byID[r.Identity]
			if !ok {
				s = &slot{}
				byID[r.Identity] = s
				order = append(order, r.Identity)
			}
			s.entries = append(s.entries, *r)
			s.voters = append(s.voters, v.AuthorityIndex)
		}
	}
	sort.Slice(order, func(i, j int) bool { return bytes.Compare(order[i][:], order[j][:]) < 0 })

	c := &referenceConsensus{
		ValidAfter:       ordered[0].ValidAfter,
		NumVotes:         n,
		TotalAuthorities: totalAuthorities,
	}
	for _, v := range ordered {
		c.Voters = append(c.Voters, v.AuthorityIndex)
	}
	for _, id := range order {
		s := byID[id]
		if len(s.entries) < threshold {
			continue
		}
		c.Relays = append(c.Relays, referenceAggregateRelay(id, s.entries, s.voters))
	}
	return c, nil
}

// referenceAggregateRelay applies the per-relay rules of Figure 2.
func referenceAggregateRelay(id relay.Identity, entries []relay.Descriptor, voters []int) referenceRelay {
	// Name (and endpoint) from the vote with the largest authority ID.
	maxAt := 0
	for i, v := range voters {
		if v > voters[maxAt] {
			maxAt = i
		}
	}
	namer := entries[maxAt]

	out := referenceRelay{
		Nickname: namer.Nickname,
		Identity: id,
		Address:  namer.Address,
		ORPort:   namer.ORPort,
		DirPort:  namer.DirPort,
	}

	// Flags: popular vote among listing votes; a tie leaves the flag unset.
	for _, f := range relay.AllFlags() {
		set := 0
		for _, e := range entries {
			if e.Flags.Has(f) {
				set++
			}
		}
		if 2*set > len(entries) {
			out.Flags |= f
		}
	}

	// Version, protocols, exit policy: popular vote; ties broken by the
	// largest version / largest protocol string / lexicographically larger
	// policy.
	out.Version = referencePopular(entries, func(e relay.Descriptor) string { return e.Version },
		func(a, b string) bool { return relay.CompareVersions(a, b) > 0 })
	out.Protocols = referencePopular(entries, func(e relay.Descriptor) string { return e.Protocols },
		func(a, b string) bool { return a > b })
	out.ExitPolicy = referencePopular(entries, func(e relay.Descriptor) string { return e.ExitPolicy },
		func(a, b string) bool { return a > b })

	// Bandwidth: median of the votes that measured the relay (low median,
	// as Tor computes it); fall back to the median of advertised values.
	var meas []uint64
	for _, e := range entries {
		if e.HasMeasured {
			meas = append(meas, e.Measured)
		}
	}
	if len(meas) == 0 {
		for _, e := range entries {
			meas = append(meas, e.Bandwidth)
		}
	}
	out.Bandwidth = referenceLowMedian(meas)
	return out
}

// referencePopular returns the most frequent value; among equally frequent
// values the one for which better(a, b) holds over all others wins.
func referencePopular(entries []relay.Descriptor, get func(relay.Descriptor) string, better func(a, b string) bool) string {
	counts := make(map[string]int)
	for _, e := range entries {
		counts[get(e)]++
	}
	best, bestCount := "", -1
	//detlint:maporder ok(argmax with a strict total-order tie-break: better() decides every equal count, so all orders converge)
	for v, c := range counts {
		switch {
		case c > bestCount:
			best, bestCount = v, c
		case c == bestCount && better(v, best):
			best = v
		}
	}
	return best
}

// referenceLowMedian returns the lower median, matching Tor's bandwidth
// aggregation.
func referenceLowMedian(vals []uint64) uint64 {
	if len(vals) == 0 {
		return 0
	}
	sorted := make([]uint64, len(vals))
	copy(sorted, vals)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[(len(sorted)-1)/2]
}
