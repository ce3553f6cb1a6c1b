package vote

import (
	"bytes"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"partialtor/internal/relay"
	"partialtor/internal/sig"
)

// ConsensusRelay is one relay entry of the aggregated consensus document.
type ConsensusRelay struct {
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
	VoteCount  int // how many votes listed this relay
}

// Consensus is the aggregated consensus document.
type Consensus struct {
	ValidAfter       uint64
	NumVotes         int
	TotalAuthorities int
	Voters           []int // authority indices whose votes were aggregated
	Relays           []ConsensusRelay

	encoded []byte
	digest  sig.Digest // of encoded, fixed with it
}

// Aggregate combines status votes into a consensus document following the
// paper's Figure 2. votes must be non-empty and from distinct authorities;
// totalAuthorities is the size of the authority set (9 for Tor).
func Aggregate(votes []*Document, totalAuthorities int) (*Consensus, error) {
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
		for i := range v.Relays {
			r := &v.Relays[i]
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

	c := &Consensus{
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
		c.Relays = append(c.Relays, aggregateRelay(id, s.entries, s.voters))
	}
	return c, nil
}

// Aggregator is Aggregate memoised for one run (see the package comment):
// authorities holding the same vote set share one document, hashed once.
type Aggregator map[string]*Consensus

// Aggregate is Aggregate(votes, totalAuthorities) once per distinct vote set; errors are not stored.
func (g Aggregator) Aggregate(votes []*Document, totalAuthorities int) (*Consensus, error) {
	digests := make([]string, len(votes))
	for i, v := range votes {
		var dg sig.Digest // stays zero for a nil vote, which Aggregate rejects
		if v != nil {
			dg = v.Digest()
		}
		digests[i] = string(dg[:])
	}
	sort.Strings(digests)
	key := strconv.Itoa(totalAuthorities) + strings.Join(digests, "")
	if g[key] == nil {
		c, err := Aggregate(votes, totalAuthorities)
		if err != nil {
			return nil, err
		}
		g[key] = c
	}
	return g[key], nil
}

// aggregateRelay applies the per-relay rules of Figure 2.
func aggregateRelay(id relay.Identity, entries []relay.Descriptor, voters []int) ConsensusRelay {
	// Name (and endpoint) from the vote with the largest authority ID.
	maxAt := 0
	for i, v := range voters {
		if v > voters[maxAt] {
			maxAt = i
		}
	}
	namer := entries[maxAt]

	out := ConsensusRelay{
		Nickname:  namer.Nickname,
		Identity:  id,
		Address:   namer.Address,
		ORPort:    namer.ORPort,
		DirPort:   namer.DirPort,
		VoteCount: len(entries),
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
	out.Version = popular(entries, func(e relay.Descriptor) string { return e.Version },
		func(a, b string) bool { return relay.CompareVersions(a, b) > 0 })
	out.Protocols = popular(entries, func(e relay.Descriptor) string { return e.Protocols },
		func(a, b string) bool { return a > b })
	out.ExitPolicy = popular(entries, func(e relay.Descriptor) string { return e.ExitPolicy },
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
	out.Bandwidth = lowMedian(meas)
	return out
}

// popular returns the most frequent value; among equally frequent values the
// one for which better(a, b) holds over all others wins.
func popular(entries []relay.Descriptor, get func(relay.Descriptor) string, better func(a, b string) bool) string {
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

// lowMedian returns the lower median, matching Tor's bandwidth aggregation.
func lowMedian(vals []uint64) uint64 {
	if len(vals) == 0 {
		return 0
	}
	sorted := make([]uint64, len(vals))
	copy(sorted, vals)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[(len(sorted)-1)/2]
}

// Encode renders the consensus document.
func (c *Consensus) Encode() []byte {
	if c.encoded != nil {
		return c.encoded
	}
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
	c.encoded, c.digest = b.Bytes(), sig.Hash(b.Bytes())
	return c.encoded
}

// EncodedSize returns the consensus wire size in bytes.
func (c *Consensus) EncodedSize() int64 { return int64(len(c.Encode())) }

// Digest returns the SHA-256 digest of the encoded consensus; this is what
// authorities sign.
func (c *Consensus) Digest() sig.Digest { c.Encode(); return c.digest }
