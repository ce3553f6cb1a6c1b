package vote

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"

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
}

// Consensus is the aggregated consensus document.
type Consensus struct {
	ValidAfter       uint64
	NumVotes         int
	TotalAuthorities int
	Voters           []int // authority indices whose votes were aggregated
	Relays           []ConsensusRelay

	size   int64      // of the encoding; 0 until sealed
	digest sig.Digest // of the encoding, fixed with size
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

	c := &Consensus{
		ValidAfter:       ordered[0].ValidAfter,
		NumVotes:         n,
		TotalAuthorities: totalAuthorities,
		Voters:           make([]int, n),
	}
	lists := make([][]*relay.Descriptor, n)
	for i, v := range ordered {
		c.Voters[i] = v.AuthorityIndex
		lists[i] = identityOrder(v.Relays)
	}

	// Two walks over the same merge: one to count the relays that make the
	// threshold, so c.Relays is allocated once at its final size, one to
	// aggregate them.
	m := merge{
		lists:   append([][]*relay.Descriptor(nil), lists...),
		entries: make([]*relay.Descriptor, 0, n),
		values:  make([]uint64, 0, n),
	}
	included := 0
	for m.next() {
		if len(m.entries) >= threshold {
			included++
		}
	}
	if included == 0 {
		return c, nil // Relays stays nil, as ParseConsensus leaves it for an empty document
	}
	m.lists = lists
	c.Relays = make([]ConsensusRelay, 0, included)
	for m.next() {
		if len(m.entries) >= threshold {
			c.Relays = append(c.Relays, m.aggregate())
		}
	}
	return c, nil
}

// identityOrder indexes a vote's entries in identity order, entries of one
// identity in vote order. Votes built from relay.View are already sorted
// (dir-spec vote order); Parse enforces neither that nor uniqueness, so a
// vote out of order is sorted here and the merge takes repeats as they come.
func identityOrder(relays []relay.Descriptor) []*relay.Descriptor {
	out := make([]*relay.Descriptor, len(relays))
	sorted := true
	for i := range relays {
		out[i] = &relays[i]
		sorted = sorted && (i == 0 || bytes.Compare(relays[i-1].Identity[:], relays[i].Identity[:]) <= 0)
	}
	if !sorted {
		sort.SliceStable(out, func(i, j int) bool { return bytes.Compare(out[i].Identity[:], out[j].Identity[:]) < 0 })
	}
	return out
}

// merge is a k-way merge over votes in identity order: each next gathers the
// entries of the smallest identity not yet seen, pointing into the votes.
type merge struct {
	lists   [][]*relay.Descriptor // per vote by ascending authority index, each in identityOrder; consumed from the front
	entries []*relay.Descriptor   // the current relay, one entry per listing, by authority index
	namer   *relay.Descriptor     // its entry in the vote with the largest authority index
	values  []uint64              // scratch for the bandwidth median
}

// next advances to the next identity, reporting false once the votes are
// exhausted.
func (m *merge) next() bool {
	var least *relay.Identity
	for _, l := range m.lists {
		if len(l) > 0 && (least == nil || bytes.Compare(l[0].Identity[:], least[:]) < 0) {
			least = &l[0].Identity
		}
	}
	if least == nil {
		return false
	}
	id := *least
	m.entries = m.entries[:0]
	for i, l := range m.lists {
		if len(l) == 0 || l[0].Identity != id {
			continue
		}
		m.namer = l[0]
		for len(l) > 0 && l[0].Identity == id {
			m.entries = append(m.entries, l[0])
			l = l[1:]
		}
		m.lists[i] = l
	}
	return true
}

// memo is Aggregate memoised for the votes Share links to it (see the package
// comment): one sync.OnceValues per vote set's key. It is safe for concurrent
// use.
type memo struct {
	mu   sync.Mutex
	sets map[string]func() (*Consensus, error)
}

// Share seals docs and links them to one fresh memo, which AggregateShared
// consults for every vote set holding one of them. Call it once, before docs
// are handed to anyone.
func Share(docs []*Document) {
	m := &memo{sets: make(map[string]func() (*Consensus, error))}
	for _, d := range docs {
		d.seal()
		d.memo = m
	}
}

// AggregateShared is Aggregate(votes, totalAuthorities) once per distinct vote
// set, through the memo of the linked vote with the smallest authority index,
// so a mixed set (an equivocator's second vote among an entry's) resolves to
// one memo whatever order it arrives in; a set with no linked vote is
// aggregated afresh. The shared document is sealed before anyone gets it, and
// must not be changed.
func AggregateShared(votes []*Document, totalAuthorities int) (*Consensus, error) {
	var first *Document
	for _, v := range votes {
		if v != nil && v.memo != nil && (first == nil || v.AuthorityIndex < first.AuthorityIndex) {
			first = v
		}
	}
	if first == nil {
		return Aggregate(votes, totalAuthorities)
	}
	m := first.memo
	digests := make([]sig.Digest, len(votes))
	for i, v := range votes {
		if v != nil { // a nil vote keeps the zero digest; Aggregate rejects it
			digests[i] = v.Digest()
		}
	}
	slices.SortFunc(digests, func(a, b sig.Digest) int { return bytes.Compare(a[:], b[:]) })
	key := strconv.AppendInt(make([]byte, 0, 20+len(digests)*sig.DigestSize), int64(totalAuthorities), 10)
	for _, dg := range digests {
		key = append(key, dg[:]...)
	}
	m.mu.Lock()
	aggregate := m.sets[string(key)]
	if aggregate == nil {
		aggregate = sync.OnceValues(func() (*Consensus, error) {
			c, err := Aggregate(votes, totalAuthorities)
			if err == nil {
				c.seal()
			}
			return c, err
		})
		m.sets[string(key)] = aggregate
	}
	m.mu.Unlock()
	c, err := aggregate()
	if err != nil { // a rejected set is not kept: it is rejected afresh each time
		m.mu.Lock()
		delete(m.sets, string(key))
		m.mu.Unlock()
	}
	return c, err
}

var allFlags = relay.AllFlags()

// aggregate applies the per-relay rules of Figure 2 to the current relay.
func (m *merge) aggregate() ConsensusRelay {
	entries := m.entries
	// Name (and endpoint) from the vote with the largest authority ID.
	out := ConsensusRelay{
		Nickname: m.namer.Nickname,
		Identity: m.namer.Identity,
		Address:  m.namer.Address,
		ORPort:   m.namer.ORPort,
		DirPort:  m.namer.DirPort,
	}

	// Flags: popular vote among listing votes; a tie leaves the flag unset.
	for _, f := range allFlags {
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
	// policy. No synthetic population reaches the version tie-break:
	// relay.View copies each relay's version into every authority's view, so
	// the listing votes agree and popular returns on the outright majority.
	// It stays because it is the aggregation rule (dir-spec: the largest
	// version wins a tie), and a parsed vote or a population whose views
	// disagree on a version would need it to produce Tor's consensus.
	out.Version = popular(entries, func(e *relay.Descriptor) string { return e.Version },
		func(a, b string) bool { return relay.CompareVersions(a, b) > 0 })
	out.Protocols = popular(entries, func(e *relay.Descriptor) string { return e.Protocols },
		func(a, b string) bool { return a > b })
	out.ExitPolicy = popular(entries, func(e *relay.Descriptor) string { return e.ExitPolicy },
		func(a, b string) bool { return a > b })

	// Bandwidth: median of the votes that measured the relay (low median,
	// as Tor computes it); fall back to the median of advertised values.
	m.values = m.values[:0]
	for _, e := range entries {
		if e.HasMeasured {
			m.values = append(m.values, e.Measured)
		}
	}
	if len(m.values) == 0 {
		for _, e := range entries {
			m.values = append(m.values, e.Bandwidth)
		}
	}
	out.Bandwidth = lowMedian(m.values)
	return out
}

// popular returns the most frequent value; among equally frequent values the
// one for which better(a, b) holds over all others wins. A relay has at most
// a handful of entries, so values are counted by scanning, not in a map.
func popular(entries []*relay.Descriptor, get func(*relay.Descriptor) string, better func(a, b string) bool) string {
	best, bestCount := "", 0
next:
	for i, e := range entries {
		v := get(e)
		for _, earlier := range entries[:i] {
			if get(earlier) == v {
				continue next // counted when first met
			}
		}
		count := 1
		for _, later := range entries[i+1:] {
			if get(later) == v {
				count++
			}
		}
		switch {
		case 2*count > len(entries):
			return v // an outright majority: nothing can tie it
		case count > bestCount, count == bestCount && better(v, best):
			best, bestCount = v, count
		}
	}
	return best
}

// lowMedian returns the lower median, matching Tor's bandwidth aggregation.
// It sorts vals in place.
func lowMedian(vals []uint64) uint64 {
	if len(vals) == 0 {
		return 0
	}
	slices.Sort(vals)
	return vals[(len(vals)-1)/2]
}

// Encode renders the consensus document into a fresh buffer of exactly
// EncodedSize bytes on every call, as a vote's Encode does: a shared
// consensus has no field that is written after it is sealed.
func (c *Consensus) Encode() []byte {
	b := c.appendHeader(make([]byte, 0, c.EncodedSize()))
	for i := range c.Relays {
		b = c.Relays[i].appendTo(b)
	}
	return append(b, footer...)
}

// seal fixes the consensus's size and digest on first use by streaming its
// encoding through SHA-256: a consensus is not padded, so what it hashes is
// what Encode renders. Its entries are rendered by the appendTo call Encode
// makes into one scratch buffer, hashed and reused whenever it fills past
// sealChunk.
func (c *Consensus) seal() {
	if c.size != 0 {
		return
	}
	h := sha256.New()
	b := c.appendHeader(make([]byte, 0, 2*sealChunk))
	var size int64
	for i := range c.Relays {
		b = c.Relays[i].appendTo(b)
		if len(b) >= sealChunk {
			h.Write(b)
			size += int64(len(b))
			b = b[:0]
		}
	}
	b = append(b, footer...)
	h.Write(b)
	c.size = size + int64(len(b))
	h.Sum(c.digest[:0])
}

func (c *Consensus) appendHeader(b []byte) []byte {
	b = append(b, "network-status-version 3\nvote-status consensus\nvalid-after "...)
	b = strconv.AppendUint(b, c.ValidAfter, 10)
	b = append(b, "\nnum-votes "...)
	b = strconv.AppendInt(b, int64(c.NumVotes), 10)
	b = append(b, " of "...)
	b = strconv.AppendInt(b, int64(c.TotalAuthorities), 10)
	b = append(b, "\nvoters"...)
	for _, v := range c.Voters {
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return append(b, '\n')
}

// appendTo appends the relay's consensus entry: a vote entry without the
// descriptor digest, the measurement and the padding.
//
//detlint:hotpath
func (r *ConsensusRelay) appendTo(b []byte) []byte {
	b = append(b, "r "...)
	b = append(b, r.Nickname...)
	b = append(b, ' ')
	b = r.Identity.AppendTo(b)
	b = append(b, ' ')
	b = append(b, r.Address...)
	b = append(b, ' ')
	b = strconv.AppendUint(b, uint64(r.ORPort), 10)
	b = append(b, ' ')
	b = strconv.AppendUint(b, uint64(r.DirPort), 10)
	b = append(b, "\ns "...)
	b = r.Flags.AppendTo(b)
	b = append(b, "\nv Tor "...)
	b = append(b, r.Version...)
	b = append(b, "\npr "...)
	b = append(b, r.Protocols...)
	b = append(b, "\nw Bandwidth="...)
	b = strconv.AppendUint(b, r.Bandwidth, 10)
	b = append(b, "\np "...)
	b = append(b, r.ExitPolicy...)
	return append(b, '\n')
}

// EncodedSize returns the consensus wire size in bytes.
func (c *Consensus) EncodedSize() int64 { c.seal(); return c.size }

// Digest returns the SHA-256 digest of the encoded consensus; this is what
// authorities sign.
func (c *Consensus) Digest() sig.Digest { c.seal(); return c.digest }
