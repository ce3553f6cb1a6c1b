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

// ConsensusRelay is one relay entry of the aggregated consensus document: a
// relay of the consensus's roster, which names it and gives its version,
// protocols and exit policy, and the flags and bandwidth the votes agreed on.
type ConsensusRelay struct {
	Bandwidth uint64
	Index     int32 // into the consensus's roster
	Flags     relay.Flags
}

// Consensus is the aggregated consensus document.
type Consensus struct {
	ValidAfter       uint64
	NumVotes         int
	TotalAuthorities int
	Voters           []int // authority indices whose votes were aggregated
	Relays           []ConsensusRelay

	roster *Roster    // what Relays index; the votes' own when they share one
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
	for i, v := range ordered {
		c.Voters[i] = v.AuthorityIndex
	}
	if r := sharedRoster(ordered); r != nil {
		c.roster = r
		c.Relays = aggregateIndices(ordered, r, threshold)
	} else {
		c.roster, c.Relays = aggregateIdentities(ordered, threshold)
	}
	return c, nil
}

// sharedRoster returns the roster every vote lists from, if there is one, it
// is ordered and every vote lists each of its relays once, in index order:
// then index order is identity order, and the merge may compare indices.
func sharedRoster(votes []*Document) *Roster {
	r := votes[0].Relays.Roster
	if r == nil || !r.ordered {
		return nil
	}
	for _, v := range votes {
		if v.Relays.Roster != r {
			return nil
		}
		ls := v.Relays.Listings
		for i := 1; i < len(ls); i++ {
			if ls[i-1].Index >= ls[i].Index {
				return nil
			}
		}
	}
	return r
}

// aggregateIndices is Aggregate over votes listing from one ordered roster r,
// by ascending authority index: a k-way merge on roster indices. Every
// listing of a relay is of the same roster relay, so its name, version,
// protocols, exit policy and advertised bandwidth are the roster's, and
// only flags and measurements are voted on. Two walks over the same merge:
// one to count the relays that make the threshold, so the result is
// allocated once at its final size, one to aggregate them.
func aggregateIndices(votes []*Document, r *Roster, threshold int) []ConsensusRelay {
	n := len(votes)
	lists := make([][]relay.Listing, n)
	for i, v := range votes {
		lists[i] = v.Relays.Listings
	}
	m := indexMerge{
		lists:   append([][]relay.Listing(nil), lists...),
		entries: make([]*relay.Listing, 0, n),
	}
	included := 0
	for m.next() {
		if len(m.entries) >= threshold {
			included++
		}
	}
	if included == 0 {
		return nil // as ParseConsensus leaves it for an empty document
	}
	m.lists = lists
	out := make([]ConsensusRelay, 0, included)
	values := make([]uint64, 0, n)
	for m.next() {
		if len(m.entries) < threshold {
			continue
		}
		bw, ok := measuredMedian(m.entries, values)
		if !ok {
			bw = r.relays[m.index].Bandwidth
		}
		out = append(out, ConsensusRelay{Index: m.index, Flags: popularFlags(m.entries), Bandwidth: bw})
	}
	return out
}

// indexMerge is a k-way merge over views of one ordered roster: each next
// gathers the listings of the smallest roster index not yet seen.
type indexMerge struct {
	lists   [][]relay.Listing // per vote by ascending authority index; consumed from the front
	entries []*relay.Listing  // the current relay's listings, by authority index
	index   int32             // its roster index
}

// next advances to the next relay, reporting false once the votes are
// exhausted.
func (m *indexMerge) next() bool {
	least := int32(-1)
	for _, l := range m.lists {
		if len(l) > 0 && (least < 0 || l[0].Index < least) {
			least = l[0].Index
		}
	}
	if least < 0 {
		return false
	}
	m.entries = m.entries[:0]
	for i, l := range m.lists {
		if len(l) > 0 && l[0].Index == least {
			m.entries = append(m.entries, &l[0])
			m.lists[i] = l[1:]
		}
	}
	m.index = least
	return true
}

// popularFlags sets each flag a strict majority of the listings set: the
// popular vote, with a tie leaving the flag unset.
func popularFlags(entries []*relay.Listing) relay.Flags {
	var out relay.Flags
	for _, f := range allFlags {
		set := 0
		for _, e := range entries {
			if e.Flags.Has(f) {
				set++
			}
		}
		if 2*set > len(entries) {
			out |= f
		}
	}
	return out
}

// measuredMedian is the low median of the listings' measurements, as Tor
// computes it, reporting false if none measured the relay. values is
// scratch.
func measuredMedian(entries []*relay.Listing, values []uint64) (uint64, bool) {
	values = values[:0]
	for _, e := range entries {
		if e.HasMeasured {
			values = append(values, e.Measured)
		}
	}
	return lowMedian(values), len(values) > 0
}

// aggregateIdentities is Aggregate over votes that do not share an ordered
// roster: a k-way merge on identities over each vote's relays in identity
// order. The consensus gets a roster of its own, of the relays it lists.
func aggregateIdentities(votes []*Document, threshold int) (*Roster, []ConsensusRelay) {
	n := len(votes)
	lists := make([][]listed, n)
	for i, v := range votes {
		lists[i] = identityOrder(v.Relays)
	}
	// Two walks over the same merge, as in aggregateIndices.
	m := merge{
		lists:    append([][]listed(nil), lists...),
		entries:  make([]listed, 0, n),
		listings: make([]*relay.Listing, 0, n),
		values:   make([]uint64, 0, n),
	}
	included := 0
	for m.next() {
		if len(m.entries) >= threshold {
			included++
		}
	}
	if included == 0 {
		return nil, nil
	}
	m.lists = lists
	relays := make([]relay.Descriptor, 0, included)
	out := make([]ConsensusRelay, 0, included)
	for m.next() {
		if len(m.entries) >= threshold {
			d := m.aggregate()
			out = append(out, ConsensusRelay{Index: int32(len(relays)), Flags: d.Flags, Bandwidth: d.Bandwidth})
			relays = append(relays, d)
		}
	}
	return newRoster(relays), out
}

// listed is one vote's listing of a relay, with the roster relay it lists.
type listed struct {
	d *relay.Descriptor
	l *relay.Listing
}

// identityOrder pairs a vote's listings with their relays, in identity
// order, entries of one identity in vote order. A view Views builds is
// already sorted (dir-spec vote order); Parse enforces neither that nor
// uniqueness, so a vote out of order is sorted here and the merge takes
// repeats as they come.
func identityOrder(v View) []listed {
	out := make([]listed, len(v.Listings))
	sorted := true
	for i := range v.Listings {
		l := &v.Listings[i]
		out[i] = listed{&v.Roster.relays[l.Index], l}
		sorted = sorted && (i == 0 || bytes.Compare(out[i-1].d.Identity[:], out[i].d.Identity[:]) <= 0)
	}
	if !sorted {
		sort.SliceStable(out, func(i, j int) bool { return bytes.Compare(out[i].d.Identity[:], out[j].d.Identity[:]) < 0 })
	}
	return out
}

// merge is a k-way merge over votes in identity order: each next gathers the
// entries of the smallest identity not yet seen, pointing into the votes.
type merge struct {
	lists    [][]listed        // per vote by ascending authority index, each in identityOrder; consumed from the front
	entries  []listed          // the current relay, one entry per listing, by authority index
	namer    *relay.Descriptor // its relay in the vote with the largest authority index
	listings []*relay.Listing  // scratch: the entries' listings
	values   []uint64          // scratch for the bandwidth median
}

// next advances to the next identity, reporting false once the votes are
// exhausted.
func (m *merge) next() bool {
	var least *relay.Identity
	for _, l := range m.lists {
		if len(l) > 0 && (least == nil || bytes.Compare(l[0].d.Identity[:], least[:]) < 0) {
			least = &l[0].d.Identity
		}
	}
	if least == nil {
		return false
	}
	id := *least
	m.entries = m.entries[:0]
	for i, l := range m.lists {
		if len(l) == 0 || l[0].d.Identity != id {
			continue
		}
		m.namer = l[0].d
		for len(l) > 0 && l[0].d.Identity == id {
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

// aggregate applies the per-relay rules of Figure 2 to the current relay,
// returning its consensus entry as a descriptor: the consensus roster's relay,
// with the aggregated flags and bandwidth.
func (m *merge) aggregate() relay.Descriptor {
	entries := m.entries
	// Name (and endpoint) from the vote with the largest authority ID.
	out := relay.Descriptor{
		Nickname: m.namer.Nickname,
		Identity: m.namer.Identity,
		Address:  m.namer.Address,
		ORPort:   m.namer.ORPort,
		DirPort:  m.namer.DirPort,
	}

	m.listings = m.listings[:0]
	for _, e := range entries {
		m.listings = append(m.listings, e.l)
	}
	out.Flags = popularFlags(m.listings)

	// Version, protocols, exit policy: popular vote; ties broken by the
	// largest version / largest protocol string / lexicographically larger
	// policy. Votes of one population share their relays' versions, and
	// aggregateIndices takes them from the roster; this merge meets them
	// only in parsed votes or votes of different populations, which need the
	// tie-break (dir-spec: the largest version wins a tie) to produce Tor's
	// consensus.
	out.Version = popular(entries, func(d *relay.Descriptor) string { return d.Version },
		func(a, b string) bool { return relay.CompareVersions(a, b) > 0 })
	out.Protocols = popular(entries, func(d *relay.Descriptor) string { return d.Protocols },
		func(a, b string) bool { return a > b })
	out.ExitPolicy = popular(entries, func(d *relay.Descriptor) string { return d.ExitPolicy },
		func(a, b string) bool { return a > b })

	// Bandwidth: median of the votes that measured the relay (low median,
	// as Tor computes it); fall back to the median of advertised values.
	var ok bool
	if out.Bandwidth, ok = measuredMedian(m.listings, m.values); !ok {
		m.values = m.values[:0]
		for _, e := range entries {
			m.values = append(m.values, e.d.Bandwidth)
		}
		out.Bandwidth = lowMedian(m.values)
	}
	return out
}

// popular returns the most frequent value; among equally frequent values the
// one for which better(a, b) holds over all others wins. A relay has at most
// a handful of entries, so values are counted by scanning, not in a map.
func popular(entries []listed, get func(*relay.Descriptor) string, better func(a, b string) bool) string {
	best, bestCount := "", 0
next:
	for i, e := range entries {
		v := get(e.d)
		for _, earlier := range entries[:i] {
			if get(earlier.d) == v {
				continue next // counted when first met
			}
		}
		count := 1
		for _, later := range entries[i+1:] {
			if get(later.d) == v {
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
		b = c.roster.appendConsensusEntry(b, &c.Relays[i])
	}
	return append(b, footer...)
}

// seal fixes the consensus's size and digest on first use by streaming its
// encoding through SHA-256: a consensus is not padded, so what it hashes is
// what Encode renders. Its entries are rendered by the roster's
// appendConsensusEntry, as Encode renders them, into one scratch buffer, hashed and reused whenever it fills past
// sealChunk.
func (c *Consensus) seal() {
	if c.size != 0 {
		return
	}
	h := sha256.New()
	b := c.appendHeader(make([]byte, 0, 2*sealChunk))
	var size int64
	for i := range c.Relays {
		b = c.roster.appendConsensusEntry(b, &c.Relays[i])
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

// EncodedSize returns the consensus wire size in bytes.
func (c *Consensus) EncodedSize() int64 { c.seal(); return c.size }

// Digest returns the SHA-256 digest of the encoded consensus; this is what
// authorities sign.
func (c *Consensus) Digest() sig.Digest { c.seal(); return c.digest }
