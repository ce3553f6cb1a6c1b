package vote

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"sync"

	"partialtor/internal/relay"
	"partialtor/internal/sig"
)

// Roster is the population a set of votes lists relays from: the relays, and
// each relay's entry lines that no vote changes, rendered once. A built
// roster holds its relays in identity order, so roster index order is
// identity order; a parsed vote's or consensus's roster holds the relays in
// the order the document listed them. A roster is read-only once built, and
// shared by every vote and consensus over it.
type Roster struct {
	relays []relay.Descriptor
	// text holds each relay's own lines back to back: "r <nickname>
	// <identity> <digest> <address> <ORPort> <DirPort>\ns ", then its
	// advertised bandwidth.
	text []byte
	// shared holds each distinct segment relays have in common once:
	// "\nv Tor <version>\npr <protocols>\nw Bandwidth=", and "\np <exit
	// policy>\n". A synthetic population has a dozen of the one and five of
	// the other.
	shared  []string
	records []record
	// ordered reports that identities strictly ascend with the index: every
	// built roster, and a parsed one that happens to list its relays so.
	ordered bool
}

// record is where one relay's lines are: text[start:bandwidth] is its r line
// through "\ns ", the digest the 41 bytes before address, and
// text[bandwidth:end] its advertised bandwidth; shared[middle] and
// shared[policy] are its common segments. A vote entry puts its flags before
// middle and its measurement after the bandwidth; a consensus entry drops
// the digest and puts its own bandwidth in place of the advertised one.
type record struct {
	start, address, bandwidth, end uint32
	middle, policy                 uint32
}

// digestField is the digest's share of an r line: 40 hex digits and a space.
const digestField = 2*sig.FingerprintSize + 1

// recordBound bounds a record's bytes beyond its nickname and address: "r "
// and the nickname's space, identity and digest with theirs, two ports with
// theirs, "\ns " and a bandwidth.
const recordBound = 3 + 2*digestField + 2*6 + 3 + 20

// newRoster renders relays' shared lines. It keeps relays.
func newRoster(relays []relay.Descriptor) *Roster {
	r := &Roster{relays: relays, records: make([]record, len(relays)), ordered: true}
	index := make(map[string]uint32)
	intern := func(seg []byte) uint32 {
		k, ok := index[string(seg)]
		if !ok {
			k = uint32(len(r.shared))
			r.shared = append(r.shared, string(seg))
			index[string(seg)] = k
		}
		return k
	}
	size := 0 // the arena is made once, at a bound of its size
	for i := range relays {
		size += len(relays[i].Nickname) + len(relays[i].Address) + recordBound
	}
	b := make([]byte, 0, size)
	var seg []byte
	for i := range relays {
		d, rec := &relays[i], &r.records[i]
		r.ordered = r.ordered && (i == 0 || bytes.Compare(relays[i-1].Identity[:], d.Identity[:]) < 0)
		rec.start = uint32(len(b))
		b = append(b, "r "...)
		b = append(b, d.Nickname...)
		b = append(b, ' ')
		b = d.Identity.AppendTo(b)
		b = append(b, ' ')
		b = d.Digest.AppendTo(b)
		b = append(b, ' ')
		rec.address = uint32(len(b))
		b = append(b, d.Address...)
		b = append(b, ' ')
		b = strconv.AppendUint(b, uint64(d.ORPort), 10)
		b = append(b, ' ')
		b = strconv.AppendUint(b, uint64(d.DirPort), 10)
		b = append(b, "\ns "...)
		rec.bandwidth = uint32(len(b))
		b = strconv.AppendUint(b, d.Bandwidth, 10)
		rec.end = uint32(len(b))
		if len(b) > math.MaxUint32 {
			panic(fmt.Sprintf("vote: a roster of %d relays renders past 4 GiB", len(relays)))
		}
		seg = append(seg[:0], "\nv Tor "...)
		seg = append(seg, d.Version...)
		seg = append(seg, "\npr "...)
		seg = append(seg, d.Protocols...)
		seg = append(seg, "\nw Bandwidth="...)
		rec.middle = intern(seg)
		seg = append(seg[:0], "\np "...)
		seg = append(seg, d.ExitPolicy...)
		seg = append(seg, '\n')
		rec.policy = intern(seg)
	}
	r.text = b
	return r
}

// View is one authority's list of the relays it knows: listings of a roster's
// relays, in the order the vote lists them. It is read-only once its vote is
// built.
type View struct {
	Roster   *Roster
	Listings []relay.Listing
}

// oneVote is the view of a parsed document: a roster of the relays it lists,
// in its order, and one listing of each.
func oneVote(relays []relay.Descriptor) View {
	v := View{Roster: newRoster(relays), Listings: make([]relay.Listing, len(relays))}
	for i := range relays {
		d := &relays[i]
		v.Listings[i] = relay.Listing{Index: int32(i), Flags: d.Flags, HasMeasured: d.HasMeasured, Measured: d.Measured}
	}
	return v
}

// appendEntry appends the vote entry of listing l, filled out to paddedLen by
// a filler line.
//
//detlint:hotpath
func (r *Roster) appendEntry(b []byte, l *relay.Listing, pad int) []byte {
	start := len(b)
	rec := &r.records[l.Index]
	b = append(b, r.text[rec.start:rec.bandwidth]...)
	b = l.Flags.AppendTo(b)
	b = append(b, r.shared[rec.middle]...)
	b = append(b, r.text[rec.bandwidth:rec.end]...)
	if l.HasMeasured {
		b = append(b, " Measured="...)
		b = strconv.AppendUint(b, l.Measured, 10)
	}
	b = append(b, r.shared[rec.policy]...)
	n := len(b) - start
	if fill := paddedLen(n, pad) - n; fill > 0 {
		b = append(b, "pad "...)
		for fill -= len("pad \n"); fill > 0; fill -= len(filler) {
			b = append(b, filler[:min(fill, len(filler))]...)
		}
		b = append(b, '\n')
	}
	return b
}

// appendConsensusEntry appends the consensus entry of e: a vote entry without
// the descriptor digest, the measurement and the padding, with e's flags and
// bandwidth.
//
//detlint:hotpath
func (r *Roster) appendConsensusEntry(b []byte, e *ConsensusRelay) []byte {
	rec := &r.records[e.Index]
	b = append(b, r.text[rec.start:rec.address-digestField]...)
	b = append(b, r.text[rec.address:rec.bandwidth]...)
	b = e.Flags.AppendTo(b)
	b = append(b, r.shared[rec.middle]...)
	b = strconv.AppendUint(b, e.Bandwidth, 10)
	return append(b, r.shared[rec.policy]...)
}

// Views lists n authorities' views of one synthetic population of the given
// size and seed: view i is relay.View(…, i, seed) over the population's one
// roster, in identity order, built on min(GOMAXPROCS, n) goroutines.
func Views(n, relays int, seed int64) []View {
	pop := relay.Population(relays, seed)
	order, rank := relay.IdentityOrder(pop)
	sorted := make([]relay.Descriptor, len(pop))
	for k, i := range order {
		sorted[k] = pop[i]
	}
	roster := newRoster(sorted)
	views := make([]View, n)
	eachAuthority(n, func(i int) { views[i] = View{Roster: roster, Listings: relay.View(pop, rank, i, seed)} })
	return views
}

// Votes seals authority i's vote over views[i], under relay.AuthorityNames[i]
// ("auth<i>" past them) and key i's fingerprint, at epoch 1 and the given
// entry padding, on min(GOMAXPROCS, len(keys)) goroutines, and links the
// votes to one consensus memo (Share). Any number of vote sets share views.
func Votes(keys []*sig.KeyPair, views []View, padding int) []*Document {
	docs := make([]*Document, len(keys))
	eachAuthority(len(keys), func(i int) {
		name := fmt.Sprintf("auth%d", i)
		if i < len(relay.AuthorityNames) {
			name = relay.AuthorityNames[i]
		}
		docs[i] = &Document{AuthorityIndex: i, AuthorityName: name, Fingerprint: keys[i].Fingerprint, ValidAfter: 1, EntryPadding: padding, Relays: views[i]}
		docs[i].seal()
	})
	Share(docs)
	return docs
}

// eachAuthority calls f(i) for each i < n on min(GOMAXPROCS, n) goroutines.
func eachAuthority(n int, f func(i int)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < n; i += workers {
				f(i)
			}
		}()
	}
	wg.Wait()
}
