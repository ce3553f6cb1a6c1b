// Package relay models Tor relays as seen by directory authorities: relay
// descriptors with flags, versions, exit policies and bandwidths;
// deterministic synthetic relay populations and their identity order;
// per-authority perturbed views (each authority knows a slightly different
// subset with slightly different flags and measurements, which is what makes
// vote aggregation meaningful); and a Tor-Metrics-style relay-count time
// series (paper Figure 6).
//
// A view does not copy descriptors. It is a list of Listings, one per relay
// the authority knows, each the relay's rank in the population's identity
// order plus its flags and measurement: the only fields views disagree on.
// Everything else stays with the one population every view indexes.
package relay

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"

	"partialtor/internal/sig"
)

// Flags are the router status flags assigned by authorities (dir-spec §3.4).
type Flags uint16

// Router status flags. The subset modelled here is the one the consensus
// algorithm in the paper's Figure 2 votes on.
const (
	FlagRunning Flags = 1 << iota
	FlagValid
	FlagFast
	FlagStable
	FlagGuard
	FlagExit
	FlagHSDir
	FlagV2Dir

	flagCount = 8
)

var flagNames = [flagCount]string{
	"Running", "Valid", "Fast", "Stable", "Guard",
	"Exit", "HSDir", "V2Dir",
}

// AllFlags lists every individual flag in canonical order.
func AllFlags() []Flags {
	out := make([]Flags, flagCount)
	for i := range out {
		out[i] = 1 << i
	}
	return out
}

// Has reports whether all bits in q are set.
func (f Flags) Has(q Flags) bool { return f&q == q }

// AppendTo appends the set flags in Tor's "s" line order (alphabetical here,
// matching the canonical names' order of declaration), space-separated. Bits
// past the last flag are not rendered.
//
//detlint:hotpath
func (f Flags) AppendTo(dst []byte) []byte {
	return append(dst, flagText[f&(1<<flagCount-1)]...)
}

// flagText is every combination of flags rendered once: an entry's s line is
// one copy.
var flagText = func() (text [1 << flagCount]string) {
	for f := range text {
		text[f] = string(Flags(f).appendNames(nil))
	}
	return text
}()

// appendNames is AppendTo spelled out, which flagText is built with.
func (f Flags) appendNames(dst []byte) []byte {
	sep := false
	for i := 0; i < flagCount; i++ {
		if f&(1<<i) == 0 {
			continue
		}
		if sep {
			dst = append(dst, ' ')
		}
		dst = append(dst, flagNames[i]...)
		sep = true
	}
	return dst
}

// String is AppendTo as a string.
func (f Flags) String() string { return string(f.AppendTo(make([]byte, 0, 48))) }

// ParseFlags inverts String.
func ParseFlags(s string) (Flags, error) {
	var f Flags
	if s == "" {
		return 0, nil
	}
	for _, name := range strings.Fields(s) {
		found := false
		for i, n := range flagNames {
			if n == name {
				f |= 1 << i
				found = true
				break
			}
		}
		if !found {
			return 0, fmt.Errorf("relay: unknown flag %q", name)
		}
	}
	return f, nil
}

// Identity is a relay's 20-byte fingerprint: the authority fingerprint's
// type, so both render by one rule (AppendTo, String: 40 upper-case hex
// characters).
type Identity = sig.Fingerprint

// Descriptor is one relay entry as it appears in an authority's status vote.
type Descriptor struct {
	Nickname    string
	Identity    Identity
	Digest      Identity // descriptor digest (opaque here)
	Address     string
	ORPort      uint16
	DirPort     uint16
	Flags       Flags
	Version     string // e.g. "0.4.8.10"
	Protocols   string // e.g. "Cons=1-2 Desc=1-2 Link=1-5"
	Bandwidth   uint64 // relay-advertised, in kB/s
	HasMeasured bool
	Measured    uint64 // bwauth-measured, in kB/s
	ExitPolicy  string // policy summary, e.g. "accept 80,443"
}

var versionPool = []string{
	"0.4.7.16", "0.4.8.9", "0.4.8.10", "0.4.8.11", "0.4.8.12", "0.4.9.1",
}

var exitPolicyPool = []string{
	"reject 1-65535",
	"accept 80,443",
	"accept 22,80,443",
	"accept 20-23,43,53,79-81,443",
	"accept 443",
}

var protocolPool = []string{
	"Cons=1-2 Desc=1-2 DirCache=2 Link=1-5 Relay=1-4",
	"Cons=1-2 Desc=1-2 DirCache=2 Link=4-5 Relay=3-4",
}

// Population deterministically generates n synthetic relays. Proportions of
// flags, versions and bandwidths loosely follow the live network so that
// vote documents carry realistic structure. Identities are SHA-256 digests
// of (seed, index), distinct in every population, so IdentityOrder is total.
func Population(n int, seed int64) []Descriptor {
	rng := rand.New(rand.NewSource(seed ^ 0x52454c4159)) // "RELAY"
	out := make([]Descriptor, n)
	var in [16]byte
	binary.BigEndian.PutUint64(in[:8], uint64(seed))
	var names [32]byte
	for i := range out {
		var id Identity
		binary.BigEndian.PutUint64(in[8:], uint64(i))
		material := sha256.Sum256(in[:])
		copy(id[:], material[:20])
		var digest Identity
		material2 := sha256.Sum256(material[:])
		copy(digest[:], material2[:20])

		flags := FlagRunning | FlagValid
		if rng.Float64() < 0.85 {
			flags |= FlagFast
		}
		if rng.Float64() < 0.55 {
			flags |= FlagStable
		}
		if flags.Has(FlagFast|FlagStable) && rng.Float64() < 0.55 {
			flags |= FlagGuard
		}
		if rng.Float64() < 0.18 {
			flags |= FlagExit
		}
		if rng.Float64() < 0.30 {
			flags |= FlagHSDir
		}
		if rng.Float64() < 0.50 {
			flags |= FlagV2Dir
		}

		bw := uint64(100 + float64(rng.ExpFloat64()*8000))
		policy := exitPolicyPool[0]
		if flags.Has(FlagExit) {
			policy = exitPolicyPool[1+rng.Intn(len(exitPolicyPool)-1)]
		}
		// Nickname and address share one string: one allocation per relay.
		b := appendNickname(names[:0], i)
		nick := len(b)
		both := string(appendAddress(b, i))
		out[i] = Descriptor{
			Nickname:    both[:nick],
			Identity:    id,
			Digest:      digest,
			Address:     both[nick:],
			ORPort:      9001,
			DirPort:     9030,
			Flags:       flags,
			Version:     versionPool[rng.Intn(len(versionPool))],
			Protocols:   protocolPool[rng.Intn(len(protocolPool))],
			Bandwidth:   bw,
			HasMeasured: rng.Float64() < 0.9,
			Measured:    uint64(float64(float64(bw) * (0.8 + float64(rng.Float64()*0.4)))),
			ExitPolicy:  policy,
		}
	}
	return out
}

// appendNickname appends relay i's nickname, fmt's "relay%06d".
func appendNickname(b []byte, i int) []byte {
	b = append(b, "relay"...)
	for d := 100000; d > 1 && i < d; d /= 10 {
		b = append(b, '0')
	}
	return strconv.AppendInt(b, int64(i), 10)
}

// appendAddress appends relay i's address, fmt's "10.%d.%d.%d" of its low
// three bytes.
func appendAddress(b []byte, i int) []byte {
	b = append(b, "10."...)
	b = strconv.AppendInt(b, int64((i>>16)&0xff), 10)
	b = append(b, '.')
	b = strconv.AppendInt(b, int64((i>>8)&0xff), 10)
	b = append(b, '.')
	return strconv.AppendInt(b, int64(i&0xff), 10)
}

// IdentityOrder returns the indices of pop in fingerprint order, the order
// votes list relays in, and each relay's rank in that order
// (rank[order[k]] == k). Both are computed once per population: a roster
// lists its relays in order, and every View of the population places each
// listing at its rank.
func IdentityOrder(pop []Descriptor) (order, rank []int32) {
	order = make([]int32, len(pop))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int {
		return bytes.Compare(pop[a].Identity[:], pop[b].Identity[:])
	})
	rank = make([]int32, len(pop))
	for k, i := range order {
		rank[i] = int32(k)
	}
	return order, rank
}

// Listing is one relay as one authority's view lists it: the relay's rank in
// its population's identity order, and what authorities disagree on, its
// flags and its measurement. Everything else about the relay is the
// population's, the same in every view.
type Listing struct {
	Measured    uint64 // bwauth-measured, in kB/s; 0 unless HasMeasured
	Index       int32  // rank in IdentityOrder of the population
	Flags       Flags
	HasMeasured bool
}

// How an authority's view of the population is perturbed relative to
// ground truth: the mild disagreement between live authorities.
const (
	viewDropRate      = 0.01 // probability a relay is missing from the view
	viewFlagFlipRate  = 0.02 // probability one votable flag is toggled
	viewMeasureJitter = 0.10 // relative jitter applied to Measured
	viewMeasureRate   = 0.85 // probability this authority measured the relay
)

// votable are the flags a view may toggle.
var votable = [...]Flags{FlagFast, FlagStable, FlagGuard, FlagExit, FlagHSDir, FlagV2Dir}

// View derives authority `auth`'s perturbed listing of the population, in
// identity order: rank is IdentityOrder(pop)'s. It draws its random numbers
// walking pop in population order and writes each relay's listing at its
// rank, so the shared order only decides where each listing lands, and no
// view sorts. A view allocates its listings, 16 bytes a relay, and its
// random source.
func View(pop []Descriptor, rank []int32, auth int, seed int64) []Listing {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(auth)))
	out := make([]Listing, len(pop))
	for i := range pop {
		d := &pop[i]
		at := &out[rank[i]]
		if rng.Float64() < viewDropRate {
			at.Index = -1 // not listed
			continue
		}
		l := Listing{Index: rank[i], Flags: d.Flags}
		if rng.Float64() < viewFlagFlipRate {
			l.Flags ^= votable[rng.Intn(len(votable))]
		}
		if rng.Float64() < viewMeasureRate {
			l.HasMeasured = true
			// Float64 inlines a product, which the doubling would fuse with.
			j := 1 + float64((float64(rng.Float64())*2-1)*viewMeasureJitter)
			l.Measured = max(uint64(float64(float64(d.Measured)*j)), 1)
		}
		*at = l
	}
	listed := out[:0]
	for _, l := range out {
		if l.Index >= 0 {
			listed = append(listed, l)
		}
	}
	return listed
}

// CompareVersions compares dotted numeric Tor versions ("0.4.8.10"). It
// returns -1, 0 or 1. Non-numeric components compare as strings, matching
// the "largest version wins" tie-break of the aggregation algorithm.
func CompareVersions(a, b string) int {
	as, bs := strings.Split(a, "."), strings.Split(b, ".")
	for i := 0; i < len(as) || i < len(bs); i++ {
		var ac, bc string
		if i < len(as) {
			ac = as[i]
		}
		if i < len(bs) {
			bc = bs[i]
		}
		ai, aerr := strconv.Atoi(ac)
		bi, berr := strconv.Atoi(bc)
		switch {
		case aerr == nil && berr == nil:
			if ai != bi {
				if ai < bi {
					return -1
				}
				return 1
			}
		default:
			if ac != bc {
				if ac < bc {
					return -1
				}
				return 1
			}
		}
	}
	return 0
}

// AuthorityNames are the nicknames of the nine live directory authorities
// (as of the paper's writing), used for realistic logs and documents.
var AuthorityNames = []string{
	"moria1", "tor26", "dizum", "gabelmoo", "dannenberg",
	"maatuska", "faravahar", "longclaw", "bastet",
}
