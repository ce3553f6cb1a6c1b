// Package vote implements Tor status vote documents and the consensus
// aggregation algorithm of the directory protocol (paper Figure 2).
//
// A vote is an authority's signed list of the relays it knows, rendered in
// a dir-spec-like text format so that document size grows linearly with the
// number of relays — the property every experiment in the paper depends on.
// Aggregate combines votes into a consensus document: a relay is included
// when it appears in at least ⌊n/2⌋ votes; its name comes from the vote with
// the largest authority ID; flags follow the popular vote with ties unset;
// the largest version/protocol and the lexicographically larger exit policy
// win ties; and bandwidth is the median of the measuring votes.
//
// Documents are frozen once built. A vote is sealed on first use: Digest or
// EncodedSize streams its encoding through SHA-256 one entry at a time and
// keeps only the size and digest, so a cached vote costs its relay view and
// not the ~2.5 kB per relay its bytes would. Encode renders those bytes afresh
// on every call; a consensus's Encode renders once and caches them. Both size
// the document first and append it into one buffer of exactly that length —
// no fmt, no growth. Aggregate walks the votes, which list relays in identity
// order, as a k-way merge of pointers into them: nothing is copied or indexed
// per relay. An Aggregator memoises Aggregate for one run, keyed by the
// authority count and the sorted vote digests (a digest covers its vote's
// authority index). It is run-scoped and lock-free: a run is one goroutine,
// and no Aggregator is shared between concurrent runs or sweep cells nor
// outlives its run.
package vote

import (
	"crypto/sha256"
	"fmt"
	"strconv"
	"strings"

	"partialtor/internal/relay"
	"partialtor/internal/sig"
)

// DefaultEntryPadding is the calibrated per-relay entry size in bytes.
//
// Live vote entries are a few hundred bytes, but the paper's measured
// thresholds (≈10 Mbit/s needed at 8000 relays, Figure 7; current-protocol
// failure between 9000 and 10000 relays at 10 Mbit/s, Figure 10) imply an
// effective transport cost of ≈2.5 kB per relay once HTTP/TLS framing,
// compression inefficiency and retransmission under load are folded in.
// We calibrate the document format to that effective size instead of
// simulating TCP; harness.AblationEntrySize shows what depends on the choice:
// the failure threshold scales inversely with the entry size, the shape of
// the results does not move.
const DefaultEntryPadding = 2500

// Document is one authority's status vote.
type Document struct {
	AuthorityIndex int
	AuthorityName  string
	Fingerprint    sig.Fingerprint
	ValidAfter     uint64 // vote epoch (hours)
	EntryPadding   int    // pad each relay entry to this many bytes; 0 = natural size
	Relays         []relay.Descriptor

	size   int64      // of the encoding; 0 until sealed
	digest sig.Digest // of the encoding, fixed with size
}

// NewDocument builds a vote for an authority over its relay view.
func NewDocument(authorityIndex int, name string, fp sig.Fingerprint, epoch uint64, relays []relay.Descriptor) *Document {
	return &Document{
		AuthorityIndex: authorityIndex,
		AuthorityName:  name,
		Fingerprint:    fp,
		ValidAfter:     epoch,
		EntryPadding:   DefaultEntryPadding,
		Relays:         relays,
	}
}

// Encode renders the vote in its text format, into a fresh buffer on every
// call: a run needs only the size and digest the seal keeps, so nothing keeps
// the bytes.
func (d *Document) Encode() []byte {
	var scratch [128]byte
	header := d.appendHeader(scratch[:0])
	size := len(header) + len(footer)
	for i := range d.Relays {
		size += entrySize(&d.Relays[i], d.EntryPadding)
	}
	b := append(make([]byte, 0, size), header...)
	for i := range d.Relays {
		b = appendEntry(b, &d.Relays[i], d.EntryPadding)
	}
	return append(b, footer...)
}

// seal fixes the vote's size and digest on first use by streaming its
// encoding through SHA-256 one entry at a time, in one scratch buffer reused
// across entries: votes are immutable once built.
func (d *Document) seal() {
	if d.size != 0 {
		return
	}
	h := sha256.New()
	b := d.appendHeader(make([]byte, 0, 4<<10))
	var size int64
	for i := range d.Relays {
		b = appendEntry(b, &d.Relays[i], d.EntryPadding)
		h.Write(b)
		size += int64(len(b))
		b = b[:0]
	}
	b = append(b, footer...)
	h.Write(b)
	d.size = size + int64(len(b))
	h.Sum(d.digest[:0])
}

const footer = "directory-footer\n"

func (d *Document) appendHeader(b []byte) []byte {
	b = append(b, "network-status-version 3\nvote-status vote\nvalid-after "...)
	b = strconv.AppendUint(b, d.ValidAfter, 10)
	b = append(b, "\nentry-padding "...)
	b = strconv.AppendInt(b, int64(d.EntryPadding), 10)
	b = append(b, "\ndir-source "...)
	b = append(b, d.AuthorityName...)
	b = append(b, ' ')
	b = d.Fingerprint.AppendTo(b)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(d.AuthorityIndex), 10)
	return append(b, '\n')
}

// filler is what "pad" lines are cut from: one copy per entry at any padding
// up to its length, a short loop beyond.
var filler = strings.Repeat("x", 2*DefaultEntryPadding)

// minPadLine is len("pad x\n"), the shortest filler line there is: an entry
// within that of its padding cannot be brought to it exactly and stays as is.
const minPadLine = 6

// appendEntry appends one relay entry, filled out to pad bytes when pad > 0
// and the entry leaves room for a filler line.
//
//detlint:hotpath
func appendEntry(b []byte, r *relay.Descriptor, pad int) []byte {
	start := len(b)
	b = append(b, "r "...)
	b = append(b, r.Nickname...)
	b = append(b, ' ')
	b = r.Identity.AppendTo(b)
	b = append(b, ' ')
	b = r.Digest.AppendTo(b)
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
	if r.HasMeasured {
		b = append(b, " Measured="...)
		b = strconv.AppendUint(b, r.Measured, 10)
	}
	b = append(b, "\np "...)
	b = append(b, r.ExitPolicy...)
	b = append(b, '\n')
	// pad > 0 first: a parsed padding may be negative enough for fill to wrap.
	if fill := pad - (len(b) - start) - minPadLine + 1; pad > 0 && fill > 0 {
		b = append(b, "pad "...)
		for fill > 0 {
			n := min(fill, len(filler))
			b = append(b, filler[:n]...)
			fill -= n
		}
		b = append(b, '\n')
	}
	return b
}

// entrySize is len(appendEntry(nil, r, pad)), computed without formatting.
func entrySize(r *relay.Descriptor, pad int) int {
	n := len("r ") + len(r.Nickname) + 1 + 2*len(r.Identity) + 1 + 2*len(r.Digest) + 1 + len(r.Address) +
		1 + decimalLen(uint64(r.ORPort)) + 1 + decimalLen(uint64(r.DirPort)) +
		len("\ns ") + r.Flags.EncodedLen() +
		len("\nv Tor ") + len(r.Version) +
		len("\npr ") + len(r.Protocols) +
		len("\nw Bandwidth=") + decimalLen(r.Bandwidth) +
		len("\np ") + len(r.ExitPolicy) + 1
	if r.HasMeasured {
		n += len(" Measured=") + decimalLen(r.Measured)
	}
	if n+minPadLine <= pad {
		return pad
	}
	return n
}

// decimalLen is len(strconv.AppendUint(nil, v, 10)).
func decimalLen(v uint64) int {
	n := 1
	for ; v >= 10; v /= 10 {
		n++
	}
	return n
}

// EncodedSize returns the vote's wire size in bytes.
func (d *Document) EncodedSize() int64 { d.seal(); return d.size }

// Digest returns the SHA-256 digest of the encoded vote.
func (d *Document) Digest() sig.Digest { d.seal(); return d.digest }

// Parse inverts Encode.
func Parse(data []byte) (*Document, error) {
	d := &Document{}
	var cur *relay.Descriptor
	flush := func() {
		if cur != nil {
			d.Relays = append(d.Relays, *cur)
			cur = nil
		}
	}
	sawFooter := false
	sawSource := false
	for lineNo, line := range strings.Split(string(data), "\n") {
		if line == "" {
			continue
		}
		key, rest, _ := strings.Cut(line, " ")
		fail := func(why string) error {
			return fmt.Errorf("vote: line %d (%q): %s", lineNo+1, key, why)
		}
		switch key {
		case "network-status-version":
			if rest != "3" {
				return nil, fail("unsupported version")
			}
		case "vote-status":
			if rest != "vote" {
				return nil, fail("not a vote")
			}
		case "valid-after":
			v, err := strconv.ParseUint(rest, 10, 64)
			if err != nil {
				return nil, fail(err.Error())
			}
			d.ValidAfter = v
		case "entry-padding":
			v, err := strconv.Atoi(rest)
			if err != nil {
				return nil, fail(err.Error())
			}
			d.EntryPadding = v
		case "dir-source":
			f := strings.Fields(rest)
			if len(f) != 3 {
				return nil, fail("want 3 fields")
			}
			d.AuthorityName = f[0]
			if err := parseHex20(f[1], d.Fingerprint[:]); err != nil {
				return nil, fail(err.Error())
			}
			idx, err := strconv.Atoi(f[2])
			if err != nil {
				return nil, fail(err.Error())
			}
			d.AuthorityIndex = idx
			sawSource = true
		case "r":
			flush()
			f := strings.Fields(rest)
			if len(f) != 6 {
				return nil, fail("want 6 fields")
			}
			cur = &relay.Descriptor{Nickname: f[0], Address: f[3]}
			if err := parseHex20(f[1], cur.Identity[:]); err != nil {
				return nil, fail(err.Error())
			}
			if err := parseHex20(f[2], cur.Digest[:]); err != nil {
				return nil, fail(err.Error())
			}
			or, err := strconv.ParseUint(f[4], 10, 16)
			if err != nil {
				return nil, fail(err.Error())
			}
			dir, err := strconv.ParseUint(f[5], 10, 16)
			if err != nil {
				return nil, fail(err.Error())
			}
			cur.ORPort, cur.DirPort = uint16(or), uint16(dir)
		case "s":
			if cur == nil {
				return nil, fail("flags before relay")
			}
			fl, err := relay.ParseFlags(rest)
			if err != nil {
				return nil, fail(err.Error())
			}
			cur.Flags = fl
		case "v":
			if cur == nil {
				return nil, fail("version before relay")
			}
			cur.Version = strings.TrimPrefix(rest, "Tor ")
		case "pr":
			if cur == nil {
				return nil, fail("protocols before relay")
			}
			cur.Protocols = rest
		case "w":
			if cur == nil {
				return nil, fail("bandwidth before relay")
			}
			for _, kv := range strings.Fields(rest) {
				k, v, ok := strings.Cut(kv, "=")
				if !ok {
					return nil, fail("malformed w item")
				}
				n, err := strconv.ParseUint(v, 10, 64)
				if err != nil {
					return nil, fail(err.Error())
				}
				switch k {
				case "Bandwidth":
					cur.Bandwidth = n
				case "Measured":
					cur.HasMeasured = true
					cur.Measured = n
				}
			}
		case "p":
			if cur == nil {
				return nil, fail("policy before relay")
			}
			cur.ExitPolicy = rest
		case "pad":
			// filler; ignored
		case "directory-footer":
			flush()
			sawFooter = true
		default:
			return nil, fail("unknown keyword")
		}
	}
	if !sawFooter {
		return nil, fmt.Errorf("vote: missing directory-footer")
	}
	if !sawSource {
		return nil, fmt.Errorf("vote: missing dir-source")
	}
	return d, nil
}

func parseHex20(s string, dst []byte) error {
	if len(s) != 40 {
		return fmt.Errorf("want 40 hex chars, got %d", len(s))
	}
	for i := 0; i < 20; i++ {
		hi, ok1 := hexVal(s[2*i])
		lo, ok2 := hexVal(s[2*i+1])
		if !ok1 || !ok2 {
			return fmt.Errorf("bad hex at %d", 2*i)
		}
		dst[i] = hi<<4 | lo
	}
	return nil
}

func hexVal(c byte) (byte, bool) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', true
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10, true
	case c >= 'A' && c <= 'F':
		return c - 'A' + 10, true
	}
	return 0, false
}
