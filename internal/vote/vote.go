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
// Documents are frozen once built: Encode fixes their bytes and digest. An
// Aggregator memoises Aggregate for one run, keyed by the authority count and
// the sorted vote digests (a digest covers its vote's authority index). It is
// run-scoped and lock-free: a run is one goroutine, and no Aggregator is
// shared between concurrent runs or sweep cells nor outlives its run.
package vote

import (
	"bytes"
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

	encoded []byte     // cache
	digest  sig.Digest // of encoded, fixed with it
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

// Encode renders the vote in its text format. The result is cached, and its
// digest fixed, on first use: votes are immutable once built.
func (d *Document) Encode() []byte {
	if d.encoded != nil {
		return d.encoded
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "network-status-version 3\n")
	fmt.Fprintf(&b, "vote-status vote\n")
	fmt.Fprintf(&b, "valid-after %d\n", d.ValidAfter)
	fmt.Fprintf(&b, "entry-padding %d\n", d.EntryPadding)
	fmt.Fprintf(&b, "dir-source %s %s %d\n", d.AuthorityName, d.Fingerprint, d.AuthorityIndex)
	for i := range d.Relays {
		encodeEntry(&b, &d.Relays[i], d.EntryPadding)
	}
	fmt.Fprintf(&b, "directory-footer\n")
	d.encoded, d.digest = b.Bytes(), sig.Hash(b.Bytes())
	return d.encoded
}

func encodeEntry(b *bytes.Buffer, r *relay.Descriptor, pad int) {
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

// EncodedSize returns the vote's wire size in bytes.
func (d *Document) EncodedSize() int64 { return int64(len(d.Encode())) }

// Digest returns the SHA-256 digest of the encoded vote.
func (d *Document) Digest() sig.Digest { d.Encode(); return d.digest }

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
