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
// A vote is a view of a population. A Roster holds the relays votes list,
// with the entry lines no vote changes rendered once: each relay's r line
// and advertised bandwidth into one arena, and each distinct v, pr and w
// segment and p line once; a vote's View keeps, per relay it lists, only the
// relay's roster index, flags and measurement (relay.Listing, 16 bytes). The
// views Views builds share one roster of one population, in identity order,
// and so do the vote sets Votes seals over them; a parsed vote builds a roster
// of the relays it lists, so there is one representation. A consensus is the
// same: per relay, a roster index and the aggregated flags and bandwidth.
//
// Documents are frozen once built, and each is sealed on first use: Digest
// or EncodedSize streams the document's rendering through SHA-256 and keeps
// only the size and digest. A vote's entry padding is counted in its size
// and not hashed (DefaultEntryPadding); a consensus is not padded. A seal
// renders each entry with the append calls Encode makes, arena segments
// around the entry's own flags and bandwidth, into one reused scratch
// buffer, so the roster's renderers and one size rule (paddedLen) are the
// only statement of the format, a cached vote costs its listings and not the
// ~2.5 kB per relay its bytes would, and sealing either kind allocates
// nothing. Encode allocates its buffer at EncodedSize and appends into it —
// no fmt, no growth — and renders afresh on every call, for either kind.
// Aggregate merges the votes' listings: on roster indices when the votes
// share an ordered roster (an inputs entry's do), taking everything but flags
// and bandwidth from the roster; on identities otherwise (parsed votes, an
// equivocator's vote from another population), where the consensus gets a
// roster of its own.
// AggregateShared memoises Aggregate per vote set: Share links sealed votes
// (an inputs entry's) to one memo, keyed by the authority count and the
// sorted vote digests (a digest covers its vote's authority index), so every
// authority, run and concurrent sweep cell holding the same votes gets one
// document, aggregated and sealed once behind a per-set sync.Once and
// read-only from then on. A set Aggregate rejects is not kept. The memo lives
// as long as the votes linked to it; a set with no linked vote is aggregated
// afresh.
//
// One grammar serves both kinds: Parse and ParseConsensus share one line
// scanner, and each kind adds only its own keywords and r and w line shapes.
package vote

import (
	"bytes"
	"crypto/sha256"
	"strconv"

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
// the results does not move. No signature covers framing, so the padding is
// counted in a vote's EncodedSize and not hashed into its Digest (see seal).
const DefaultEntryPadding = 2500

// MaxEntryPadding bounds the entry padding Parse accepts and a scenario may
// ask for, far above any calibration in use, so that a vote's padded size
// (relays × padding) cannot overflow.
const MaxEntryPadding = 1 << 16

// Document is one authority's status vote.
type Document struct {
	AuthorityIndex int
	AuthorityName  string
	Fingerprint    sig.Fingerprint
	ValidAfter     uint64 // vote epoch (hours)
	EntryPadding   int    // pad each relay entry to this many bytes; 0 = natural size
	Relays         View

	size   int64      // of the encoding; 0 until sealed
	digest sig.Digest // of the natural rendering, fixed with size
	memo   *memo      // the consensus memo Share linked the vote to; nil if none
}

// NewDocument builds a vote for an authority over its relay view.
func NewDocument(authorityIndex int, name string, fp sig.Fingerprint, epoch uint64, relays View) *Document {
	return &Document{
		AuthorityIndex: authorityIndex,
		AuthorityName:  name,
		Fingerprint:    fp,
		ValidAfter:     epoch,
		EntryPadding:   DefaultEntryPadding,
		Relays:         relays,
	}
}

// Encode renders the vote in its text format into a fresh buffer of exactly
// EncodedSize bytes on every call: a run needs only the size and digest the
// seal keeps, so nothing keeps the bytes.
func (d *Document) Encode() []byte {
	b := d.appendHeader(make([]byte, 0, d.EncodedSize()))
	r, listings := d.Relays.Roster, d.Relays.Listings
	for i := range listings {
		b = r.appendEntry(b, &listings[i], d.EntryPadding)
	}
	return append(b, footer...)
}

// seal fixes the vote's size and digest on first use: votes are immutable
// once built. The digest is the SHA-256 of the natural rendering, every
// entry unpadded, which still binds the padding: the header's entry-padding
// line is hashed, and the padded bytes are a fixed function of the natural
// ones. The size is that of the padded bytes Encode renders, each entry
// counted at paddedLen. Entries are rendered by the roster's appendEntry into
// one scratch buffer that is hashed and reused whenever it fills past
// sealChunk.
func (d *Document) seal() {
	if d.size != 0 {
		return
	}
	h := sha256.New()
	b := d.appendHeader(make([]byte, 0, 2*sealChunk))
	size := int64(len(b)) + int64(len(footer))
	r, listings := d.Relays.Roster, d.Relays.Listings
	for i := range listings {
		n := len(b)
		b = r.appendEntry(b, &listings[i], 0)
		size += int64(paddedLen(len(b)-n, d.EntryPadding))
		if len(b) >= sealChunk {
			h.Write(b)
			b = b[:0]
		}
	}
	h.Write(append(b, footer...))
	d.size = size
	h.Sum(d.digest[:0])
}

// sealChunk is how many bytes a seal gathers before hashing them: a dozen or
// so natural entries, so the scratch of twice that stays on the stack.
const sealChunk = 4 << 10

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
var filler = bytes.Repeat([]byte{'x'}, 2*DefaultEntryPadding)

// minPadLine is len("pad x\n"), the shortest filler line there is.
const minPadLine = 6

// paddedLen is the one size rule of a padded entry: an entry of natural
// length n is filled out to pad bytes when pad > 0 and it leaves room for a
// filler line, and stays n bytes otherwise. pad > 0 is tested first: a parsed
// padding may be negative enough for pad-n to wrap.
func paddedLen(n, pad int) int {
	if pad > 0 && pad-n >= minPadLine {
		return pad
	}
	return n
}

// EncodedSize returns the vote's wire size in bytes.
func (d *Document) EncodedSize() int64 { d.seal(); return d.size }

// Digest returns the SHA-256 digest of the vote's natural rendering: its
// encoding with every entry unpadded.
func (d *Document) Digest() sig.Digest { d.seal(); return d.digest }
