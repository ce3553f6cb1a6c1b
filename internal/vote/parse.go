package vote

import (
	"encoding/hex"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"partialtor/internal/relay"
	"partialtor/internal/sig"
)

// Parse inverts Document.Encode: the vote lists a roster of its own relays,
// in its order. It rejects an entry-padding above MaxEntryPadding.
func Parse(data []byte) (*Document, error) {
	d := &Document{}
	var relays []relay.Descriptor
	sawSource := false
	err := scan(data, grammar{status: "vote", validAfter: &d.ValidAfter,
		line: func(cur *relay.Descriptor, key, rest string) (err error) {
			switch key {
			case "r":
				err = parseRelayLine(cur, rest, &cur.Identity, &cur.Digest)
			case "w":
				for _, kv := range strings.Fields(rest) {
					k, v, ok := strings.Cut(kv, "=")
					if !ok {
						return errors.New("malformed w item")
					}
					n, err := strconv.ParseUint(v, 10, 64)
					if err != nil {
						return err
					}
					switch k {
					case "Bandwidth":
						cur.Bandwidth = n
					case "Measured":
						cur.HasMeasured, cur.Measured = true, n
					}
				}
			case "entry-padding":
				d.EntryPadding, err = strconv.Atoi(rest)
				if err == nil && d.EntryPadding > MaxEntryPadding {
					err = fmt.Errorf("above the bound %d", MaxEntryPadding)
				}
			case "dir-source":
				f := strings.Fields(rest)
				if len(f) != 3 {
					return errors.New("want 3 fields")
				}
				d.AuthorityName, sawSource = f[0], true
				if err = parseHex20(f[1], &d.Fingerprint); err == nil {
					d.AuthorityIndex, err = strconv.Atoi(f[2])
				}
			case "pad": // filler
			default:
				err = errUnknownKeyword
			}
			return err
		},
		add: func(r *relay.Descriptor) { relays = append(relays, *r) },
	})
	if err != nil {
		return nil, err
	}
	if !sawSource {
		return nil, errors.New("vote: missing dir-source")
	}
	d.Relays = oneVote(relays)
	return d, nil
}

// ParseConsensus inverts Consensus.Encode: the wire-format reference the
// round-trip and fuzz tests hold the consensus renderer to. The consensus
// lists a roster of its own relays, in its order.
func ParseConsensus(data []byte) (*Consensus, error) {
	c := &Consensus{}
	var relays []relay.Descriptor
	err := scan(data, grammar{status: "consensus", validAfter: &c.ValidAfter,
		line: func(cur *relay.Descriptor, key, rest string) (err error) {
			switch key {
			case "r":
				err = parseRelayLine(cur, rest, &cur.Identity)
			case "w":
				v, ok := strings.CutPrefix(rest, "Bandwidth=")
				if !ok {
					return errors.New("want Bandwidth=")
				}
				cur.Bandwidth, err = strconv.ParseUint(v, 10, 64)
			case "num-votes":
				f := strings.Fields(rest)
				if len(f) != 3 || f[1] != "of" {
					return errors.New("want 'K of N'")
				}
				k, err1 := strconv.Atoi(f[0])
				n, err2 := strconv.Atoi(f[2])
				if err1 != nil || err2 != nil {
					return errors.New("bad counts")
				}
				c.NumVotes, c.TotalAuthorities = k, n
			case "voters":
				for _, v := range strings.Fields(rest) {
					idx, err := strconv.Atoi(v)
					if err != nil {
						return err
					}
					c.Voters = append(c.Voters, idx)
				}
			default:
				err = errUnknownKeyword
			}
			return err
		},
		add: func(r *relay.Descriptor) {
			c.Relays = append(c.Relays, ConsensusRelay{Index: int32(len(relays)), Flags: r.Flags, Bandwidth: r.Bandwidth})
			relays = append(relays, *r)
		},
	})
	if err != nil {
		return nil, err
	}
	c.roster = newRoster(relays)
	return c, nil
}

// grammar is what one document kind adds to the grammar scan reads: the word
// of its vote-status line, which also prefixes its errors; its r and w lines
// and the keywords only it has (line, given the open entry, nil before the
// first r line); and where an entry goes once it is closed (add).
type grammar struct {
	status     string
	validAfter *uint64
	line       func(cur *relay.Descriptor, key, rest string) error
	add        func(*relay.Descriptor)
}

var errUnknownKeyword = errors.New("unknown keyword")

// beforeRelay names each line that belongs to an entry, for the error it
// gets before any r line.
var beforeRelay = map[string]string{
	"s": "flags", "v": "version", "pr": "protocols", "w": "bandwidth", "p": "policy",
}

// scan reads a document line by line, skipping blank ones: the version,
// status and valid-after lines, each entry from its r line to the next r
// line or the footer, and the footer, which must be there. The lines of an
// entry other than s, v, pr and p, and the keywords scan does not know, go to
// g.line. An error names the line and its keyword.
func scan(data []byte, g grammar) error {
	var cur *relay.Descriptor
	flush := func() {
		if cur != nil {
			g.add(cur)
			cur = nil
		}
	}
	sawFooter := false
	for lineNo, line := range strings.Split(string(data), "\n") {
		if line == "" {
			continue
		}
		key, rest, _ := strings.Cut(line, " ")
		var err error
		if what, ok := beforeRelay[key]; ok && cur == nil {
			err = fmt.Errorf("%s before relay", what)
		} else {
			switch key {
			case "network-status-version":
				if rest != "3" {
					err = errors.New("unsupported version")
				}
			case "vote-status":
				if rest != g.status {
					err = fmt.Errorf("not a %s", g.status)
				}
			case "valid-after":
				*g.validAfter, err = strconv.ParseUint(rest, 10, 64)
			case "r":
				flush()
				cur = &relay.Descriptor{}
				err = g.line(cur, key, rest)
			case "s":
				cur.Flags, err = relay.ParseFlags(rest)
			case "v":
				cur.Version = strings.TrimPrefix(rest, "Tor ")
			case "pr":
				cur.Protocols = rest
			case "p":
				cur.ExitPolicy = rest
			case "directory-footer":
				flush()
				sawFooter = true
			default:
				err = g.line(cur, key, rest)
			}
		}
		if err != nil {
			return fmt.Errorf("%s: line %d (%q): %w", g.status, lineNo+1, key, err)
		}
	}
	if !sawFooter {
		return fmt.Errorf("%s: missing directory-footer", g.status)
	}
	return nil
}

// parseRelayLine reads an r line into cur: nickname, the kind's 20-byte
// hex fields into ids (the identity, then a vote's descriptor digest),
// address, ORPort and DirPort.
func parseRelayLine(cur *relay.Descriptor, rest string, ids ...*sig.Fingerprint) error {
	f := strings.Fields(rest)
	if want := 4 + len(ids); len(f) != want {
		return fmt.Errorf("want %d fields", want)
	}
	cur.Nickname = f[0]
	for i, id := range ids {
		if err := parseHex20(f[1+i], id); err != nil {
			return err
		}
	}
	f = f[1+len(ids):]
	cur.Address = f[0]
	for i, port := range []*uint16{&cur.ORPort, &cur.DirPort} {
		v, err := strconv.ParseUint(f[1+i], 10, 16)
		if err != nil {
			return err
		}
		*port = uint16(v)
	}
	return nil
}

// parseHex20 reads a 20-byte fingerprint from 40 hex digits of either case.
func parseHex20(s string, dst *sig.Fingerprint) error {
	if len(s) != 2*len(dst) {
		return fmt.Errorf("want 40 hex chars, got %d", len(s))
	}
	if n, err := hex.Decode(dst[:], []byte(s)); err != nil {
		return fmt.Errorf("bad hex at %d", 2*n)
	}
	return nil
}
