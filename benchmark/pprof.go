package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file reads the CPU profile runtime/pprof writes (a gzipped
// profile.proto) with a reader of its own — the benchmark must not add a
// module dependency — and attributes every sample to a layer.

// stackSample is one profile sample: its weight and its frames' function
// names, leaf first, inlined frames expanded.
type stackSample struct {
	weight int64
	frames []string
}

// protoField is one decoded field of a protobuf message: the varint value
// for wire type 0, the payload for wire type 2.
type protoField struct {
	num   int
	wire  int
	value uint64
	data  []byte
}

var errTruncated = errors.New("pprof: truncated protobuf")

func readVarint(b []byte) (uint64, []byte, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, b[i+1:], nil
		}
	}
	return 0, nil, errTruncated
}

// readFields splits one message into its fields.
func readFields(b []byte) ([]protoField, error) {
	var out []protoField
	for len(b) > 0 {
		key, rest, err := readVarint(b)
		if err != nil {
			return nil, err
		}
		f := protoField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			if f.value, rest, err = readVarint(rest); err != nil {
				return nil, err
			}
		case 1:
			if len(rest) < 8 {
				return nil, errTruncated
			}
			rest = rest[8:]
		case 2:
			n, r, err := readVarint(rest)
			if err != nil {
				return nil, err
			}
			if uint64(len(r)) < n {
				return nil, errTruncated
			}
			f.data, rest = r[:n], r[n:]
		case 5:
			if len(rest) < 4 {
				return nil, errTruncated
			}
			rest = rest[4:]
		default:
			return nil, fmt.Errorf("pprof: unsupported wire type %d", f.wire)
		}
		out = append(out, f)
		b = rest
	}
	return out, nil
}

// repeatedVarints appends the values of a repeated integer field, packed or
// not.
func repeatedVarints(dst []uint64, f protoField) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.value), nil
	}
	b := f.data
	for len(b) > 0 {
		v, rest, err := readVarint(b)
		if err != nil {
			return nil, err
		}
		dst, b = append(dst, v), rest
	}
	return dst, nil
}

// parseProfile decodes a gzipped profile.proto into stack samples, weighted
// by the profile's last sample value (CPU nanoseconds for a CPU profile).
func parseProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	top, err := readFields(raw)
	if err != nil {
		return nil, err
	}

	var strs []string
	funcName := map[uint64]uint64{}   // function id -> string index of its name
	locFuncs := map[uint64][]uint64{} // location id -> function ids, innermost first
	type rawSample struct {
		locs   []uint64
		weight int64
	}
	var samples []rawSample
	for _, f := range top {
		if f.wire != 2 {
			continue
		}
		switch f.num {
		case 2: // sample
			fs, err := readFields(f.data)
			if err != nil {
				return nil, err
			}
			var s rawSample
			var values []uint64
			for _, sf := range fs {
				switch sf.num {
				case 1:
					if s.locs, err = repeatedVarints(s.locs, sf); err != nil {
						return nil, err
					}
				case 2:
					if values, err = repeatedVarints(values, sf); err != nil {
						return nil, err
					}
				}
			}
			if len(values) > 0 {
				s.weight = int64(values[len(values)-1])
			}
			samples = append(samples, s)
		case 4: // location
			fs, err := readFields(f.data)
			if err != nil {
				return nil, err
			}
			var id uint64
			var funcs []uint64
			for _, lf := range fs {
				switch {
				case lf.num == 1 && lf.wire == 0:
					id = lf.value
				case lf.num == 4 && lf.wire == 2: // line
					ls, err := readFields(lf.data)
					if err != nil {
						return nil, err
					}
					for _, l := range ls {
						if l.num == 1 && l.wire == 0 {
							funcs = append(funcs, l.value)
						}
					}
				}
			}
			locFuncs[id] = funcs
		case 5: // function
			fs, err := readFields(f.data)
			if err != nil {
				return nil, err
			}
			var id, name uint64
			for _, ff := range fs {
				if ff.wire != 0 {
					continue
				}
				switch ff.num {
				case 1:
					id = ff.value
				case 2:
					name = ff.value
				}
			}
			funcName[id] = name
		case 6: // string table
			strs = append(strs, string(f.data))
		}
	}

	out := make([]stackSample, len(samples))
	for i, s := range samples {
		out[i].weight = s.weight
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcName[fn]; idx < uint64(len(strs)) {
					out[i].frames = append(out[i].frames, strs[idx])
				}
			}
		}
	}
	return out, nil
}

// internalPrefix starts the function names of the simulator's own packages.
const internalPrefix = "partialtor/internal/"

// cpuShares attributes every sample twice. Its layer is the package of the
// innermost partialtor/internal frame on its stack — that also catches
// protocol work a simnet timer fires, which no handler wrapper sees. And,
// independently of the layer, a sample falls into the leaf bucket
// crypto.sha256, crypto.ed25519 or runtime.gc when such a frame lies on its
// stack. Shares are of the profile's total weight.
func cpuShares(samples []stackSample) map[string]float64 {
	weights := map[string]int64{}
	var total int64
	for _, s := range samples {
		total += s.weight
		layer := ""
		var sha, ed, gc bool
		for _, fn := range s.frames {
			if layer == "" {
				if rest, ok := strings.CutPrefix(fn, internalPrefix); ok {
					layer, _, _ = strings.Cut(rest, ".")
				}
			}
			switch {
			case strings.Contains(fn, "sha256"):
				sha = true
			case strings.Contains(fn, "ed25519"), strings.Contains(fn, "edwards25519"):
				ed = true
			case strings.HasPrefix(fn, "runtime.gc"), strings.HasPrefix(fn, "runtime.bgsweep"),
				strings.HasPrefix(fn, "runtime.bgscavenge"), strings.HasPrefix(fn, "runtime.(*gcWork)"):
				gc = true
			}
		}
		if layer != "" {
			weights[layer] += s.weight
		}
		// A SHA-512 inside Ed25519 belongs to the signature, not to hashing.
		switch {
		case ed:
			weights["crypto.ed25519"] += s.weight
		case sha:
			weights["crypto.sha256"] += s.weight
		}
		if gc {
			weights["runtime.gc"] += s.weight
		}
	}
	shares := make(map[string]float64, len(weights))
	for k, w := range weights {
		shares[k] = ratio(float64(w), float64(total))
	}
	return shares
}
