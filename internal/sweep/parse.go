package sweep

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// ParseInts parses a comma-separated integer list ("10,20,40") into axis
// values, reporting the offending element — empty elements included, e.g.
// "10,,40" — instead of a bare strconv error. Sweep axes are usually CLI
// flags; every command shares this one parser.
func ParseInts(s string) ([]int, error) {
	var out []int
	for i, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		v, err := strconv.Atoi(f)
		if err != nil {
			return nil, fmt.Errorf("element %d (%q) of %q: %v", i+1, f, s, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// ParsePositiveInts is ParseInts for axes of counts, where zero or
// negative values are configuration errors (cache counts, populations,
// target counts).
func ParsePositiveInts(s string) ([]int, error) {
	out, err := ParseInts(s)
	if err != nil {
		return nil, err
	}
	for _, v := range out {
		if v < 1 {
			return nil, fmt.Errorf("count %d in %q must be >= 1", v, s)
		}
	}
	return out, nil
}

// ParseFloats is ParseInts for float axes ("0.5,1,2.5"). A NaN or an
// infinity is no axis value: it is rejected like a malformed element.
func ParseFloats(s string) ([]float64, error) {
	var out []float64
	for i, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		v, err := strconv.ParseFloat(f, 64)
		if err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
			err = fmt.Errorf("%g is not finite", v)
		}
		if err != nil {
			return nil, fmt.Errorf("element %d (%q) of %q: %v", i+1, f, s, err)
		}
		out = append(out, v)
	}
	return out, nil
}
