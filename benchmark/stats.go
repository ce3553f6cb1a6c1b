package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// median returns the middle of vals (the mean of the two middle values for
// an even count) and 0 for none. It sorts a copy.
func median(vals []float64) float64 {
	n := len(vals)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile of vals that still has at least ten
// samples beyond it, and which percentile that is: n = 24 gives p58, n = 100
// gives p90. Below twenty samples no percentile above the median qualifies,
// so the tail is the median (p50).
func tail(vals []float64) (value float64, percentile int) {
	n := len(vals)
	if n < 20 {
		return median(vals), 50
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s[n-11], 100 * (n - 10) / n
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(vals, n=4) computes them (the exclusive method), which
// is what the acceptance check of the benchmark uses. It needs two values.
func quartiles(vals []float64) (q1, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := i*(n+1) - j*4
		j = min(max(j, 1), n-1)
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the inter-quartile distance of vals as a share of their median.
func spread(vals []float64) float64 {
	m := median(vals)
	if len(vals) < 2 || m == 0 {
		return 0
	}
	q1, q3 := quartiles(vals)
	return (q3 - q1) / m
}

// resetPeakRSS restarts the process's resident-set high-water mark from its
// current resident set (clear_refs value 5, Linux 4.0 on). Where the kernel
// refuses, the mark keeps running and every reading is the peak so far.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
