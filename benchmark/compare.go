package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// readRecords loads a JSON-lines file of -out records.
func readRecords(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// verdict classifies one end-to-end metric on one workload from the two
// sides' runs, by the rules in README.md ("Comparison protocol"). The i-th
// run of one side pairs with the i-th of the other: run.sh suite records a
// set at one seed, so a side's spread is the machine's and the bound is the
// metric's sameSeed one. unresolved when either side's inter-quartile spread
// is wider than the bound, regressed when the new median is worse by more
// than the bound, improved when the new side wins at least nine tenths of the
// pairs (ties counting for neither) and the medians differ by more than the
// old side's inter-quartile distance, unchanged otherwise.
func verdict(m endToEnd, old, new []float64) string {
	if len(old) == 0 || len(new) == 0 {
		return "unresolved"
	}
	if max(spread(old), spread(new)) > m.sameSeed {
		return "unresolved"
	}
	sign := 1.0 // worse is larger
	if m.better == "higher" {
		sign = -1
	}
	mo, mn := median(old), median(new)
	worse := sign * (mn - mo)
	if worse > m.sameSeed*mo {
		return "regressed"
	}
	pairs, wins := min(len(old), len(new)), 0
	for i := 0; i < pairs; i++ {
		if sign*(new[i]-old[i]) < 0 {
			wins++
		}
	}
	iqr := 0.0
	if len(old) >= 2 {
		q1, q3 := quartiles(old)
		iqr = q3 - q1
	}
	if 10*wins >= 9*pairs && -worse > iqr {
		return "improved"
	}
	return "unchanged"
}

// compareFiles prints one row per (workload, end-to-end metric) of two -out
// files, fail_ratio among them, then every exact per-layer count that differs
// between traced runs of the same workload, seed and length. It reports
// whether the comparison is clean: nothing regressed, nothing unresolved, no
// more failures, no exact mismatch. Untraced runs that pair up must have been
// recorded with the same -seed and -seconds.
func compareFiles(w io.Writer, oldPath, newPath string) (bool, error) {
	old, err := readRecords(oldPath)
	if err != nil {
		return false, err
	}
	new, err := readRecords(newPath)
	if err != nil {
		return false, err
	}
	clean := true

	untraced := func(recs []result, workload string) []result {
		var out []result
		for _, r := range recs {
			if r.Workload == workload && r.Trace == 0 {
				out = append(out, r)
			}
		}
		return out
	}
	values := func(recs []result, metric string) []float64 {
		var out []float64
		for _, r := range recs {
			if v, ok := r.Metrics[metric]; ok {
				out = append(out, v.Value)
			}
		}
		return out
	}
	failures := func(recs []result, workload string) (failed, attempted int) {
		for _, r := range recs {
			if r.Workload == workload {
				failed += r.Failed
				attempted += r.Attempted
			}
		}
		return
	}

	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\told median\tnew median\tdelta\tbound\tspread old/new\truns\tverdict\t")
	for _, wl := range workloads {
		ro, rn := untraced(old, wl.name), untraced(new, wl.name)
		for i := 0; i < min(len(ro), len(rn)); i++ {
			if ro[i].Seed != rn[i].Seed || ro[i].Seconds != rn[i].Seconds {
				return false, fmt.Errorf("%s: run %d was recorded with -seed %d -seconds %d on one side and -seed %d -seconds %d on the other; they are not a pair",
					wl.name, i+1, ro[i].Seed, ro[i].Seconds, rn[i].Seed, rn[i].Seconds)
			}
		}
		for _, m := range endToEndMetrics {
			if m.name == failRatio {
				// Counted over traced runs too, from the result line's pair.
				fo, ao := failures(old, wl.name)
				fn, an := failures(new, wl.name)
				if ao+an == 0 {
					continue
				}
				v := "unchanged"
				if ratio(float64(fn), float64(an)) > ratio(float64(fo), float64(ao)) {
					v, clean = "regressed", false
				}
				fmt.Fprintf(tw, "%s\t%s\t%d/%d\t%d/%d\t\t0\t\t\t%s\t\n", wl.name, m.name, fo, ao, fn, an, v)
				continue
			}
			vo, vn := values(ro, m.name), values(rn, m.name)
			if len(vo) == 0 && len(vn) == 0 {
				continue
			}
			v := verdict(m, vo, vn)
			if v == "regressed" || v == "unresolved" {
				clean = false
			}
			mo, mn := median(vo), median(vn)
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.2f%%\t%.0f%%\t%.2f%%/%.2f%%\t%d/%d\t%s\t\n",
				wl.name, m.name, mo, mn, 100*ratio(mn-mo, mo), 100*m.sameSeed, 100*spread(vo), 100*spread(vn), len(vo), len(vn), v)
		}
	}
	if err := tw.Flush(); err != nil {
		return false, err
	}

	// Exact counts: pair the traced records by what determines them.
	type key struct {
		workload string
		seed     int64
		seconds  int
	}
	traced := map[key]result{}
	for _, r := range old {
		if r.Trace == 1 {
			traced[key{r.Workload, r.Seed, r.Seconds}] = r
		}
	}
	compared, mismatches := 0, 0
	for _, r := range new {
		o, ok := traced[key{r.Workload, r.Seed, r.Seconds}]
		if r.Trace != 1 || !ok {
			continue
		}
		names := make([]string, 0, len(r.Metrics))
		for name, v := range r.Metrics {
			if v.Exact || o.Metrics[name].Exact {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			compared++
			if a, b := o.Metrics[name].Value, r.Metrics[name].Value; a != b {
				mismatches++
				fmt.Fprintf(w, "exact mismatch  %s seed %d  %s: %v -> %v\n", r.Workload, r.Seed, name, a, b)
			}
		}
	}
	fmt.Fprintf(w, "exact counts: %d compared, %d differ\n", compared, mismatches)
	if mismatches > 0 {
		clean = false
	}
	return clean, nil
}
