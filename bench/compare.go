package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// verdict is the outcome of comparing one metric on one workload.
type verdict string

const (
	better     verdict = "better"
	same       verdict = "same"
	worse      verdict = "worse"
	unresolved verdict = "unresolved"
)

// judge compares the runs of a change (after) with those of its parent
// (before) for one end-to-end metric, by the rules of the benchmark's
// bounds:
//
//   - unresolved when either side's spread (the distance between its first
//     and third quartile, as a share of its median) is wider than the
//     bound, unless every run of the change beats every run of the parent;
//   - worse when the change's median is worse than the parent's by more
//     than the bound;
//   - better when the change wins at least nine tenths of the runs paired
//     in order and the medians differ by more than the parent's spread;
//   - same otherwise.
func judge(m specMetric, before, after []float64) verdict {
	sign := 1.0 // > 0 means after is worse
	if m.Better == "higher" {
		sign = -1
	}
	mb, ma := median(before), median(after)
	if spread(before) > m.Bound || spread(after) > m.Bound {
		if allBetter(sign, before, after) {
			return better
		}
		return unresolved
	}
	if mb != 0 && sign*(ma-mb)/mb > m.Bound {
		return worse
	}
	wins, pairs := 0, min(len(before), len(after))
	for i := 0; i < pairs; i++ {
		if sign*(after[i]-before[i]) < 0 {
			wins++
		}
	}
	q1, q3 := quartiles(before)
	if pairs > 0 && 10*wins >= 9*pairs && sign*(mb-ma) > q3-q1 {
		return better
	}
	return same
}

func allBetter(sign float64, before, after []float64) bool {
	if len(before) == 0 || len(after) == 0 {
		return false
	}
	for _, a := range after {
		for _, b := range before {
			if sign*(a-b) >= 0 {
				return false
			}
		}
	}
	return true
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	if med := median(xs); med != 0 {
		return (q3 - q1) / med
	}
	return 0
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (its default, exclusive method), so a
// spread computed here matches one computed from the same values there.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// compareFiles prints a verdict for every workload and end-to-end metric
// present in both -record files. Traced records are skipped: per-layer
// metrics have no bounds. Runs of one workload that attempted different
// iteration counts covered different seeds, so their medians are not
// comparable and the files are refused.
func compareFiles(sp *spec, beforePath, afterPath string, w io.Writer) error {
	before, err := readRecords(beforePath)
	if err != nil {
		return err
	}
	after, err := readRecords(afterPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-22s %-18s %5s %14s %14s %8s %8s  %s\n",
		"workload", "metric", "runs", "before median", "after median", "change", "bound", "verdict")
	for _, wl := range sp.Workloads {
		b, a := before[wl.Name], after[wl.Name]
		if len(b) == 0 || len(a) == 0 {
			continue
		}
		for _, rs := range [][]result{b, a} {
			for _, r := range rs {
				if r.Attempted != b[0].Attempted {
					return fmt.Errorf("%s: runs attempted %d and %d iterations; compare runs of the same --seconds",
						wl.Name, b[0].Attempted, r.Attempted)
				}
			}
		}
		for _, m := range sp.EndToEnd {
			bv, av := values(b, m.Name), values(a, m.Name)
			if len(bv) == 0 || len(av) == 0 {
				continue
			}
			mb, ma := median(bv), median(av)
			change := 0.0
			if mb != 0 {
				change = (ma - mb) / mb
			}
			fmt.Fprintf(w, "%-22s %-18s %2d/%-2d %14.6g %14.6g %+7.1f%% %7.0f%%  %s\n",
				wl.Name, m.Name, len(bv), len(av), mb, ma, 100*change, 100*m.Bound, judge(m, bv, av))
		}
	}
	return nil
}

func values(rs []result, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if v, ok := r.Metrics[name]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// readRecords loads the untraced results of a -record file by workload, in
// file order.
func readRecords(path string) (map[string][]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string][]result)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Trace == 0 {
			out[r.Workload] = append(out[r.Workload], r.Result)
		}
	}
	return out, sc.Err()
}
