// Command obsreport compares the latency-histogram exports of two runs
// and flags percentile regressions, giving CI an automated
// perf-trajectory gate over the JSONL artifacts that packetsim,
// ecnbench and sweep write with -hist:
//
//	obsreport -base golden.jsonl -new current.jsonl
//	obsreport -base a.jsonl -new b.jsonl -threshold 0.05 -quantiles p99,p999
//
// Both inputs are histogram JSONL files: one object per line with a
// "hist" name, sample count, min/max and the exported percentiles.
// For every histogram present in both files, each selected percentile
// is compared; a relative increase beyond -threshold is a regression
// (latency distributions: higher is worse). A histogram missing from
// the candidate file is a regression too, unless -allow-missing is
// set; histograms only in the candidate are reported but never fail.
//
// Exit status: 0 when no percentile regressed, 1 on any regression,
// 2 on usage or I/O errors.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// histRow mirrors one line of a HistSet JSONL export. Probe records
// (the trailing {"probe":...,"dropped":...} lines of a combined export)
// have no "hist" key and are skipped.
type histRow struct {
	Hist  string  `json:"hist"`
	Count float64 `json:"count"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	P999  float64 `json:"p999"`
}

// field maps a -quantiles column name to its value in a row.
func (r *histRow) field(name string) (float64, bool) {
	switch name {
	case "min":
		return r.Min, true
	case "max":
		return r.Max, true
	case "p50":
		return r.P50, true
	case "p90":
		return r.P90, true
	case "p95":
		return r.P95, true
	case "p99":
		return r.P99, true
	case "p999":
		return r.P999, true
	}
	return 0, false
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("obsreport", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		basePath     = fs.String("base", "", "baseline histogram JSONL (required)")
		newPath      = fs.String("new", "", "candidate histogram JSONL (required)")
		threshold    = fs.Float64("threshold", 0.10, "relative regression threshold per percentile (0.10 = +10%)")
		quantiles    = fs.String("quantiles", "p50,p90,p95,p99,p999", "comma list of columns to compare: min,max,p50,p90,p95,p99,p999")
		allowMissing = fs.Bool("allow-missing", false, "don't fail when a baseline histogram is absent from the candidate")
		quiet        = fs.Bool("quiet", false, "print only regressed rows")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *basePath == "" || *newPath == "" {
		fmt.Fprintln(stderr, "obsreport: -base and -new are both required")
		return 2
	}
	// A NaN threshold would pass every delta and a negative one would
	// flag unchanged rows.
	if t := *threshold; !(t >= 0) || math.IsInf(t, 1) {
		fmt.Fprintf(stderr, "obsreport: -threshold must be a finite fraction >= 0, got %g\n", t)
		return 2
	}
	var cols []string
	for _, q := range strings.Split(*quantiles, ",") {
		q = strings.TrimSpace(q)
		if q == "" {
			continue
		}
		if _, ok := (&histRow{}).field(q); !ok {
			fmt.Fprintf(stderr, "obsreport: unknown quantile column %q\n", q)
			return 2
		}
		cols = append(cols, q)
	}
	if len(cols) == 0 {
		fmt.Fprintln(stderr, "obsreport: -quantiles selects no columns")
		return 2
	}

	base, err := readHists(*basePath)
	if err != nil {
		fmt.Fprintf(stderr, "obsreport: %v\n", err)
		return 2
	}
	cand, err := readHists(*newPath)
	if err != nil {
		fmt.Fprintf(stderr, "obsreport: %v\n", err)
		return 2
	}
	if len(base) == 0 {
		fmt.Fprintf(stderr, "obsreport: %s holds no histograms\n", *basePath)
		return 2
	}

	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)

	w := bufio.NewWriter(stdout)
	defer w.Flush()
	regressions := 0
	for _, name := range names {
		b := base[name]
		n, ok := cand[name]
		if !ok {
			if *allowMissing {
				fmt.Fprintf(w, "MISSING    %s (allowed)\n", name)
				continue
			}
			fmt.Fprintf(w, "MISSING    %s: in baseline only\n", name)
			regressions++
			continue
		}
		for _, col := range cols {
			bv, _ := b.field(col)
			nv, _ := n.field(col)
			delta := relDelta(bv, nv)
			regressed := delta > *threshold
			if regressed {
				regressions++
			}
			if *quiet && !regressed {
				continue
			}
			verdict := "ok"
			if regressed {
				verdict = "REGRESSION"
			}
			fmt.Fprintf(w, "%-10s %s %s: %.6g -> %.6g (%+.1f%%)\n",
				verdict, name, col, bv, nv, delta*100)
		}
		if b.Count != n.Count && !*quiet {
			fmt.Fprintf(w, "note       %s: sample count %.0f -> %.0f\n", name, b.Count, n.Count)
		}
	}
	if !*quiet {
		var added []string
		for name := range cand {
			if _, ok := base[name]; !ok {
				added = append(added, name)
			}
		}
		sort.Strings(added)
		for _, name := range added {
			fmt.Fprintf(w, "note       %s: new histogram, no baseline\n", name)
		}
	}
	if regressions > 0 {
		w.Flush()
		fmt.Fprintf(stderr, "obsreport: %d regression(s) beyond %+.1f%%\n", regressions, *threshold*100)
		return 1
	}
	return 0
}

// relDelta reports the relative increase from base to cand. A zero
// baseline regresses only if the candidate is positive: latency
// percentiles are non-negative, so going from 0 to anything is growth
// no finite threshold should excuse.
func relDelta(base, cand float64) float64 {
	if base == 0 {
		if cand > 0 {
			return 1e18 // effectively +inf: trips any finite threshold
		}
		return 0
	}
	return (cand - base) / base
}

// readHists parses a histogram JSONL export into rows keyed by name.
func readHists(path string) (map[string]*histRow, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rows := map[string]*histRow{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var r histRow
		if err := json.Unmarshal([]byte(text), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %v", path, line, err)
		}
		if r.Hist == "" {
			continue // probe or foreign record
		}
		rows[r.Hist] = &r
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return rows, nil
}
