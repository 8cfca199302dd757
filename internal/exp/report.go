// Package exp contains one runnable experiment per table and figure in the
// paper's evaluation, producing the same rows/series the paper reports.
// Each experiment is registered in the Runners table so the cmd/ecnbench
// binary, the examples, and the top-level benchmarks can regenerate any of
// them by id.
package exp

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"ecndelay/internal/obs"
	"ecndelay/internal/sweep"
)

// Scale selects the experiment fidelity.
type Scale int

// Quick runs a down-scaled experiment (shorter horizons, fewer points) for
// tests and benchmarks; Full reproduces the paper-scale runs.
const (
	Quick Scale = iota
	Full
)

// Options configure a runner invocation.
type Options struct {
	Scale Scale
	Seed  int64
	// Observer, when non-nil, is attached to every network the runner
	// builds: counters, traces, probes and invariants accumulate there.
	// Nil — the default — leaves runs bit-identical to unobserved ones.
	Observer *obs.NetObserver
}

// Table is a rendered block of experiment output.
type Table struct {
	Title string
	Cols  []string
	Rows  [][]string
}

// Report is the result of one experiment.
type Report struct {
	ID     string
	Title  string
	Tables []Table
	Notes  []string
	// Metrics carries the headline numbers for programmatic checks
	// (benchmarks report them; EXPERIMENTS.md quotes them).
	Metrics map[string]float64
}

// AddMetric records a headline number.
func (r *Report) AddMetric(name string, v float64) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]float64)
	}
	r.Metrics[name] = v
}

// Render writes the report as aligned text.
func (r *Report) Render(w io.Writer) {
	fmt.Fprintf(w, "=== %s — %s ===\n", r.ID, r.Title)
	for _, t := range r.Tables {
		if t.Title != "" {
			fmt.Fprintf(w, "\n%s\n", t.Title)
		}
		widths := make([]int, len(t.Cols))
		for i, c := range t.Cols {
			widths[i] = len(c)
		}
		for _, row := range t.Rows {
			for i, cell := range row {
				if i < len(widths) && len(cell) > widths[i] {
					widths[i] = len(cell)
				}
			}
		}
		line := func(cells []string) {
			parts := make([]string, len(cells))
			for i, c := range cells {
				w := 0
				if i < len(widths) {
					w = widths[i]
				}
				parts[i] = fmt.Sprintf("%-*s", w, c)
			}
			fmt.Fprintln(w, "  "+strings.TrimRight(strings.Join(parts, "  "), " "))
		}
		line(t.Cols)
		sep := make([]string, len(t.Cols))
		for i := range sep {
			sep[i] = strings.Repeat("-", widths[i])
		}
		line(sep)
		for _, row := range t.Rows {
			line(row)
		}
	}
	if len(r.Notes) > 0 {
		fmt.Fprintln(w)
		for _, n := range r.Notes {
			fmt.Fprintf(w, "  note: %s\n", n)
		}
	}
	if len(r.Metrics) > 0 {
		keys := make([]string, 0, len(r.Metrics))
		for k := range r.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintln(w)
		for _, k := range keys {
			fmt.Fprintf(w, "  metric %-40s %g\n", k, r.Metrics[k])
		}
	}
	fmt.Fprintln(w)
}

// Runner is one registered experiment.
type Runner struct {
	ID     string
	Title  string
	Figure string // the paper table/figure this regenerates
	Run    func(Options) (*Report, error)
}

var registry []Runner

// register adds a runner at init time. Duplicate or incomplete
// registrations are programming errors, caught immediately rather than
// shadowing an existing experiment.
func register(r Runner) {
	if r.ID == "" || r.Run == nil {
		panic(fmt.Sprintf("exp: runner %q registered without id or Run", r.ID))
	}
	for _, ex := range registry {
		if ex.ID == r.ID {
			panic(fmt.Sprintf("exp: duplicate runner id %q", r.ID))
		}
	}
	registry = append(registry, r)
}

// Runners lists every registered experiment in registration order.
func Runners() []Runner { return append([]Runner(nil), registry...) }

// Get finds an experiment by id.
func Get(id string) (Runner, bool) {
	for _, r := range registry {
		if r.ID == id {
			return r, true
		}
	}
	return Runner{}, false
}

// SweepJobs builds one sweep job per (experiment id, seed) pair from the
// registry. With an empty seeds slice each experiment becomes a single
// job, named by its id and run at opts.Seed; otherwise one job per listed
// seed, named <id>/seed<s> and run at that seed. The engine-derived seed
// goes unused either way. Once job i succeeds, the second result's
// element i holds its report; the engine's hand-over of the result
// orders that write before the sink reads it.
//
// A shared opts.Observer is safe for any worker count: each job runs with
// opts.Observer.ForJob(jobID), so probes from different jobs land in the
// shared ProbeSet under distinct, scheduling-independent names, and the
// job's own child checker owns the invariant books of its networks.
func SweepJobs(ids []string, opts Options, seeds []int64) ([]sweep.Job, []*Report, error) {
	var jobs []sweep.Job
	var reports []*Report
	for _, id := range ids {
		r, ok := Get(id)
		if !ok {
			return nil, nil, fmt.Errorf("unknown experiment %q", id)
		}
		job := func(jobID string, meta map[string]string, seed int64) sweep.Job {
			i := len(jobs)
			return sweep.Job{ID: jobID, Meta: meta, Run: func(int64) (map[string]float64, error) {
				o := opts
				o.Seed = seed
				o.Observer = opts.Observer.ForJob(jobID)
				rep, err := r.Run(o)
				if err != nil {
					return nil, err
				}
				reports[i] = rep
				return rep.Metrics, nil
			}}
		}
		if len(seeds) == 0 {
			jobs = append(jobs, job(r.ID, map[string]string{"exp": r.ID, "figure": r.Figure}, opts.Seed))
			continue
		}
		for _, s := range seeds {
			jobs = append(jobs, job(fmt.Sprintf("%s/seed%d", r.ID, s),
				map[string]string{"exp": r.ID, "figure": r.Figure, "seed": fmt.Sprint(s)}, s))
		}
	}
	// Every job's closure reads this slice, which is sized only now that
	// the grid is complete.
	reports = make([]*Report, len(jobs))
	return jobs, reports, nil
}

func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string  { return fmt.Sprintf("%.3f", v) }
func eng(v float64) string { return fmt.Sprintf("%.4g", v) }
