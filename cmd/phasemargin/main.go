// Command phasemargin sweeps the Bode phase margin of the linearised
// DCQCN or patched TIMELY loop over flow counts and feedback delays,
// producing the raw numbers behind Figures 3 and 11 as TSV. The grid
// is fanned out over -workers goroutines through the sweep engine; the
// output is identical to a serial run regardless of worker count.
//
//	phasemargin -model dcqcn -flows 1:64 -delays 1e-6,25e-6,50e-6,85e-6,100e-6
//	phasemargin -model patched -flows 2:64 -workers 8
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"

	"ecndelay/internal/cli"
	"ecndelay/internal/exp"
	"ecndelay/internal/fixedpoint"
	"ecndelay/internal/fluid"
	"ecndelay/internal/sweep"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command. It exits 2 on a refused flag value or
// combination, 1 when a grid cell fails, and 0 otherwise.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("phasemargin", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		model   = fs.String("model", "dcqcn", "dcqcn | patched")
		flows   = fs.String("flows", "1:64", "N range lo:hi or comma list")
		delays  = fs.String("delays", "1e-6,25e-6,50e-6,85e-6,100e-6", "DCQCN τ* values, seconds")
		rai     = fs.Float64("rai", 0, "DCQCN R_AI override, bits/s (0: default 40e6)")
		kmax    = fs.Float64("kmax", 0, "DCQCN K_max override, KB (0: default 200)")
		workers = fs.Int("workers", 0, "parallel workers (0: GOMAXPROCS)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(code int, format string, a ...any) int {
		fmt.Fprintf(stderr, "phasemargin: "+format+"\n", a...)
		return code
	}

	// Refuse every bad value and combination before any work starts, so
	// a mistyped flag ends in one line naming it rather than a silently
	// ignored override or a parameter error from deep in the grid.
	switch {
	case fs.NArg() > 0:
		return fail(2, "unexpected argument %q", fs.Arg(0))
	case *model != "dcqcn" && *model != "patched":
		return fail(2, "unknown -model %q (want dcqcn or patched)", *model)
	case *workers < 0:
		return fail(2, "-workers must be >= 0, got %d", *workers)
	}
	ns, err := cli.ParseInts(*flows)
	if err != nil {
		return fail(2, "bad -flows: %v", err)
	}
	for _, n := range ns {
		if n < 1 || n > fixedpoint.MaxFlows {
			return fail(2, "-flows: N=%d outside [1, %.0f]", n, fixedpoint.MaxFlows)
		}
	}
	if n, ok := cli.Repeat(ns); ok {
		return fail(2, "-flows repeats N=%d", n)
	}
	out := bufio.NewWriter(stdout)

	switch *model {
	case "dcqcn":
		ds, err := cli.ParseFloats(*delays)
		if err != nil {
			return fail(2, "bad -delays: %v", err)
		}
		if d, ok := cli.Repeat(ds); ok {
			return fail(2, "-delays repeats %g", d)
		}
		// The overrides are checked one at a time against the defaults,
		// so a parameter error names the flag that caused it.
		for _, d := range ds {
			if err := dcqcnParams(1, d, 0, 0).Validate(); err != nil {
				return fail(2, "-delays %g: %v", d, err)
			}
		}
		if err := dcqcnParams(1, ds[0], *rai, 0).Validate(); err != nil {
			return fail(2, "-rai %g: %v", *rai, err)
		}
		if err := dcqcnParams(1, ds[0], 0, *kmax).Validate(); err != nil {
			return fail(2, "-kmax %g: %v", *kmax, err)
		}
		// Theorem 1's fixed point does not depend on τ*, and it stops
		// existing past some N (22,519 at the defaults), so each N is
		// solved once, largest first, before the grid would run every
		// cell and then fail on the first one without a root.
		desc := slices.Clone(ns)
		slices.Sort(desc)
		for i := len(desc) - 1; i >= 0; i-- {
			n := desc[i]
			if _, err := fixedpoint.SolveDCQCN(dcqcnParams(n, ds[0], *rai, *kmax)); err != nil {
				return fail(2, "-flows: N=%d has no Theorem 1 fixed point: %v", n, err)
			}
		}
		results, err := runGrid(dcqcnJobs(ns, ds, *rai, *kmax), *workers)
		if err == nil {
			err = renderDCQCN(out, ns, ds, results)
		}
		if err != nil {
			return fail(1, "%v", err)
		}
	case "patched":
		dcqcnOnly := ""
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "delays" || f.Name == "rai" || f.Name == "kmax" {
				dcqcnOnly = f.Name
			}
		})
		if dcqcnOnly != "" {
			return fail(2, "-%s applies only to -model dcqcn", dcqcnOnly)
		}
		results, err := runGrid(patchedJobs(ns), *workers)
		if err != nil {
			return fail(1, "%v", err)
		}
		renderPatched(out, ns, results)
	}
	if err := out.Flush(); err != nil {
		return fail(1, "%v", err)
	}
	return 0
}

// renderDCQCN writes the Figure 3 grid as TSV from row-major results.
// Any failed cell aborts the table: a margin that cannot be computed on
// this grid is an input error, not a data point.
func renderDCQCN(out io.Writer, ns []int, ds []float64, results []sweep.Result) error {
	fmt.Fprint(out, "# N")
	for _, d := range ds {
		fmt.Fprintf(out, "\tpm_%.0fus", d*1e6)
	}
	fmt.Fprintln(out)
	for i, n := range ns {
		fmt.Fprintf(out, "%d", n)
		for j := range ds {
			r := results[i*len(ds)+j]
			if r.Err != "" {
				return fmt.Errorf("%s", r.Err)
			}
			fmt.Fprintf(out, "\t%.2f", r.Metrics["pm_deg"])
		}
		fmt.Fprintln(out)
	}
	return nil
}

// renderPatched writes the Figure 11 table; a failed row (typically no
// fixed point at that N) renders inline, as the serial version did.
func renderPatched(out io.Writer, ns []int, results []sweep.Result) {
	fmt.Fprintln(out, "# N\tq_star_kb\tpm_deg\tstable")
	for i, n := range ns {
		r := results[i]
		if r.Err != "" {
			fmt.Fprintf(out, "%d\t-\t-\t%s\n", n, r.Err)
			continue
		}
		fmt.Fprintf(out, "%d\t%.1f\t%.2f\t%v\n",
			n, r.Metrics["q_star_kb"], r.Metrics["pm_deg"], r.Metrics["stable"] > 0)
	}
}

// runGrid fans the jobs out and returns results in job order.
func runGrid(jobs []sweep.Job, workers int) ([]sweep.Result, error) {
	sink := &sweep.MemorySink{}
	if _, err := sweep.Run(sweep.Config{Workers: workers}, jobs, sink); err != nil {
		return nil, err
	}
	return sink.Results(), nil
}

// dcqcnJobs builds one job per (N, τ*) cell, in row-major order.
func dcqcnJobs(ns []int, ds []float64, rai, kmax float64) []sweep.Job {
	var jobs []sweep.Job
	for _, n := range ns {
		for _, d := range ds {
			p := dcqcnParams(n, d, rai, kmax)
			jobs = append(jobs, sweep.Job{
				ID:  fmt.Sprintf("dcqcn/n%d/d%g", n, d),
				Run: func(int64) (map[string]float64, error) { return exp.DCQCNMargin(p) },
			})
		}
	}
	return jobs
}

// dcqcnParams returns the Figure 3 parameters of one grid cell: the
// defaults at n flows and feedback delay d, with R_AI (bits/s) and K_max
// (KB) overridden where non-zero.
func dcqcnParams(n int, d, rai, kmax float64) fixedpoint.DCQCNParams {
	p := fluid.DefaultDCQCNParams(n)
	p.TauStar = d
	if rai != 0 {
		p.RAI = rai / 8 / 1000
	}
	if kmax != 0 {
		p.Kmax = kmax
	}
	return p
}

// patchedJobs builds one job per flow count. A loop-construction error
// (no fixed point) is a row value, not a sweep failure.
func patchedJobs(ns []int) []sweep.Job {
	var jobs []sweep.Job
	for _, n := range ns {
		jobs = append(jobs, sweep.Job{
			ID:  fmt.Sprintf("patched/n%d", n),
			Run: func(int64) (map[string]float64, error) { return exp.PatchedMargin(n) },
		})
	}
	return jobs
}
