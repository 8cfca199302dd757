// Command ecnbench regenerates the paper's tables and figures. Each
// experiment is addressed by the id of the table/figure it reproduces:
//
//	ecnbench -list
//	ecnbench -exp fig14
//	ecnbench -exp fig3,fig11 -full
//	ecnbench -exp all -full -workers 8
//
// Quick mode (default) runs down-scaled versions; -full runs paper-scale
// experiments (the FCT sweeps take a few minutes, so -workers > 1 pays
// off there). Reports always print in selection order, whatever order
// the experiments finish in.
//
// Exit status: 0 on success, 1 if any experiment failed, 2 on bad usage
// (including an unknown experiment id).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"ecndelay/internal/cli"
	"ecndelay/internal/exp"
	"ecndelay/internal/obs"
	"ecndelay/internal/sweep"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ecnbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		expFlag = fs.String("exp", "all", "experiment id, comma list, or 'all'")
		full    = fs.Bool("full", false, "run paper-scale experiments instead of quick versions")
		seed    = fs.Int64("seed", 1, "simulation seed")
		list    = fs.Bool("list", false, "list available experiments and exit")
		workers = fs.Int("workers", 1, "experiments to run concurrently (0: GOMAXPROCS)")
		flags   = cli.Register(fs, false)
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case fs.NArg() > 0:
		fmt.Fprintf(stderr, "ecnbench: unexpected argument %q\n", fs.Arg(0))
		return 2
	case *workers < 0:
		fmt.Fprintf(stderr, "ecnbench: -workers must be >= 0, got %d\n", *workers)
		return 2
	}
	if *list {
		fmt.Fprintf(stdout, "%-8s %-28s %s\n", "ID", "REPRODUCES", "TITLE")
		for _, r := range exp.Runners() {
			fmt.Fprintf(stdout, "%-8s %-28s %s\n", r.ID, r.Figure, r.Title)
		}
		return 0
	}

	// One shared observer serves every selected experiment (and worker)
	// through one NetObserver.ForJob copy per experiment: counters are
	// atomic, the tracer serialises internally, and each copy's child
	// checker owns the books of its networks, so metrics and invariant
	// verdicts are the same for any -workers value. Probe series,
	// histograms and counters carry the experiment id as a name prefix
	// (the same ForJob copy), so no two experiments share a row, and export
	// deterministically; only the -trace stream interleaves experiments
	// by completion order, so byte-stable traces need -workers 1. Proto is
	// empty in export headers: experiments mix protocols, and each
	// decision record names its own type.
	sess, err := flags.Open("ecnbench", obs.Header{Seed: *seed}, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "ecnbench: %v\n", err)
		return 2
	}
	defer sess.Close()

	opts := exp.Options{Scale: exp.Quick, Seed: *seed, Observer: sess.Observer}
	if *full {
		opts.Scale = exp.Full
	}

	var selected []exp.Runner
	if *expFlag == "all" {
		selected = exp.Runners()
	} else {
		for _, id := range strings.Split(*expFlag, ",") {
			id = strings.TrimSpace(id)
			r, ok := exp.Get(id)
			if !ok {
				fmt.Fprintf(stderr, "ecnbench: unknown experiment %q (try -list)\n", id)
				return 2
			}
			selected = append(selected, r)
		}
	}

	// Each experiment is one sweep job; the renderSink streams reports
	// to stdout in selection order as they complete. Every runner gets
	// the same -seed, as the serial version always did.
	reports := make([]*exp.Report, len(selected))
	elapsed := make([]time.Duration, len(selected))
	jobs := make([]sweep.Job, len(selected))
	for i, r := range selected {
		i, r := i, r
		jobs[i] = sweep.Job{
			ID: r.ID,
			Run: func(int64) (map[string]float64, error) {
				t0 := time.Now()
				o := opts
				o.Observer = opts.Observer.ForJob(r.ID)
				rep, err := r.Run(o)
				elapsed[i] = time.Since(t0)
				if err != nil {
					return nil, err
				}
				reports[i] = rep
				return rep.Metrics, nil
			},
		}
	}
	// No progress writer: each report streams with its own wall time, and
	// the sweep's lines would name the wrong command on stderr.
	sink := &renderSink{reports: reports, elapsed: elapsed, stdout: stdout, stderr: stderr}
	if _, err := sweep.Run(sweep.Config{Workers: *workers, BaseSeed: *seed}, jobs, sink); err != nil {
		fmt.Fprintf(stderr, "ecnbench: %v\n", err)
		return 1
	}
	if code := sess.Finish(); code != 0 {
		return code
	}
	if sink.failed > 0 {
		return 1
	}
	return 0
}

// renderSink renders experiment reports in submission order while
// results arrive in completion order: out-of-order results are buffered
// until their predecessors land. The engine delivers results from a
// single goroutine, so no locking is needed.
type renderSink struct {
	reports []*exp.Report
	elapsed []time.Duration
	stdout  io.Writer
	stderr  io.Writer

	buf    map[int]sweep.Result
	next   int
	failed int
}

func (s *renderSink) Completed(string) bool { return false }

func (s *renderSink) Write(r sweep.Result) error {
	if s.buf == nil {
		s.buf = make(map[int]sweep.Result)
	}
	s.buf[r.Index] = r
	for {
		rr, ok := s.buf[s.next]
		if !ok {
			return nil
		}
		delete(s.buf, s.next)
		s.next++
		if rr.Err != "" {
			fmt.Fprintf(s.stderr, "ecnbench: %s failed: %s\n", rr.JobID, rr.Err)
			s.failed++
			continue
		}
		s.reports[rr.Index].Render(s.stdout)
		fmt.Fprintf(s.stdout, "[%s: %.1fs]\n\n", rr.JobID, s.elapsed[rr.Index].Seconds())
	}
}
