// Command ecnbench regenerates the paper's tables and figures. Each
// experiment is addressed by the id of the table/figure it reproduces:
//
//	ecnbench -list
//	ecnbench -exp fig14
//	ecnbench -exp fig3,fig11 -full
//	ecnbench -exp all -full -workers 8
//	ecnbench -exp fig14,fig15 -seeds 1:8 -full -workers 4 -out fct.jsonl -resume
//
// Quick mode (default) runs down-scaled versions; -full runs paper-scale
// experiments (the FCT sweeps take a few minutes, so -workers > 1 pays
// off there). Reports always print in selection order, whatever order
// the experiments finish in.
//
// Without -seeds each experiment is one job, run at -seed. -seeds runs
// each experiment once per listed seed, as the job <id>/seed<s>. -out
// checkpoints one JSONL row per job: its id, its grid coordinates, the
// engine-derived seed and the experiment's metrics or error. Sorted by
// job id, the file is byte-identical for any -workers value. -resume
// skips every job the checkpoint already holds a success row for, so an
// interrupted grid picks up where it stopped; failed jobs run again.
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
		seeds   = fs.String("seeds", "", "run each experiment once per seed: range lo:hi or comma list")
		out     = fs.String("out", "", "checkpoint one JSONL row per job to this file")
		resume  = fs.Bool("resume", false, "skip the jobs -out already holds a success row for")
		list    = fs.Bool("list", false, "list available experiments and exit")
		workers = fs.Int("workers", 1, "experiments to run concurrently (0: GOMAXPROCS)")
		flags   = cli.Register(fs)
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "ecnbench: "+format+"\n", a...)
		return 2
	}
	switch {
	case fs.NArg() > 0:
		return usage("unexpected argument %q", fs.Arg(0))
	case *workers < 0:
		return usage("-workers must be >= 0, got %d", *workers)
	}
	if *list {
		fmt.Fprintf(stdout, "%-8s %-28s %s\n", "ID", "REPRODUCES", "TITLE")
		for _, r := range exp.Runners() {
			fmt.Fprintf(stdout, "%-8s %-28s %s\n", r.ID, r.Figure, r.Title)
		}
		return 0
	}

	// Refuse a bad grid before any file is opened, so a refused run leaves
	// an existing -out checkpoint as it was.
	seedSet := false
	fs.Visit(func(f *flag.Flag) { seedSet = seedSet || f.Name == "seed" })
	switch {
	case *resume && *out == "":
		return usage("-resume needs -out")
	case seedSet && *seeds != "":
		return usage("-seed does not apply with -seeds: each job runs at its listed seed")
	}
	var seedList []int64
	if *seeds != "" {
		ns, err := cli.ParseInts(*seeds)
		if err != nil {
			return usage("bad -seeds: %v", err)
		}
		if s, ok := cli.Repeat(ns); ok {
			return usage("-seeds repeats %d", s)
		}
		for _, n := range ns {
			seedList = append(seedList, int64(n))
		}
	}
	ids, err := selectIDs(*expFlag)
	if err != nil {
		return usage("%v", err)
	}

	// One shared observer serves every selected experiment (and worker)
	// through one NetObserver.ForJob copy per job (exp.SweepJobs):
	// counters are atomic, the tracer serialises internally, and each
	// copy's child checker owns the books of its networks, so metrics and
	// invariant verdicts are the same for any -workers value. Probe series,
	// histograms and counters carry the job id as a name prefix (the same
	// ForJob copy), so no two jobs share a row, and export
	// deterministically; the audit sorts at close. Only the -trace stream
	// interleaves jobs by completion order, so byte-stable traces need
	// -workers 1. Proto is empty in export headers: experiments mix
	// protocols, and each decision record names its own type.
	sess, err := flags.Open("ecnbench", obs.Header{Seed: *seed}, stderr)
	if err != nil {
		return usage("%v", err)
	}
	defer sess.Close()

	opts := exp.Options{Scale: exp.Quick, Seed: *seed, Observer: sess.Observer}
	if *full {
		opts.Scale = exp.Full
	}
	jobs, reports, err := exp.SweepJobs(ids, opts, seedList)
	if err != nil {
		return usage("%v", err)
	}
	elapsed := make([]time.Duration, len(jobs))
	for i := range jobs {
		run := jobs[i].Run
		jobs[i].Run = func(seed int64) (map[string]float64, error) {
			t0 := time.Now()
			m, err := run(seed)
			elapsed[i] = time.Since(t0)
			return m, err
		}
	}

	sink := &renderSink{jobs: jobs, reports: reports, elapsed: elapsed, stdout: stdout, stderr: stderr,
		done: make(map[string]bool), buf: make(map[int]sweep.Result)}
	if *out != "" {
		if sink.ckpt, err = sweep.OpenJSONL(*out, *resume); err != nil {
			return usage("%v", err)
		}
		for _, j := range jobs {
			if sink.ckpt.Completed(j.ID) {
				sink.done[j.ID] = true
			}
		}
	}
	if *resume {
		// Count against this grid: a stale checkpoint may hold jobs that
		// are no longer part of it.
		fmt.Fprintf(stderr, "ecnbench: resuming, %d of %d jobs already done\n", len(sink.done), len(jobs))
	}
	sum, err := sweep.Run(sweep.Config{Workers: *workers, BaseSeed: *seed}, jobs, sink)
	if sink.ckpt != nil {
		if cerr := sink.ckpt.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "ecnbench: %v\n", err)
		return 1
	}
	if code := sess.Finish(); code != 0 {
		return code
	}
	if sum.Failed > 0 {
		return 1
	}
	return 0
}

// selectIDs resolves -exp into experiment ids, refusing an unknown id and
// one listed twice.
func selectIDs(s string) ([]string, error) {
	var ids []string
	if s == "all" {
		for _, r := range exp.Runners() {
			ids = append(ids, r.ID)
		}
		return ids, nil
	}
	for _, id := range strings.Split(s, ",") {
		id = strings.TrimSpace(id)
		if _, ok := exp.Get(id); !ok {
			return nil, fmt.Errorf("unknown experiment %q (try -list)", id)
		}
		ids = append(ids, id)
	}
	if id, ok := cli.Repeat(ids); ok {
		return nil, fmt.Errorf("-exp repeats %q", id)
	}
	return ids, nil
}

// renderSink checkpoints each result to -out, when set, and renders the
// reports in job order while results arrive in completion order:
// out-of-order results wait in buf until their predecessors land, and
// the jobs the checkpoint already held, which never run, are stepped
// past. The engine delivers results from a single goroutine, so no
// locking is needed.
type renderSink struct {
	ckpt    *sweep.JSONLSink // nil without -out
	done    map[string]bool  // job ids the checkpoint held at the start
	jobs    []sweep.Job
	reports []*exp.Report
	elapsed []time.Duration
	stdout  io.Writer
	stderr  io.Writer

	buf  map[int]sweep.Result
	next int
}

func (s *renderSink) Completed(id string) bool { return s.done[id] }

func (s *renderSink) Write(r sweep.Result) error {
	if s.ckpt != nil {
		if err := s.ckpt.Write(r); err != nil {
			return err
		}
	}
	s.buf[r.Index] = r
	for ; s.next < len(s.jobs); s.next++ {
		if s.done[s.jobs[s.next].ID] {
			continue
		}
		rr, ok := s.buf[s.next]
		if !ok {
			return nil
		}
		delete(s.buf, s.next)
		if rr.Err != "" {
			fmt.Fprintf(s.stderr, "ecnbench: %s failed: %s\n", rr.JobID, rr.Err)
			continue
		}
		s.reports[rr.Index].Render(s.stdout)
		fmt.Fprintf(s.stdout, "[%s: %.1fs]\n\n", rr.JobID, s.elapsed[rr.Index].Seconds())
	}
	return nil
}
