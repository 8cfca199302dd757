// Command sweep runs a parameter grid of experiments through the
// parallel sweep engine, checkpointing one JSONL row per job so an
// interrupted sweep resumes where it stopped.
//
// Three grid kinds exist:
//
//   - pm: phase-margin cells over model × flows × delays — the raw
//     numbers behind Figures 3 and 11:
//
//     sweep -kind pm -model dcqcn,patched -flows 1:64 \
//     -delays 1e-6,25e-6,50e-6,85e-6,100e-6 -workers 8 -out pm.jsonl
//
//   - exp: registered experiments (see ecnbench -list) × seeds:
//
//     sweep -kind exp -exp fig14,fig15 -seeds 1:8 -full \
//     -workers 4 -out fct.jsonl -resume
//
//   - crossval: the hybrid fluid↔packet cross-validation operating
//     points, one job each; a row fails if any oracle check lands
//     outside its tolerance:
//
//     sweep -kind crossval -workers 4 -out crossval.jsonl
//
// Each row records the job id, its grid coordinates, the derived seed
// and the experiment's metrics. Re-running with -resume skips every
// job already checkpointed as successful; failed jobs run again. Rows
// are deterministic: sorting the file by job id gives byte-identical
// output for any -workers value.
//
// Exit status: 0 if every job succeeded, 1 if any failed, 2 on usage
// errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"ecndelay/internal/cli"
	"ecndelay/internal/exp"
	"ecndelay/internal/fluid"
	"ecndelay/internal/hybrid"
	"ecndelay/internal/obs"
	"ecndelay/internal/sweep"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}

func run(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		kind     = fs.String("kind", "pm", "grid kind: pm | exp | crossval")
		model    = fs.String("model", "dcqcn", "pm: comma list of dcqcn | patched")
		flows    = fs.String("flows", "1:64", "pm: N range lo:hi or comma list")
		delays   = fs.String("delays", "1e-6,25e-6,50e-6,85e-6,100e-6", "pm: DCQCN τ* values, seconds")
		expFlag  = fs.String("exp", "all", "exp: experiment id, comma list, or 'all'")
		seeds    = fs.String("seeds", "", "exp: seed range lo:hi or comma list (empty: one derived seed per job)")
		full     = fs.Bool("full", false, "exp: paper-scale instead of quick")
		out      = fs.String("out", "sweep.jsonl", "JSONL checkpoint file")
		resume   = fs.Bool("resume", false, "skip jobs already completed in -out")
		workers  = fs.Int("workers", 0, "parallel workers (0: GOMAXPROCS)")
		timeout  = fs.Duration("timeout", 0, "per-job timeout (0: none)")
		retries  = fs.Int("retries", 0, "extra attempts per failed job")
		seed     = fs.Int64("seed", 1, "base seed for per-job seed derivation")
		quiet    = fs.Bool("quiet", false, "suppress progress reporting")
		failFast = fs.Bool("fail-fast", false, "stop dispatching new jobs after the first job exhausts its retries (completed rows are kept)")
		flags    = cli.Register(fs, true)
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "sweep: "+format+"\n", a...)
		return 2
	}
	// Refuse a value no sweep can use, and a flag the grid kind would
	// silently ignore, before any file is opened.
	switch {
	case fs.NArg() > 0:
		return usage("unexpected argument %q", fs.Arg(0))
	case *workers < 0:
		return usage("-workers must be >= 0, got %d", *workers)
	case *timeout < 0:
		return usage("-timeout must be >= 0, got %v", *timeout)
	case *retries < 0:
		return usage("-retries must be >= 0, got %d", *retries)
	}
	set := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	for _, name := range ignored[*kind] {
		if set[name] {
			return usage("-%s does not apply to -kind %s", name, *kind)
		}
	}
	dcqcn := false
	for _, m := range strings.Split(*model, ",") {
		dcqcn = dcqcn || strings.TrimSpace(m) == "dcqcn"
	}
	if set["delays"] && !dcqcn {
		return usage("-delays applies only to -model dcqcn")
	}

	// One shared observer serves every job through its ForJob copy
	// (exp.SweepJobs): counters are atomic, each job's child checker owns
	// the books of its networks, and each job's probes and histograms
	// carry the job id as a name prefix, so metrics, invariant verdicts
	// and the probe/histogram exports are the same for any -workers
	// value. Trace and audit get one file per job, so each of those is
	// byte-identical for any -workers value too. The pm and crossval
	// grids refuse the observer flags above, so they run unobserved.
	sess, err := flags.Open("sweep", obs.Header{Seed: *seed}, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "sweep: %v\n", err)
		return 2
	}
	defer sess.Close()

	jobs, err := buildJobs(*kind, *model, *flows, *delays, *expFlag, *seeds, *full, sess.Observer)
	if err != nil {
		fmt.Fprintf(stderr, "sweep: %v\n", err)
		return 2
	}

	sink, err := sweep.OpenJSONL(*out, *resume)
	if err != nil {
		fmt.Fprintf(stderr, "sweep: %v\n", err)
		return 2
	}
	defer sink.Close()
	if *resume && sink.Resumed() > 0 {
		// Count against this grid: a stale checkpoint may hold jobs
		// that are no longer part of it.
		done := 0
		for _, j := range jobs {
			if sink.Completed(j.ID) {
				done++
			}
		}
		fmt.Fprintf(stderr, "sweep: resuming, %d of %d jobs already done\n", done, len(jobs))
	}

	var progress io.Writer
	if !*quiet {
		progress = stderr
	}
	sum, err := sweep.Run(sweep.Config{
		Workers:  *workers,
		Timeout:  *timeout,
		Retries:  *retries,
		BaseSeed: *seed,
		Progress: progress,
		FailFast: *failFast,
	}, jobs, sink)
	if err != nil {
		fmt.Fprintf(stderr, "sweep: %v\n", err)
		return 1
	}
	if code := sess.Finish(); code != 0 {
		return code
	}
	if sum.Failed > 0 {
		if sum.Cancelled > 0 {
			fmt.Fprintf(stderr, "sweep: fail-fast: %d job(s) left undispatched after the first failure; completed rows are checkpointed in %s\n", sum.Cancelled, *out)
		}
		fmt.Fprintf(stderr, "sweep: %d of %d jobs failed (see %s)\n", sum.Failed, sum.Total, *out)
		return 1
	}
	return 0
}

// ignored names, per grid kind, the flags that kind has no input for.
// Only the exp grid hands the observer to its jobs, so the observer flags
// would leave the pm and crossval exports empty.
var ignored = map[string][]string{
	"pm":       append([]string{"exp", "seeds", "full"}, observerFlags...),
	"exp":      {"model", "flows", "delays"},
	"crossval": append([]string{"model", "flows", "delays", "exp", "seeds", "full"}, observerFlags...),
}

var observerFlags = []string{"metrics", "trace", "probe", "probe-every", "hist", "audit", "invariants"}

// buildJobs expands the flag grid into the job matrix.
func buildJobs(kind, model, flows, delays, expFlag, seeds string, full bool, ob *obs.NetObserver) ([]sweep.Job, error) {
	switch kind {
	case "pm":
		ns, err := cli.ParseInts(flows)
		if err != nil {
			return nil, fmt.Errorf("bad -flows: %v", err)
		}
		var jobs []sweep.Job
		for _, m := range strings.Split(model, ",") {
			switch m = strings.TrimSpace(m); m {
			case "dcqcn":
				ds, err := cli.ParseFloats(delays)
				if err != nil {
					return nil, fmt.Errorf("bad -delays: %v", err)
				}
				for _, n := range ns {
					for _, d := range ds {
						jobs = append(jobs, pmDCQCNJob(n, d))
					}
				}
			case "patched":
				for _, n := range ns {
					jobs = append(jobs, pmPatchedJob(n))
				}
			default:
				return nil, fmt.Errorf("unknown -model %q", m)
			}
		}
		return jobs, nil
	case "exp":
		var ids []string
		if expFlag == "all" {
			for _, r := range exp.Runners() {
				ids = append(ids, r.ID)
			}
		} else {
			for _, id := range strings.Split(expFlag, ",") {
				ids = append(ids, strings.TrimSpace(id))
			}
		}
		var seedList []int64
		if seeds != "" {
			ns, err := cli.ParseInts(seeds)
			if err != nil {
				return nil, fmt.Errorf("bad -seeds: %v", err)
			}
			for _, n := range ns {
				seedList = append(seedList, int64(n))
			}
		}
		opts := exp.Options{Scale: exp.Quick, Observer: ob}
		if full {
			opts.Scale = exp.Full
		}
		return exp.SweepJobs(ids, opts, seedList)
	case "crossval":
		var jobs []sweep.Job
		for _, op := range hybrid.CIOperatingPoints() {
			jobs = append(jobs, crossvalJob(op))
		}
		return jobs, nil
	default:
		return nil, fmt.Errorf("unknown -kind %q (want pm, exp or crossval)", kind)
	}
}

// crossvalJob cross-validates one hybrid operating point. The row's
// metrics are the per-check relative errors; the job fails if any check
// lands outside its documented tolerance.
func crossvalJob(op hybrid.OpPoint) sweep.Job {
	return sweep.Job{
		ID:   fmt.Sprintf("crossval/%s/n%d", op.Proto, op.N),
		Meta: map[string]string{"proto": op.Proto, "flows": fmt.Sprint(op.N)},
		Run: func(seed int64) (map[string]float64, error) {
			res, err := hybrid.RunOp(op, seed, nil)
			if err != nil {
				return nil, err
			}
			m := make(map[string]float64, len(res.Checks))
			for _, c := range res.Checks {
				m[c.Name+"_rel"] = c.RelErr()
			}
			return m, res.Err()
		},
	}
}

// pmDCQCNJob computes one Figure 3 grid cell.
func pmDCQCNJob(n int, d float64) sweep.Job {
	p := fluid.DefaultDCQCNParams(n)
	p.TauStar = d
	return sweep.Job{
		ID:   fmt.Sprintf("pm/dcqcn/n%d/d%g", n, d),
		Meta: map[string]string{"model": "dcqcn", "flows": fmt.Sprint(n), "delay": fmt.Sprint(d)},
		Run:  func(int64) (map[string]float64, error) { return exp.DCQCNMargin(p) },
	}
}

// pmPatchedJob computes one Figure 11 row.
func pmPatchedJob(n int) sweep.Job {
	return sweep.Job{
		ID:   fmt.Sprintf("pm/patched/n%d", n),
		Meta: map[string]string{"model": "patched", "flows": fmt.Sprint(n)},
		Run:  func(int64) (map[string]float64, error) { return exp.PatchedMargin(n) },
	}
}
