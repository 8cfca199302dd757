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
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"ecndelay"
	"ecndelay/internal/prof"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}

func run(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile to this file on exit")
		kind       = fs.String("kind", "pm", "grid kind: pm | exp | crossval")
		model      = fs.String("model", "dcqcn", "pm: comma list of dcqcn | patched")
		flows      = fs.String("flows", "1:64", "pm: N range lo:hi or comma list")
		delays     = fs.String("delays", "1e-6,25e-6,50e-6,85e-6,100e-6", "pm: DCQCN τ* values, seconds")
		expFlag    = fs.String("exp", "all", "exp: experiment id, comma list, or 'all'")
		seeds      = fs.String("seeds", "", "exp: seed range lo:hi or comma list (empty: one derived seed per job)")
		full       = fs.Bool("full", false, "exp: paper-scale instead of quick")
		out        = fs.String("out", "sweep.jsonl", "JSONL checkpoint file")
		resume     = fs.Bool("resume", false, "skip jobs already completed in -out")
		workers    = fs.Int("workers", 0, "parallel workers (0: GOMAXPROCS)")
		timeout    = fs.Duration("timeout", 0, "per-job timeout (0: none)")
		retries    = fs.Int("retries", 0, "extra attempts per failed job")
		seed       = fs.Int64("seed", 1, "base seed for per-job seed derivation")
		quiet      = fs.Bool("quiet", false, "suppress progress reporting")

		metricsFile = fs.String("metrics", "", "exp: write end-of-run counters as TSV to this file")
		traceFile   = fs.String("trace", "", "exp: write per-job event traces as JSONL files derived from this path")
		probeFile   = fs.String("probe", "", "exp: write probe time series as JSONL to this file")
		probeEvery  = fs.Float64("probe-every", 1e-4, "exp: probe sampling cadence, seconds")
		invariants  = fs.Bool("invariants", false, "exp: check runtime invariants; violations exit nonzero")
		histFile    = fs.String("hist", "", "exp: write latency histogram percentiles to this file (.tsv: TSV, else JSONL)")
		auditFile   = fs.String("audit", "", "exp: write per-job control-loop audits as JSONL files derived from this path")
		serveAddr   = fs.String("serve", "", "serve live telemetry (/metrics, /progress, pprof) on this host:port")

		failFast = fs.Bool("fail-fast", false, "stop dispatching new jobs after the first job exhausts its retries (completed rows are kept)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintf(stderr, "sweep: %v\n", err)
		return 2
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintf(stderr, "sweep: %v\n", err)
		}
	}()

	// One shared observer serves every job: counters are atomic, the
	// checker serialises and keeps per-network books, and each job's
	// probes and histograms carry the job id as a name prefix
	// (ExperimentSweepJobs), so metrics, invariant verdicts and the
	// probe/histogram exports are the same for any -workers value. The
	// trace stream gets one file per job (derived from -trace via
	// TracePerJob), so each trace file is byte-identical for any -workers
	// value too. The pm grid is fluid-model only and never touches the
	// observer.
	// Self-describing header for every JSONL export; fs.Visit walks only
	// explicitly set flags, in name order. Flags that steer execution but
	// cannot change a row or an export record are excluded, so per-job
	// files stay byte-identical for any -workers value.
	header := func(schema string) ecndelay.ExportHeader {
		skip := map[string]bool{"workers": true, "quiet": true, "resume": true}
		var parts []string
		fs.Visit(func(f *flag.Flag) {
			if skip[f.Name] {
				return
			}
			parts = append(parts, f.Name+"="+f.Value.String())
		})
		return ecndelay.ExportHeader{
			Schema: schema, Version: 1, Seed: *seed,
			Flags: strings.Join(parts, " "),
		}
	}

	var observer *ecndelay.Observer
	var traces *jobTraces
	var audits *jobAudits
	if *metricsFile != "" || *traceFile != "" || *probeFile != "" || *invariants ||
		*histFile != "" || *serveAddr != "" || *auditFile != "" {
		observer = &ecndelay.Observer{ProbeEvery: ecndelay.DurationFromSeconds(*probeEvery)}
		if *metricsFile != "" || *serveAddr != "" {
			observer.Metrics = ecndelay.NewMetricsRegistry()
		}
		if *traceFile != "" {
			traces = &jobTraces{base: *traceFile, header: header("trace")}
			observer.TracePerJob = traces.tracer
		}
		if *probeFile != "" {
			observer.Probes = ecndelay.NewProbeSet()
			observer.Probes.SetHeader(header("probe"))
		}
		if *invariants {
			observer.Check = ecndelay.NewInvariantChecker()
		}
		if *histFile != "" || *serveAddr != "" || *auditFile != "" {
			observer.Hists = ecndelay.NewHistSet()
		}
		if *auditFile != "" {
			audits = &jobAudits{base: *auditFile, header: header("audit")}
			observer.AuditPerJob = audits.trail
		}
	}

	jobs, err := buildJobs(*kind, *model, *flows, *delays, *expFlag, *seeds, *full, observer)
	if err != nil {
		fmt.Fprintf(stderr, "sweep: %v\n", err)
		return 2
	}

	sink, err := ecndelay.OpenSweepJSONL(*out, *resume)
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

	var status *ecndelay.SweepStatus
	if *serveAddr != "" {
		status = ecndelay.NewSweepStatus()
		srv := ecndelay.NewTelemetryServer(observer)
		srv.SetProgress(func() any { return status.Snapshot() })
		addr, err := srv.Start(*serveAddr)
		if err != nil {
			fmt.Fprintf(stderr, "sweep: %v\n", err)
			return 2
		}
		// Drain in-flight scrapes on exit and on SIGINT/SIGTERM rather
		// than dropping them mid-body.
		defer srv.Shutdown(2 * time.Second)
		defer shutdownOnSignal(srv, stderr)()
		fmt.Fprintf(stderr, "sweep: serving telemetry on http://%s\n", addr)
	}

	var progress io.Writer
	if !*quiet {
		progress = stderr
	}
	sum, err := ecndelay.RunSweep(ecndelay.SweepConfig{
		Workers:  *workers,
		Timeout:  *timeout,
		Retries:  *retries,
		BaseSeed: *seed,
		Progress: progress,
		Status:   status,
		FailFast: *failFast,
	}, jobs, sink)
	if err != nil {
		fmt.Fprintf(stderr, "sweep: %v\n", err)
		return 1
	}
	if observer != nil {
		if code := finishObs(observer, traces, audits, *metricsFile, *probeFile, *histFile, stderr); code != 0 {
			return code
		}
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

// shutdownOnSignal drains the telemetry server with a bounded deadline
// before the process dies on SIGINT/SIGTERM, so in-flight scrapes
// complete instead of being cut mid-body. The returned stop func
// detaches the handler on the normal exit path.
func shutdownOnSignal(srv *ecndelay.TelemetryServer, stderr io.Writer) func() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		select {
		case s := <-ch:
			fmt.Fprintf(stderr, "sweep: %v: draining telemetry server\n", s)
			_ = srv.Shutdown(5 * time.Second)
			os.Exit(1)
		case <-done:
		}
	}()
	return func() { signal.Stop(ch); close(done) }
}

// finishObs flushes the observability outputs and reports invariant
// violations; returns a nonzero exit code on failure.
func finishObs(o *ecndelay.Observer, traces *jobTraces, audits *jobAudits, metricsPath, probePath, histPath string, stderr io.Writer) int {
	if traces != nil {
		if err := traces.close(); err != nil {
			fmt.Fprintf(stderr, "sweep: %v\n", err)
			return 1
		}
	}
	if audits != nil {
		if err := audits.close(); err != nil {
			fmt.Fprintf(stderr, "sweep: %v\n", err)
			return 1
		}
	}
	write := func(path string, fn func(io.Writer) error) error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := fn(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if metricsPath != "" {
		if err := write(metricsPath, o.Metrics.WriteTSV); err != nil {
			fmt.Fprintf(stderr, "sweep: %v\n", err)
			return 1
		}
	}
	if probePath != "" {
		if err := write(probePath, o.Probes.WriteJSONL); err != nil {
			fmt.Fprintf(stderr, "sweep: %v\n", err)
			return 1
		}
	}
	if histPath != "" {
		fn := o.Hists.WriteJSONL
		if strings.HasSuffix(histPath, ".tsv") {
			fn = o.Hists.WriteTSV
		}
		if err := write(histPath, fn); err != nil {
			fmt.Fprintf(stderr, "sweep: %v\n", err)
			return 1
		}
	}
	if c := o.Check; c != nil && c.Total() > 0 {
		for _, v := range c.Violations() {
			fmt.Fprintf(stderr, "sweep: invariant violation: %s\n", v)
		}
		fmt.Fprintf(stderr, "sweep: %d invariant violation(s)\n", c.Total())
		return 1
	}
	return 0
}

// jobTraces opens one JSONL trace file per sweep job, deriving each
// path from the -trace flag value: trace.jsonl becomes
// trace.<jobid>.jsonl, with "/" in the job id replaced by "_". Because
// each job owns its file, every trace file is byte-identical for any
// -workers value. tracer is called from worker goroutines, so it
// serialises; the first open error is latched and surfaces at close.
type jobTraces struct {
	base   string
	header ecndelay.ExportHeader
	mu     sync.Mutex
	sinks  []*ecndelay.TraceJSONLSink
	err    error
}

// pathFor derives the per-job trace file name from the base path.
func (t *jobTraces) pathFor(jobID string) string {
	id := strings.ReplaceAll(jobID, "/", "_")
	ext := filepath.Ext(t.base)
	return strings.TrimSuffix(t.base, ext) + "." + id + ext
}

func (t *jobTraces) tracer(jobID string) *ecndelay.Tracer {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(t.pathFor(jobID))
	if err != nil {
		if t.err == nil {
			t.err = err
		}
		return nil
	}
	sink := ecndelay.NewTraceJSONLSink(f)
	sink.WriteHeader(t.header)
	t.sinks = append(t.sinks, sink)
	return ecndelay.NewTracer(sink)
}

// close flushes every per-job file and returns the first error seen.
func (t *jobTraces) close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	err := t.err
	for _, s := range t.sinks {
		if cerr := s.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// jobAudits opens one control-loop audit trail per sweep job, writing
// audit.<jobid>.jsonl next to the -audit base path (jobTraces naming).
// Each job owns its file and the sink sorts into canonical record order
// on close, so every audit file is byte-identical for any -workers
// value. trail is called from worker goroutines, so it serialises; the
// first open error is latched and surfaces at close.
type jobAudits struct {
	base   string
	header ecndelay.ExportHeader
	mu     sync.Mutex
	sinks  []*ecndelay.AuditJSONLSink
	err    error
}

// pathFor derives the per-job audit file name from the base path.
func (a *jobAudits) pathFor(jobID string) string {
	id := strings.ReplaceAll(jobID, "/", "_")
	ext := filepath.Ext(a.base)
	return strings.TrimSuffix(a.base, ext) + "." + id + ext
}

func (a *jobAudits) trail(jobID string) *ecndelay.AuditTrail {
	a.mu.Lock()
	defer a.mu.Unlock()
	f, err := os.Create(a.pathFor(jobID))
	if err != nil {
		if a.err == nil {
			a.err = err
		}
		return nil
	}
	sink := ecndelay.NewAuditJSONLSink(f, 1<<16)
	sink.SetHeader(a.header)
	a.sinks = append(a.sinks, sink)
	return ecndelay.NewAuditTrail(sink)
}

// close flushes every per-job file and returns the first error seen.
func (a *jobAudits) close() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	err := a.err
	for _, s := range a.sinks {
		if cerr := s.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// buildJobs expands the flag grid into the job matrix.
func buildJobs(kind, model, flows, delays, expFlag, seeds string, full bool, obs *ecndelay.Observer) ([]ecndelay.SweepJob, error) {
	switch kind {
	case "pm":
		ns, err := parseInts(flows)
		if err != nil {
			return nil, fmt.Errorf("bad -flows: %v", err)
		}
		var jobs []ecndelay.SweepJob
		for _, m := range strings.Split(model, ",") {
			switch m = strings.TrimSpace(m); m {
			case "dcqcn":
				ds, err := parseFloats(delays)
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
			for _, r := range ecndelay.Runners() {
				ids = append(ids, r.ID)
			}
		} else {
			for _, id := range strings.Split(expFlag, ",") {
				ids = append(ids, strings.TrimSpace(id))
			}
		}
		var seedList []int64
		if seeds != "" {
			ns, err := parseInts(seeds)
			if err != nil {
				return nil, fmt.Errorf("bad -seeds: %v", err)
			}
			for _, n := range ns {
				seedList = append(seedList, int64(n))
			}
		}
		opts := ecndelay.ExperimentOptions{Scale: ecndelay.Quick, Observer: obs}
		if full {
			opts.Scale = ecndelay.Full
		}
		return ecndelay.ExperimentSweepJobs(ids, opts, seedList)
	case "crossval":
		var jobs []ecndelay.SweepJob
		for _, op := range ecndelay.HybridCIOperatingPoints() {
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
func crossvalJob(op ecndelay.HybridOpPoint) ecndelay.SweepJob {
	return ecndelay.SweepJob{
		ID:   fmt.Sprintf("crossval/%s/n%d", op.Proto, op.N),
		Meta: map[string]string{"proto": op.Proto, "flows": fmt.Sprint(op.N)},
		Run: func(seed int64) (map[string]float64, error) {
			res, err := ecndelay.RunHybridCrossVal(op, seed)
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
func pmDCQCNJob(n int, d float64) ecndelay.SweepJob {
	return ecndelay.SweepJob{
		ID:   fmt.Sprintf("pm/dcqcn/n%d/d%g", n, d),
		Meta: map[string]string{"model": "dcqcn", "flows": fmt.Sprint(n), "delay": fmt.Sprint(d)},
		Run: func(int64) (map[string]float64, error) {
			p := ecndelay.DefaultDCQCNParams(n)
			p.TauStar = d
			loop, err := ecndelay.NewDCQCNLoop(p)
			if err != nil {
				return nil, err
			}
			res, err := ecndelay.PhaseMargin(loop)
			if err != nil {
				return nil, err
			}
			return map[string]float64{
				"pm_deg":          res.PhaseMarginDeg,
				"crossover_rad_s": res.CrossoverRadPerSec,
				"stable":          boolMetric(res.Stable),
			}, nil
		},
	}
}

// pmPatchedJob computes one Figure 11 row.
func pmPatchedJob(n int) ecndelay.SweepJob {
	return ecndelay.SweepJob{
		ID:   fmt.Sprintf("pm/patched/n%d", n),
		Meta: map[string]string{"model": "patched", "flows": fmt.Sprint(n)},
		Run: func(int64) (map[string]float64, error) {
			cfg := ecndelay.DefaultPatchedTimelyFluidConfig(n)
			loop, err := ecndelay.NewPatchedTimelyLoop(cfg)
			if err != nil {
				return nil, err
			}
			res, err := ecndelay.PhaseMargin(loop)
			if err != nil {
				return nil, err
			}
			sys, err := ecndelay.NewPatchedTimelyFluid(cfg)
			if err != nil {
				return nil, err
			}
			return map[string]float64{
				"pm_deg":    res.PhaseMarginDeg,
				"q_star_kb": sys.FixedPointQueue() / 1000,
				"stable":    boolMetric(res.Stable),
			}, nil
		},
	}
}

func boolMetric(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// parseInts accepts "lo:hi" (inclusive range) or a comma list.
func parseInts(s string) ([]int, error) {
	if lo, hi, ok := strings.Cut(s, ":"); ok {
		a, err := strconv.Atoi(lo)
		if err != nil {
			return nil, err
		}
		b, err := strconv.Atoi(hi)
		if err != nil {
			return nil, err
		}
		if a > b {
			return nil, fmt.Errorf("range %d:%d is backwards", a, b)
		}
		var out []int
		for i := a; i <= b; i++ {
			out = append(out, i)
		}
		return out, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// parseFloats accepts a comma list of floats.
func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
