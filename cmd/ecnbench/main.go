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
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ecndelay"
	"ecndelay/internal/prof"
)

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
			fmt.Fprintf(stderr, "ecnbench: %v: draining telemetry server\n", s)
			_ = srv.Shutdown(5 * time.Second)
			os.Exit(1)
		case <-done:
		}
	}()
	return func() { signal.Stop(ch); close(done) }
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ecnbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		expFlag    = fs.String("exp", "all", "experiment id, comma list, or 'all'")
		full       = fs.Bool("full", false, "run paper-scale experiments instead of quick versions")
		seed       = fs.Int64("seed", 1, "simulation seed")
		list       = fs.Bool("list", false, "list available experiments and exit")
		workers    = fs.Int("workers", 1, "experiments to run concurrently (0: GOMAXPROCS)")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile to this file on exit")

		metricsFile = fs.String("metrics", "", "write end-of-run counters as TSV to this file")
		traceFile   = fs.String("trace", "", "stream the event trace as JSONL to this file")
		probeFile   = fs.String("probe", "", "write probe time series as JSONL to this file")
		probeEvery  = fs.Float64("probe-every", 1e-4, "probe sampling cadence, seconds")
		invariants  = fs.Bool("invariants", false, "check runtime invariants; violations exit nonzero")
		histFile    = fs.String("hist", "", "write latency histogram percentiles to this file (.tsv: TSV, else JSONL)")
		auditFile   = fs.String("audit", "", "write the control-loop decision audit as JSONL to this file")
		serveAddr   = fs.String("serve", "", "serve live telemetry (/metrics, /progress, pprof) on this host:port")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	// Self-describing header for every JSONL export; fs.Visit walks only
	// explicitly set flags, in name order. Proto is empty: experiments mix
	// protocols, and each decision record names its own type.
	header := func(schema string) ecndelay.ExportHeader {
		var parts []string
		fs.Visit(func(f *flag.Flag) {
			parts = append(parts, f.Name+"="+f.Value.String())
		})
		return ecndelay.ExportHeader{
			Schema: schema, Version: 1, Seed: *seed,
			Flags: strings.Join(parts, " "),
		}
	}
	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintf(stderr, "ecnbench: %v\n", err)
		return 2
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintf(stderr, "ecnbench: %v\n", err)
		}
	}()

	if *list {
		fmt.Fprintf(stdout, "%-8s %-28s %s\n", "ID", "REPRODUCES", "TITLE")
		for _, r := range ecndelay.Runners() {
			fmt.Fprintf(stdout, "%-8s %-28s %s\n", r.ID, r.Figure, r.Title)
		}
		return 0
	}

	opts := ecndelay.ExperimentOptions{Scale: ecndelay.Quick, Seed: *seed}
	if *full {
		opts.Scale = ecndelay.Full
	}

	// One shared observer serves every selected experiment (and worker):
	// counters are atomic, the tracer and checker serialise internally,
	// and the checker keeps per-network books, so metrics and invariant
	// verdicts are the same for any -workers value. Probe series carry the
	// experiment id as a name prefix (see JobObserver) and export
	// deterministically; only the -trace stream interleaves experiments
	// by completion order, so byte-stable traces need -workers 1.
	var observer *ecndelay.Observer
	var traceSink *ecndelay.TraceJSONLSink
	var auditSink *ecndelay.AuditJSONLSink
	if *metricsFile != "" || *traceFile != "" || *probeFile != "" || *invariants ||
		*histFile != "" || *serveAddr != "" || *auditFile != "" {
		observer = &ecndelay.Observer{ProbeEvery: ecndelay.DurationFromSeconds(*probeEvery)}
		if *metricsFile != "" || *serveAddr != "" {
			observer.Metrics = ecndelay.NewMetricsRegistry()
		}
		if *traceFile != "" {
			f, err := os.Create(*traceFile)
			if err != nil {
				fmt.Fprintf(stderr, "ecnbench: %v\n", err)
				return 2
			}
			traceSink = ecndelay.NewTraceJSONLSink(f)
			traceSink.WriteHeader(header("trace"))
			observer.Trace = ecndelay.NewTracer(traceSink)
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
			// One shared trail: decisions from concurrently running
			// experiments interleave under the trail's lock, and the sink
			// sorts into canonical order on Close, so the file is
			// byte-identical for any -workers value.
			f, err := os.Create(*auditFile)
			if err != nil {
				fmt.Fprintf(stderr, "ecnbench: %v\n", err)
				return 2
			}
			auditSink = ecndelay.NewAuditJSONLSink(f, 1<<16)
			auditSink.SetHeader(header("audit"))
			observer.Audit = ecndelay.NewAuditTrail(auditSink)
		}
		opts.Observer = observer
	}

	var status *ecndelay.SweepStatus
	if *serveAddr != "" {
		status = ecndelay.NewSweepStatus()
		srv := ecndelay.NewTelemetryServer(observer)
		srv.SetProgress(func() any { return status.Snapshot() })
		addr, err := srv.Start(*serveAddr)
		if err != nil {
			fmt.Fprintf(stderr, "ecnbench: %v\n", err)
			return 2
		}
		defer srv.Shutdown(2 * time.Second)
		defer shutdownOnSignal(srv, stderr)()
		fmt.Fprintf(stderr, "ecnbench: serving telemetry on http://%s\n", addr)
	}

	var selected []ecndelay.Experiment
	if *expFlag == "all" {
		selected = ecndelay.Runners()
	} else {
		for _, id := range strings.Split(*expFlag, ",") {
			id = strings.TrimSpace(id)
			r, ok := ecndelay.GetRunner(id)
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
	reports := make([]*ecndelay.Report, len(selected))
	elapsed := make([]time.Duration, len(selected))
	jobs := make([]ecndelay.SweepJob, len(selected))
	for i, r := range selected {
		i, r := i, r
		jobs[i] = ecndelay.SweepJob{
			ID: r.ID,
			Run: func(int64) (map[string]float64, error) {
				t0 := time.Now()
				o := opts
				o.Observer = ecndelay.JobObserver(opts.Observer, r.ID)
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
	sink := &renderSink{reports: reports, elapsed: elapsed, stdout: stdout, stderr: stderr}
	var progress io.Writer
	if *workers != 1 {
		progress = stderr
	}
	if _, err := ecndelay.RunSweep(ecndelay.SweepConfig{
		Workers: *workers, BaseSeed: *seed, Progress: progress, Status: status,
	}, jobs, sink); err != nil {
		fmt.Fprintf(stderr, "ecnbench: %v\n", err)
		return 1
	}
	if observer != nil {
		if code := finishObs(observer, traceSink, auditSink, *metricsFile, *probeFile, *histFile, stderr); code != 0 {
			return code
		}
	}
	if sink.failed > 0 {
		return 1
	}
	return 0
}

// finishObs flushes the observability outputs and reports invariant
// violations; returns a nonzero exit code on failure.
func finishObs(o *ecndelay.Observer, trace *ecndelay.TraceJSONLSink, audit *ecndelay.AuditJSONLSink, metricsPath, probePath, histPath string, stderr io.Writer) int {
	if trace != nil {
		if err := trace.Close(); err != nil {
			fmt.Fprintf(stderr, "ecnbench: %v\n", err)
			return 1
		}
	}
	if audit != nil {
		if err := audit.Close(); err != nil {
			fmt.Fprintf(stderr, "ecnbench: %v\n", err)
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
			fmt.Fprintf(stderr, "ecnbench: %v\n", err)
			return 1
		}
	}
	if probePath != "" {
		if err := write(probePath, o.Probes.WriteJSONL); err != nil {
			fmt.Fprintf(stderr, "ecnbench: %v\n", err)
			return 1
		}
	}
	if histPath != "" {
		fn := o.Hists.WriteJSONL
		if strings.HasSuffix(histPath, ".tsv") {
			fn = o.Hists.WriteTSV
		}
		if err := write(histPath, fn); err != nil {
			fmt.Fprintf(stderr, "ecnbench: %v\n", err)
			return 1
		}
	}
	if c := o.Check; c != nil && c.Total() > 0 {
		for _, v := range c.Violations() {
			fmt.Fprintf(stderr, "ecnbench: invariant violation: %s\n", v)
		}
		fmt.Fprintf(stderr, "ecnbench: %d invariant violation(s)\n", c.Total())
		return 1
	}
	return 0
}

// renderSink renders experiment reports in submission order while
// results arrive in completion order: out-of-order results are buffered
// until their predecessors land. The engine delivers results from a
// single goroutine, so no locking is needed.
type renderSink struct {
	reports []*ecndelay.Report
	elapsed []time.Duration
	stdout  io.Writer
	stderr  io.Writer

	buf    map[int]ecndelay.SweepResult
	next   int
	failed int
}

func (s *renderSink) Completed(string) bool { return false }

func (s *renderSink) Write(r ecndelay.SweepResult) error {
	if s.buf == nil {
		s.buf = make(map[int]ecndelay.SweepResult)
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
