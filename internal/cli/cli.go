// Package cli is the shared front-end of the run commands (packetsim,
// ecnbench, sweep). It declares their nine profiling and observability
// flags once and owns how each flag turns into an observer facility and
// an export file: the self-describing export header, the observer and
// the exports written at exit. Profiles land where `go tool pprof` reads
// them (see EXPERIMENTS.md, "Profiling a run").
package cli

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"ecndelay/internal/des"
	"ecndelay/internal/obs"
)

// Flags holds the values of the shared flags after parsing.
type Flags struct {
	CPUProfile, MemProfile string
	Metrics, Trace, Probe  string
	ProbeEvery             float64
	Invariants             bool
	Hist, Audit            string

	fs     *flag.FlagSet
	perJob bool
}

// Register declares the shared flags on fs. A perJob command (sweep)
// observes only the jobs of its exp grid and writes one trace and one
// audit file per job, named from the -trace and -audit values; the other
// commands share one file of each.
func Register(fs *flag.FlagSet, perJob bool) *Flags {
	f := &Flags{fs: fs, perJob: perJob}
	scope := ""
	trace := "stream the event trace as JSONL to this file"
	audit := "write the control-loop decision audit as JSONL to this file"
	if perJob {
		scope = "exp: "
		trace = "write per-job event traces as JSONL files derived from this path"
		audit = "write per-job control-loop audits as JSONL files derived from this path"
	}
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write a heap profile to this file on exit")
	fs.StringVar(&f.Metrics, "metrics", "", scope+"write end-of-run counters as TSV to this file")
	fs.StringVar(&f.Trace, "trace", "", scope+trace)
	fs.StringVar(&f.Probe, "probe", "", scope+"write probe time series as JSONL to this file")
	fs.Float64Var(&f.ProbeEvery, "probe-every", 1e-4, scope+"probe sampling cadence, seconds")
	fs.BoolVar(&f.Invariants, "invariants", false, scope+"check runtime invariants; violations exit nonzero")
	fs.StringVar(&f.Hist, "hist", "", scope+"write latency histogram percentiles to this file (.tsv: TSV, else JSONL)")
	fs.StringVar(&f.Audit, "audit", "", scope+audit)
	return f
}

// Check refuses a shared flag value no run can use. Open calls it first;
// a command calls it with its own usage checks when it must tell a
// refused value from an export error.
func (f *Flags) Check() error {
	// 0 selects the default cadence; anything else must convert to a
	// des.Duration of at least 1 ns without overflowing it.
	if e := f.ProbeEvery; e != 0 && !DurationOK(e, 1) {
		return fmt.Errorf("-probe-every must be 0 (the default cadence) or a cadence from 1e-9 to 9.2e9 seconds, got %g", e)
	}
	return nil
}

// DurationOK reports whether s seconds converts to a des.Duration of at
// least least without overflowing it: s is finite and not negative, and
// des.DurationFromSeconds(s) lies in [least, MaxInt64 ns).
func DurationOK(s float64, least des.Duration) bool {
	ns := s*1e9 + 0.5
	return s >= 0 && ns >= float64(least) && ns < math.MaxInt64
}

// executionOnly names flags that steer how a run executes but cannot
// change a row or an export record. Headers leave them out, so an export
// is byte-identical for any value of them.
var executionOnly = map[string]bool{"workers": true, "quiet": true, "resume": true}

// Header returns the self-describing first record of a JSONL export, so a
// reader can tell which invocation produced a file without the shell
// history. It echoes the explicitly set flags in name order, minus the
// execution-only ones.
func (f *Flags) Header(schema string, seed int64, proto string) obs.Header {
	var parts []string
	f.fs.Visit(func(fl *flag.Flag) {
		if !executionOnly[fl.Name] {
			parts = append(parts, fl.Name+"="+fl.Value.String())
		}
	})
	return obs.Header{Schema: schema, Version: 1, Seed: seed, Proto: proto, Flags: strings.Join(parts, " ")}
}

// Session is one command run's profiler, observer and export files.
type Session struct {
	// Observer carries the facilities the flags asked for; it is nil when
	// no observer flag is set, so the run stays unobserved.
	Observer *obs.NetObserver

	f        *Flags
	cmd      string
	seed     int64
	proto    string
	stderr   io.Writer
	stopProf func() error

	mu      sync.Mutex // guards sinks and openErr against per-job opens
	sinks   []io.Closer
	openErr error
}

// Open starts profiling and builds the observer the flags ask for,
// creating the shared trace and audit files. cmd prefixes every message
// the session prints to stderr; seed and proto go into export headers.
// Call Close on every exit path and Finish after a completed run.
func (f *Flags) Open(cmd string, seed int64, proto string, stderr io.Writer) (*Session, error) {
	if err := f.Check(); err != nil {
		return nil, err
	}
	stop, err := Start(f.CPUProfile, f.MemProfile)
	if err != nil {
		return nil, err
	}
	s := &Session{f: f, cmd: cmd, seed: seed, proto: proto, stderr: stderr, stopProf: stop}
	if f.Metrics == "" && f.Trace == "" && f.Probe == "" && !f.Invariants &&
		f.Hist == "" && f.Audit == "" {
		return s, nil
	}
	// Build the observer before any topology exists, so ports and
	// endpoints bind their counters. Every export goes to its own file:
	// stdout stays byte-identical to an unobserved run.
	o := &obs.NetObserver{ProbeEvery: des.DurationFromSeconds(f.ProbeEvery)}
	s.Observer = o
	if f.Metrics != "" {
		o.Metrics = obs.NewRegistry()
	}
	if f.Probe != "" {
		o.Probes = obs.NewProbeSet()
		o.Probes.SetHeader(s.header("probe"))
	}
	if f.Invariants {
		o.Check = obs.NewChecker()
	}
	if f.Hist != "" || f.Audit != "" {
		// The audit trail feeds the feedback-latency histograms, so an
		// audited run always carries a histogram set.
		o.Hists = obs.NewHistSet()
	}
	if f.perJob {
		if f.Trace != "" || f.Audit != "" {
			o.PerJob = s.openJob
		}
		return s, nil
	}
	if f.Trace != "" {
		w, err := os.Create(f.Trace)
		if err != nil {
			s.Close()
			return nil, err
		}
		o.Trace = s.traceTo(w)
	}
	if f.Audit != "" {
		// One shared trail: decisions from concurrent jobs interleave under
		// the trail's lock, and the sink sorts into canonical order on
		// Close, so the file is byte-identical for any worker count.
		w, err := os.Create(f.Audit)
		if err != nil {
			s.Close()
			return nil, err
		}
		o.Audit = s.auditTo(w)
	}
	return s, nil
}

func (s *Session) header(schema string) obs.Header { return s.f.Header(schema, s.seed, s.proto) }

// traceTo starts a headed JSONL trace stream on w.
func (s *Session) traceTo(w io.Writer) *obs.Tracer {
	sink := obs.NewJSONLSink(w)
	sink.WriteHeader(s.header("trace"))
	s.sinks = append(s.sinks, sink)
	return obs.NewTracer(sink)
}

// auditTo starts a headed, canonically sorted JSONL audit stream on w.
func (s *Session) auditTo(w io.Writer) *obs.AuditTrail {
	sink := obs.NewAuditJSONLSink(w, 1<<16)
	sink.SetHeader(s.header("audit"))
	s.sinks = append(s.sinks, sink)
	return obs.NewAuditTrail(sink)
}

// openJob is the observer's PerJob hook in per-job mode: it gives the job
// its own trace and audit files, so every file is byte-identical for any
// worker count. It runs on worker goroutines, so it serialises; the first
// open error is latched and surfaces at Finish, and the job runs without
// that stream.
func (s *Session) openJob(jobID string, job *obs.NetObserver) {
	s.mu.Lock()
	defer s.mu.Unlock()
	open := func(base string) io.Writer {
		w, err := os.Create(jobPath(base, jobID))
		if err != nil {
			if s.openErr == nil {
				s.openErr = err
			}
			return nil
		}
		return w
	}
	if s.f.Trace != "" {
		job.Trace = nil
		if w := open(s.f.Trace); w != nil {
			job.Trace = s.traceTo(w)
		}
	}
	if s.f.Audit != "" {
		job.Audit = nil
		if w := open(s.f.Audit); w != nil {
			job.Audit = s.auditTo(w)
		}
	}
}

// jobPath derives a per-job file name from a base path: trace.jsonl
// becomes trace.<jobid>.jsonl, with "/" in the job id replaced by "_".
func jobPath(base, jobID string) string {
	ext := filepath.Ext(base)
	return strings.TrimSuffix(base, ext) + "." + strings.ReplaceAll(jobID, "/", "_") + ext
}

// Finish closes the trace and audit files, writes the metrics, probe and
// histogram files, and reports invariant violations. It returns the exit
// status: 0, or 1 on an export error or a violation.
func (s *Session) Finish() int {
	o := s.Observer
	if o == nil {
		return 0
	}
	if err := s.closeSinks(); err != nil {
		return s.fail(err)
	}
	hist := o.Hists.WriteJSONL
	if strings.HasSuffix(s.f.Hist, ".tsv") {
		hist = o.Hists.WriteTSV
	}
	for _, e := range []struct {
		path  string
		write func(io.Writer) error
	}{{s.f.Metrics, o.Metrics.WriteTSV}, {s.f.Probe, o.Probes.WriteJSONL}, {s.f.Hist, hist}} {
		if e.path == "" {
			continue
		}
		if err := writeFile(e.path, e.write); err != nil {
			return s.fail(err)
		}
	}
	if c := o.Check; c != nil && c.Total() > 0 {
		for _, v := range c.Violations() {
			fmt.Fprintf(s.stderr, "%s: invariant violation: %s\n", s.cmd, v)
		}
		fmt.Fprintf(s.stderr, "%s: %d invariant violation(s)\n", s.cmd, c.Total())
		return 1
	}
	return 0
}

func (s *Session) fail(err error) int {
	fmt.Fprintf(s.stderr, "%s: %v\n", s.cmd, err)
	return 1
}

// writeFile creates path and streams write into it.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// closeSinks flushes and closes the trace and audit files opened so far
// and returns the first error, including a latched per-job open error.
func (s *Session) closeSinks() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.openErr
	for _, c := range s.sinks {
		if cerr := c.Close(); err == nil {
			err = cerr
		}
	}
	s.sinks = nil
	return err
}

// Close releases what Open acquired: the trace and audit files Finish
// did not close, and the profiler. It is safe on every exit path,
// including before Finish.
func (s *Session) Close() {
	_ = s.closeSinks() // Finish reports export errors on the success path
	if s.stopProf != nil {
		if err := s.stopProf(); err != nil {
			s.fail(err)
		}
		s.stopProf = nil
	}
}
