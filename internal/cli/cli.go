// Package cli is the shared front-end of the run commands (packetsim,
// ecnbench). It declares their eight profiling and observability flags
// once and owns how each flag turns into an observer facility and an
// export file: the self-describing export header, the observer and the
// exports written at exit. Profiles land where `go tool pprof` reads
// them (see EXPERIMENTS.md, "Profiling a run"). It also holds the two
// list parsers every command's list flags share (ParseInts, ParseFloats)
// and the repeat check of the grid axes (Repeat).
package cli

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"ecndelay/internal/des"
	"ecndelay/internal/obs"
)

// Flags holds the values of the shared flags after parsing.
type Flags struct {
	CPUProfile, MemProfile string
	Metrics, Trace, Probe  string
	Invariants             bool
	Hist, Audit            string

	fs *flag.FlagSet
}

// Register declares the shared flags on fs. Every run shares one file
// per export, however many jobs or workers the command runs.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{fs: fs}
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write a heap profile to this file on exit")
	fs.StringVar(&f.Metrics, "metrics", "", "write end-of-run counters as TSV to this file")
	fs.StringVar(&f.Trace, "trace", "", "stream the event trace as JSONL to this file")
	fs.StringVar(&f.Probe, "probe", "", "write probe time series as JSONL to this file")
	fs.BoolVar(&f.Invariants, "invariants", false, "check runtime invariants; violations exit nonzero")
	fs.StringVar(&f.Hist, "hist", "", "write latency histogram percentiles to this file (.tsv: TSV, else JSONL)")
	fs.StringVar(&f.Audit, "audit", "", "write the control-loop decision audit as JSONL to this file")
	return f
}

// DurationOK reports whether s seconds converts to a des.Duration of at
// least least without overflowing it: s is finite and not negative, and
// des.DurationFromSeconds(s) lies in [least, MaxInt64 ns).
func DurationOK(s float64, least des.Duration) bool {
	ns := s*1e9 + 0.5
	return s >= 0 && ns >= float64(least) && ns < math.MaxInt64
}

// MaxRange bounds the entries of a lo:hi range ParseInts expands, so a
// mistyped range is refused before it allocates (10⁶ ints are 8 MB).
const MaxRange = 1_000_000

// ParseInts parses "lo:hi" (an inclusive range of at most MaxRange
// entries) or a comma list of ints.
func ParseInts(s string) ([]int, error) {
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
		// b-a in uint64 is exact for any a <= b, where int may overflow.
		span := uint64(b) - uint64(a)
		if span >= MaxRange {
			return nil, fmt.Errorf("range %d:%d has more than %d entries", a, b, MaxRange)
		}
		out := make([]int, span+1)
		for i := range out {
			out[i] = a + i
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

// Repeat returns the first entry of vs equal to an earlier one, so a
// grid axis can refuse a value listed twice: its jobs would share an id.
func Repeat[T comparable](vs []T) (T, bool) {
	seen := make(map[T]bool, len(vs))
	for _, v := range vs {
		if seen[v] {
			return v, true
		}
		seen[v] = true
	}
	var zero T
	return zero, false
}

// ParseFloats parses a comma list of rates or delays: every entry must be
// a finite number >= 0.
func ParseFloats(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, err
		}
		if !(v >= 0) || math.IsInf(v, 1) {
			return nil, fmt.Errorf("entry %g is not a finite number >= 0", v)
		}
		out = append(out, v)
	}
	return out, nil
}

// executionOnly names flags that steer how a run executes but cannot
// change a row or an export record. Headers leave them out, so an export
// is byte-identical for any value of them.
var executionOnly = map[string]bool{"workers": true, "resume": true}

// Header returns the self-describing first record of a JSONL export, so a
// reader can tell which invocation produced a file without the shell
// history: run's seed, protocol and operating point, stamped with the
// schema, version 1 and the explicitly set flags in name order, minus the
// execution-only ones.
func (f *Flags) Header(schema string, run obs.Header) obs.Header {
	var parts []string
	f.fs.Visit(func(fl *flag.Flag) {
		if !executionOnly[fl.Name] {
			parts = append(parts, fl.Name+"="+fl.Value.String())
		}
	})
	run.Schema, run.Version, run.Flags = schema, 1, strings.Join(parts, " ")
	return run
}

// Session is one command run's profiler, observer and export files.
type Session struct {
	// Observer carries the facilities the flags asked for; it is nil when
	// no observer flag is set, so the run stays unobserved.
	Observer *obs.NetObserver

	f        *Flags
	cmd      string
	run      obs.Header
	stderr   io.Writer
	stopProf func() error
	closers  []io.Closer
}

// Open starts profiling and builds the observer the flags ask for,
// creating the shared trace and audit files. cmd prefixes every message
// the session prints to stderr; run's Seed, Proto and Op go into every
// export header. Call Close on every exit path and Finish after a
// completed run.
func (f *Flags) Open(cmd string, run obs.Header, stderr io.Writer) (*Session, error) {
	stop, err := Start(f.CPUProfile, f.MemProfile)
	if err != nil {
		return nil, err
	}
	s := &Session{f: f, cmd: cmd, run: run, stderr: stderr, stopProf: stop}
	if f.Metrics == "" && f.Trace == "" && f.Probe == "" && !f.Invariants &&
		f.Hist == "" && f.Audit == "" {
		return s, nil
	}
	// Build the observer before any topology exists, so ports and
	// endpoints bind their counters. Every export goes to its own file:
	// stdout stays byte-identical to an unobserved run.
	o := &obs.NetObserver{}
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
		o.Hists.SetHeader(s.header("hist"))
	}
	// Each sink flushes before the session closes its file.
	if f.Trace != "" {
		w, err := os.Create(f.Trace)
		if err != nil {
			s.Close()
			return nil, err
		}
		h := s.header("trace")
		sink := obs.NewJSONLSink(w, &h)
		s.closers = append(s.closers, sink, w)
		o.Trace = obs.NewTracer(sink)
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
		sink := obs.NewAuditJSONLSink(w, 0)
		sink.SetHeader(s.header("audit"))
		s.closers = append(s.closers, sink, w)
		o.Audit = obs.NewAuditTrail(sink)
	}
	return s, nil
}

func (s *Session) header(schema string) obs.Header { return s.f.Header(schema, s.run) }

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

// closeSinks flushes the trace and audit sinks opened so far, closes
// their files, and returns the first error.
func (s *Session) closeSinks() error {
	var err error
	for _, c := range s.closers {
		if cerr := c.Close(); err == nil {
			err = cerr
		}
	}
	s.closers = nil
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
