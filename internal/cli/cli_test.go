package cli

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"ecndelay/internal/obs"
)

// newFlags registers the shared flags next to a command's own -seed,
// -workers, -quiet and -resume, and parses args.
func newFlags(t *testing.T, perJob bool, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("cmd", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fs.Int64("seed", 1, "")
	fs.Int("workers", 1, "")
	fs.Bool("quiet", false, "")
	fs.Bool("resume", false, "")
	f := Register(fs, perJob)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f
}

// firstLine returns the first line of a file.
func firstLine(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	line, _, _ := strings.Cut(string(b), "\n")
	return line
}

func TestParseIntsRange(t *testing.T) {
	got, err := ParseInts("3:6")
	if err != nil {
		t.Fatal(err)
	}
	want := []int{3, 4, 5, 6}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestParseIntsList(t *testing.T) {
	got, err := ParseInts("1, 8,64")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 8 || got[2] != 64 {
		t.Fatalf("got %v", got)
	}
}

func TestParseIntsErrors(t *testing.T) {
	for _, bad := range []string{"6:3", "a:b", "1,x", ""} {
		if _, err := ParseInts(bad); err == nil {
			t.Errorf("ParseInts(%q) accepted", bad)
		}
	}
}

// A float list takes finite entries >= 0 and refuses the rest.
func TestParseFloats(t *testing.T) {
	got, err := ParseFloats("0, 1e-6,875e6")
	if err != nil || len(got) != 3 || got[0] != 0 || got[1] != 1e-6 || got[2] != 875e6 {
		t.Fatalf("got %v, err %v", got, err)
	}
	for _, bad := range []string{"", "1,x", "-1e-9", "NaN", "Inf,1", "1,-Inf"} {
		if _, err := ParseFloats(bad); err == nil {
			t.Errorf("ParseFloats(%q) accepted", bad)
		}
	}
}

func TestRegisterDeclaresSharedFlags(t *testing.T) {
	for _, perJob := range []bool{false, true} {
		fs := flag.NewFlagSet("cmd", flag.ContinueOnError)
		Register(fs, perJob)
		want := map[string]string{
			"cpuprofile": "", "memprofile": "", "metrics": "", "trace": "", "probe": "",
			"probe-every": "0.0001", "invariants": "false", "hist": "", "audit": "",
		}
		n := 0
		fs.VisitAll(func(fl *flag.Flag) {
			n++
			if def, ok := want[fl.Name]; !ok || def != fl.DefValue {
				t.Errorf("perJob=%v: flag -%s default %q unexpected", perJob, fl.Name, fl.DefValue)
			}
		})
		if n != len(want) {
			t.Errorf("perJob=%v: %d flags, want %d", perJob, n, len(want))
		}
		trace := fs.Lookup("trace").Usage
		if got := strings.Contains(trace, "per-job"); got != perJob {
			t.Errorf("perJob=%v: -trace usage %q", perJob, trace)
		}
		if got := strings.HasPrefix(fs.Lookup("metrics").Usage, "exp: "); got != perJob {
			t.Errorf("perJob=%v: -metrics usage %q", perJob, fs.Lookup("metrics").Usage)
		}
	}
}

// The header echoes what the user set, in name order, and never the
// execution-only flags: an export must not depend on -workers.
func TestHeaderSkipsExecutionOnlyFlags(t *testing.T) {
	f := newFlags(t, false, "-workers", "2", "-quiet", "-resume", "-seed", "7", "-probe", "p.jsonl", "-invariants")
	h := f.Header("probe", obs.Header{Seed: 7, Proto: "dcqcn"})
	want := obs.Header{Schema: "probe", Version: 1, Seed: 7, Proto: "dcqcn",
		Flags: "invariants=true probe=p.jsonl seed=7"}
	if h != want {
		t.Errorf("header %+v, want %+v", h, want)
	}
}

func TestNoObserverFlagsLeaveRunUnobserved(t *testing.T) {
	s, err := newFlags(t, false).Open("cmd", obs.Header{Seed: 1}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Observer != nil {
		t.Fatal("observer built with no observer flag set")
	}
	if code := s.Finish(); code != 0 {
		t.Errorf("Finish = %d, want 0", code)
	}
}

// feed exercises every facility once, so each export has a body.
func feed(o *obs.NetObserver) {
	o.Metrics.Counter("pkts").Inc()
	o.Probes.NewProbe("queue_bytes", 0).Record(1e-4, 42)
	o.Hist("rtt_s").Record(1e-5)
	if o.Trace != nil {
		o.Trace.Emit(obs.Event{Type: obs.Enqueue, Size: 1000, QLen: 1, QBytes: 1000})
	}
	if o.Audit != nil {
		o.Audit.Emit(obs.Decision{Type: obs.DecRateCut})
	}
}

func TestSharedExports(t *testing.T) {
	dir := t.TempDir()
	p := func(name string) string { return filepath.Join(dir, name) }
	f := newFlags(t, false, "-metrics", p("m.tsv"), "-trace", p("t.jsonl"), "-probe", p("p.jsonl"),
		"-hist", p("h.tsv"), "-audit", p("a.jsonl"), "-invariants", "-probe-every", "2e-4")
	var stderr strings.Builder
	s, err := f.Open("cmd", obs.Header{Seed: 3, Proto: "timely"}, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	o := s.Observer
	if o.Metrics == nil || o.Trace == nil || o.Probes == nil || o.Check == nil || o.Hists == nil || o.Audit == nil {
		t.Fatalf("observer missing a facility: %+v", o)
	}
	if o.ProbeCadence() != 200000 {
		t.Errorf("probe cadence %v, want 200 µs", o.ProbeCadence())
	}
	feed(o)
	if code := s.Finish(); code != 0 {
		t.Fatalf("Finish = %d, stderr %q", code, stderr.String())
	}
	for _, name := range []string{"t.jsonl", "p.jsonl", "a.jsonl"} {
		if line := firstLine(t, p(name)); !strings.Contains(line, `"seed":3,"proto":"timely"`) {
			t.Errorf("%s header %q", name, line)
		}
	}
	if line := firstLine(t, p("h.tsv")); strings.HasPrefix(line, "{") {
		t.Errorf("a .tsv -hist path wrote JSONL: %q", line)
	}
	if line := firstLine(t, p("m.tsv")); line == "" {
		t.Error("metrics export is empty")
	}
}

func TestPerJobExports(t *testing.T) {
	dir := t.TempDir()
	f := newFlags(t, true, "-trace", filepath.Join(dir, "t.jsonl"), "-audit", filepath.Join(dir, "a.jsonl"),
		"-hist", filepath.Join(dir, "h.jsonl"))
	s, err := f.Open("sweep", obs.Header{Seed: 1}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Observer.Trace != nil || s.Observer.Audit != nil {
		t.Fatal("per-job mode must not open shared trace or audit streams")
	}
	jo := s.Observer.ForJob("fig5/seed1")
	if jo.Trace == nil || jo.Audit == nil {
		t.Fatal("the job copy has no private trace or audit stream")
	}
	jo.Trace.Emit(obs.Event{Type: obs.Enqueue})
	jo.Audit.Emit(obs.Decision{Type: obs.DecRateCut})
	if code := s.Finish(); code != 0 {
		t.Fatalf("Finish = %d", code)
	}
	for _, name := range []string{"t.fig5_seed1.jsonl", "a.fig5_seed1.jsonl"} {
		if line := firstLine(t, filepath.Join(dir, name)); !strings.HasPrefix(line, `{"schema":`) {
			t.Errorf("%s header %q", name, line)
		}
	}
	if got := jobPath("out/trace", "a/b"); got != "out/trace.a_b" {
		t.Errorf("jobPath without extension = %q", got)
	}
}

// A per-job audit holds only the decisions it receives: eight jobs that
// audit nothing (an analytic grid under sweep -audit) keep the heap flat
// until Finish writes their header-only files.
func TestPerJobAuditsGrowOnDemand(t *testing.T) {
	dir := t.TempDir()
	f := newFlags(t, true, "-audit", filepath.Join(dir, "a.jsonl"))
	s, err := f.Open("sweep", obs.Header{Seed: 1}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	jobs := make([]*obs.NetObserver, 8)
	for i := range jobs {
		jobs[i] = s.Observer.ForJob(fmt.Sprintf("eq14/seed%d", i+1))
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 1<<20 {
		t.Errorf("eight empty per-job audits hold %d bytes of heap, want under 1 MB", grew)
	}
	if code := s.Finish(); code != 0 {
		t.Fatalf("Finish = %d", code)
	}
	runtime.KeepAlive(jobs)
}

// A per-job file that cannot be created leaves the job without that
// stream and fails the run at Finish.
func TestPerJobOpenErrorSurfacesAtFinish(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "no", "such", "dir")
	f := newFlags(t, true, "-trace", filepath.Join(missing, "t.jsonl"), "-audit", filepath.Join(missing, "a.jsonl"))
	var stderr strings.Builder
	s, err := f.Open("sweep", obs.Header{Seed: 1}, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if jo := s.Observer.ForJob("fig5"); jo.Trace != nil || jo.Audit != nil {
		t.Error("a job got a stream whose file could not be created")
	}
	if code := s.Finish(); code != 1 {
		t.Errorf("Finish = %d, want 1", code)
	}
	if !strings.HasPrefix(stderr.String(), "sweep: ") {
		t.Errorf("stderr %q", stderr.String())
	}
}

// -probe-every takes 0 (the default cadence) or a finite cadence that
// converts to at least 1 ns of simulated time; Check and Open refuse
// anything else with one message naming the flag.
func TestProbeEveryCheck(t *testing.T) {
	for _, c := range []struct {
		val string
		ok  bool
	}{
		{"0", true}, {"1e-4", true}, {"2", true}, {"1e-9", true}, {"5e-10", true}, {"9e9", true},
		{"-1", false}, {"-0.5e-9", false}, {"NaN", false}, {"+Inf", false}, {"-Inf", false},
		{"1e300", false}, {"1e10", false}, {"1e-10", false},
	} {
		f := newFlags(t, false, "-probe-every", c.val)
		err := f.Check()
		if (err == nil) != c.ok {
			t.Errorf("-probe-every %s: Check() = %v, want ok=%v", c.val, err, c.ok)
			continue
		}
		if c.ok {
			continue
		}
		if !strings.Contains(err.Error(), "-probe-every") {
			t.Errorf("-probe-every %s: error %q does not name the flag", c.val, err)
		}
		if _, err := f.Open("cmd", obs.Header{Seed: 1}, io.Discard); err == nil {
			t.Errorf("-probe-every %s: Open succeeded", c.val)
		}
	}
}

func TestOpenErrors(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "no", "such", "dir", "f")
	for _, flagName := range []string{"-trace", "-audit", "-cpuprofile"} {
		if _, err := newFlags(t, false, flagName, missing).Open("cmd", obs.Header{Seed: 1}, io.Discard); err == nil {
			t.Errorf("%s into a missing directory: Open succeeded", flagName)
		}
	}
}

func TestFinishExportError(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "no", "such", "dir")
	for _, flagName := range []string{"-metrics", "-probe", "-hist"} {
		var stderr strings.Builder
		s, err := newFlags(t, false, flagName, filepath.Join(missing, "f")).Open("cmd", obs.Header{Seed: 1}, &stderr)
		if err != nil {
			t.Fatal(err)
		}
		if code := s.Finish(); code != 1 {
			t.Errorf("%s into a missing directory: Finish = %d, want 1", flagName, code)
		}
		if !strings.HasPrefix(stderr.String(), "cmd: ") {
			t.Errorf("%s: stderr %q", flagName, stderr.String())
		}
		s.Close()
	}
}

func TestFinishReportsViolations(t *testing.T) {
	var stderr strings.Builder
	s, err := newFlags(t, false, "-invariants").Open("cmd", obs.Header{Seed: 1}, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// A 1000-byte enqueue onto a 1000-byte queue that then reports 1900
	// bytes breaks conservation.
	s.Observer.Check.Feed(obs.Event{Type: obs.Enqueue, Size: 1000, QLen: 1, QBytes: 1000})
	s.Observer.Check.Feed(obs.Event{Type: obs.Enqueue, Size: 1000, QLen: 2, QBytes: 1900})
	if code := s.Finish(); code != 1 {
		t.Fatalf("Finish = %d, want 1", code)
	}
	out := stderr.String()
	if !strings.Contains(out, "cmd: invariant violation: ") || !strings.Contains(out, "cmd: 1 invariant violation(s)") {
		t.Errorf("stderr %q", out)
	}
}
