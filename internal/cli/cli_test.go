package cli

import (
	"flag"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"ecndelay/internal/obs"
)

// newFlags registers the shared flags next to a command's own -seed,
// -workers and -resume, and parses args.
func newFlags(t *testing.T, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("cmd", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fs.Int64("seed", 1, "")
	fs.Int("workers", 1, "")
	fs.Bool("resume", false, "")
	f := Register(fs)
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

// A range holds every int from lo to hi, the largest int included: the
// loop must stop at hi, not step past it and wrap.
func TestParseIntsRange(t *testing.T) {
	for _, c := range []struct {
		in   string
		want []int
	}{
		{"3:6", []int{3, 4, 5, 6}},
		{"7:7", []int{7}},
		{"9223372036854775806:9223372036854775807", []int{math.MaxInt - 1, math.MaxInt}},
		{"-9223372036854775808:-9223372036854775807", []int{math.MinInt, math.MinInt + 1}},
	} {
		got, err := ParseInts(c.in)
		if err != nil || !slices.Equal(got, c.want) {
			t.Errorf("ParseInts(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
	// A range of MaxRange entries expands; one entry more is refused
	// before anything is allocated, as is a range over the whole int line.
	if got, err := ParseInts("1:1000000"); err != nil || len(got) != MaxRange || got[MaxRange-1] != MaxRange {
		t.Errorf("ParseInts(1:1000000) = %d entries, %v; want %d", len(got), err, MaxRange)
	}
	for _, in := range []string{"0:1000000", "-9223372036854775808:9223372036854775807"} {
		if got, err := ParseInts(in); err == nil || !strings.Contains(err.Error(), "more than 1000000 entries") {
			t.Errorf("ParseInts(%q) = %d entries, %v; want a refusal", in, len(got), err)
		}
	}
}

// Repeat finds the first value listed twice; floats compare as parsed.
func TestRepeat(t *testing.T) {
	if v, ok := Repeat([]int{1, 2, 3, 2, 1}); !ok || v != 2 {
		t.Errorf("Repeat ints = %v, %v; want 2, true", v, ok)
	}
	if v, ok := Repeat([]float64{1e-6, 1.0e-6}); !ok || v != 1e-6 {
		t.Errorf("Repeat floats = %v, %v; want 1e-06, true", v, ok)
	}
	if _, ok := Repeat([]string{"eq14", "fig3"}); ok {
		t.Error("Repeat found a repeat in distinct entries")
	}
	if _, ok := Repeat([]int(nil)); ok {
		t.Error("Repeat found a repeat in an empty list")
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
	fs := flag.NewFlagSet("cmd", flag.ContinueOnError)
	Register(fs)
	want := map[string]string{
		"cpuprofile": "", "memprofile": "", "metrics": "", "trace": "", "probe": "",
		"probe-every": "0.0001", "invariants": "false", "hist": "", "audit": "",
	}
	n := 0
	fs.VisitAll(func(fl *flag.Flag) {
		n++
		if def, ok := want[fl.Name]; !ok || def != fl.DefValue {
			t.Errorf("flag -%s default %q unexpected", fl.Name, fl.DefValue)
		}
	})
	if n != len(want) {
		t.Errorf("%d flags, want %d", n, len(want))
	}
}

// The header echoes what the user set, in name order, and never the
// execution-only flags: an export must not depend on -workers.
func TestHeaderSkipsExecutionOnlyFlags(t *testing.T) {
	f := newFlags(t, "-workers", "2", "-resume", "-seed", "7", "-probe", "p.jsonl", "-invariants")
	h := f.Header("probe", obs.Header{Seed: 7, Proto: "dcqcn"})
	want := obs.Header{Schema: "probe", Version: 1, Seed: 7, Proto: "dcqcn",
		Flags: "invariants=true probe=p.jsonl seed=7"}
	if h != want {
		t.Errorf("header %+v, want %+v", h, want)
	}
}

func TestNoObserverFlagsLeaveRunUnobserved(t *testing.T) {
	s, err := newFlags(t).Open("cmd", obs.Header{Seed: 1}, io.Discard)
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
	f := newFlags(t, "-metrics", p("m.tsv"), "-trace", p("t.jsonl"), "-probe", p("p.jsonl"),
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
		f := newFlags(t, "-probe-every", c.val)
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
		if _, err := newFlags(t, flagName, missing).Open("cmd", obs.Header{Seed: 1}, io.Discard); err == nil {
			t.Errorf("%s into a missing directory: Open succeeded", flagName)
		}
	}
}

func TestFinishExportError(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "no", "such", "dir")
	for _, flagName := range []string{"-metrics", "-probe", "-hist"} {
		var stderr strings.Builder
		s, err := newFlags(t, flagName, filepath.Join(missing, "f")).Open("cmd", obs.Header{Seed: 1}, &stderr)
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
	s, err := newFlags(t, "-invariants").Open("cmd", obs.Header{Seed: 1}, &stderr)
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
