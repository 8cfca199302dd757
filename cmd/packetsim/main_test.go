package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Every refused flag value or combination exits 2 with one line naming
// the flag, never a panic; run, export and invariant failures exit 1.
func TestRefusals(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "no", "such", "dir")
	for _, c := range []struct {
		args []string
		code int
		want string
	}{
		{[]string{"-sample", "0"}, 2, "-sample"},
		{[]string{"-n", "-1"}, 2, "-n"},
		{[]string{"-bw", "0"}, 2, "-bw"},
		{[]string{"-topology", "parkinglot", "-hops", "1", "-n", "1"}, 2, "-hops"},
		{[]string{"-topology", "parkinglot", "-n", "4"}, 2, "-hops"},
		{[]string{"-loss", "2"}, 2, "-loss"},
		{[]string{"-ctrl-loss", "-0.1"}, 2, "-ctrl-loss"},
		{[]string{"-flap", "0.02,0.01"}, 2, "-flap"},
		{[]string{"-flap", "0.02"}, 2, "-flap"},
		{[]string{"-warm-start", "-recovery"}, 2, "-recovery"},
		{[]string{"-warm-start", "-proto", "patched", "-rates", "1,2"}, 2, "-rates"},
		{[]string{"-warm-start", "-proto", "timely"}, 2, "-warm-start"},
		{[]string{"-bg-flows", "2", "-proto", "timely"}, 2, "-bg-flows"},
		{[]string{"-proto", "timely", "-rates", "1,2,3"}, 2, "-rates"},
		{[]string{"-proto", "timely", "-rates", "1,x"}, 2, "-rates"},
		{[]string{"-topology", "dumbbell", "-extra-delay", "1e-6"}, 2, "-extra-delay"},
		{[]string{"-topology", "parkinglot", "-jitter", "1e-6"}, 2, "-jitter"},
		{[]string{"-topology", "parkinglot", "-qcap", "1000"}, 2, "-qcap"},
		{[]string{"-topology", "clos", "-jitter", "1e-6"}, 2, "-jitter"},
		{[]string{"-topology", "clos", "-radix", "3"}, 2, "-topology clos"},
		{[]string{"-topology", "clos", "-n", "16"}, 2, "-n 16"},
		{[]string{"-proto", "quic"}, 2, "-proto"},
		{[]string{"-topology", "ring"}, 2, "-topology"},
		{[]string{"-probe-every", "-1"}, 2, "-probe-every"},
		{[]string{"-extra-delay", "-1"}, 2, "-extra-delay"},
		{[]string{"-extra-delay", "NaN"}, 2, "-extra-delay"},
		{[]string{"-extra-delay", "1e300"}, 2, "-extra-delay"},
		{[]string{"-bw", "NaN"}, 2, "-bw"},
		{[]string{"-bw", "Inf"}, 2, "-bw"},
		{[]string{"-sample", "NaN"}, 2, "-sample"},
		{[]string{"-sample", "1e-12"}, 2, "-sample"},
		{[]string{"-flap", "NaN,1"}, 2, "-flap"},
		{[]string{"-horizon", "0"}, 2, "-horizon"},
		{[]string{"-horizon", "-1"}, 2, "-horizon"},
		{[]string{"-horizon", "NaN"}, 2, "-horizon"},
		{[]string{"-loss", "NaN"}, 2, "-loss"},
		{[]string{"-ctrl-loss", "NaN"}, 2, "-ctrl-loss"},
		{[]string{"-jitter", "-1"}, 2, "-jitter"},
		{[]string{"-jitter", "1e300"}, 2, "-jitter"},
		{[]string{"-seg", "-5"}, 2, "-seg"},
		{[]string{"-rto", "-1"}, 2, "-rto"},
		{[]string{"-qcap", "-5"}, 2, "-qcap"},
		{[]string{"-pfc-pause", "-5"}, 2, "-pfc-pause"},
		{[]string{"-pfc-resume", "-5"}, 2, "-pfc-resume"},
		{[]string{"-pfc-watchdog", "-1"}, 2, "-pfc-watchdog"},
		{[]string{"-bg-flows", "-1"}, 2, "-bg-flows"},
		{[]string{"-topology", "clos", "-oversub", "NaN"}, 2, "-oversub"},
		{[]string{"-proto", "timely", "-rates", "NaN,1"}, 2, "-rates"},
		{[]string{"-proto", "timely", "-rates", "-5,1"}, 2, "-rates"},
		{[]string{"-warm-start", "-n", "0"}, 2, "-warm-start"},
		{[]string{"-horizon", "0.001", "-trace", filepath.Join(missing, "t.jsonl")}, 1, "t.jsonl"},
		{[]string{"-horizon", "0.001", "-metrics", filepath.Join(missing, "m.tsv")}, 1, "m.tsv"},
	} {
		var out, errOut strings.Builder
		code := run(c.args, &out, &errOut)
		msg := errOut.String()
		if code != c.code {
			t.Errorf("%v: exit %d, want %d (stderr %q)", c.args, code, c.code, msg)
		}
		if strings.Contains(msg, "panic:") || strings.Contains(msg, "goroutine") {
			t.Errorf("%v: stderr carries a panic: %q", c.args, msg)
		}
		if !strings.HasPrefix(msg, "packetsim: ") || strings.Count(msg, "\n") != 1 ||
			!strings.Contains(msg, c.want) {
			t.Errorf("%v: stderr %q, want one packetsim: line naming %q", c.args, msg, c.want)
		}
	}
}

// runOK runs packetsim with args and returns its stdout, failing t unless
// the run exits 0.
func runOK(t *testing.T, args ...string) string {
	t.Helper()
	var out, errOut strings.Builder
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("%v: exit %d, stderr %q", args, code, errOut.String())
	}
	return out.String()
}

// Attaching the observer is invisible to the run: with the export flags
// and -invariants set, the star and the 3-tier Clos incast print the same
// TSV as unobserved runs, write every export non-empty, and exit 0.
func TestObservedRunMatchesUnobserved(t *testing.T) {
	for _, c := range []struct {
		name    string
		args    []string
		exports []string
		header  string
	}{
		{"star", []string{"-proto", "dcqcn", "-n", "4", "-horizon", "0.02", "-seed", "7"},
			[]string{"-metrics", "-trace", "-probe", "-hist"}, "# t\tq_bytes\trate0\trate1\trate2\trate3\n"},
		{"clos", []string{"-topology", "clos", "-radix", "4", "-tiers", "3", "-n", "6", "-horizon", "0.003", "-seed", "7"},
			[]string{"-metrics", "-trace"}, "# t\tq_bytes\trate0\trate1\trate2\trate3\trate4\trate5\n"},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			plain := runOK(t, c.args...)
			if !strings.HasPrefix(plain, c.header) {
				t.Errorf("unexpected TSV header: %q", plain[:min(len(plain), len(c.header))])
			}
			observed := append(append([]string{}, c.args...), "-invariants")
			for _, f := range c.exports {
				observed = append(observed, f, filepath.Join(dir, f[1:]))
			}
			if runOK(t, observed...) != plain {
				t.Error("attaching the observer changed stdout")
			}
			for _, f := range c.exports {
				if st, err := os.Stat(filepath.Join(dir, f[1:])); err != nil || st.Size() == 0 {
					t.Errorf("%s export is missing or empty (%v)", f, err)
				}
			}
		})
	}
}

// A seeded run reproduces byte for byte: the faulty run (data and
// feedback loss with go-back-N recovery), and the Clos incast with PFC,
// the pause watchdog and the invariant checker, which also exits 0 and
// reports its pause summary.
func TestSeededRunsReproduce(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
		want string
	}{
		{"lossy", []string{"-proto", "dcqcn", "-n", "4", "-horizon", "0.02",
			"-loss", "1e-3", "-ctrl-loss", "1e-2", "-recovery", "-seed", "7", "-fault-seed", "42"}, ""},
		{"clos-pfc", []string{"-topology", "clos", "-radix", "4", "-tiers", "3", "-n", "6",
			"-horizon", "0.003", "-seed", "7", "-pfc-pause", "50000", "-pfc-resume", "25000",
			"-pfc-watchdog", "1e-4", "-invariants"}, "pause_storms="},
	} {
		t.Run(c.name, func(t *testing.T) {
			first := runOK(t, c.args...)
			if runOK(t, c.args...) != first {
				t.Error("the same seeded run printed different output")
			}
			if !strings.Contains(first, c.want) {
				t.Errorf("output lacks %q", c.want)
			}
		})
	}
}
