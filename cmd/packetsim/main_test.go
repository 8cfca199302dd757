package main

import (
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

// An observed run prints the same TSV as an unobserved one and exits 0.
func TestObservedRunMatchesUnobserved(t *testing.T) {
	dir := t.TempDir()
	base := []string{"-proto", "dcqcn", "-n", "2", "-horizon", "0.002", "-seed", "7"}
	var plain, observed, errOut strings.Builder
	if code := run(base, &plain, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errOut.String())
	}
	obsArgs := append(append([]string{}, base...), "-invariants",
		"-metrics", filepath.Join(dir, "m.tsv"), "-probe", filepath.Join(dir, "p.jsonl"))
	if code := run(obsArgs, &observed, &errOut); code != 0 {
		t.Fatalf("observed exit %d, stderr %q", code, errOut.String())
	}
	if plain.String() != observed.String() {
		t.Error("attaching the observer changed stdout")
	}
	if !strings.HasPrefix(plain.String(), "# t\tq_bytes\trate0\trate1\n") {
		t.Errorf("unexpected TSV header: %q", plain.String()[:40])
	}
}
