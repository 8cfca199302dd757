package main

import (
	"strings"
	"testing"
)

// Every model integrates a short horizon and prints its label header and
// one row per sample, each with one column per label.
func TestRunEveryModel(t *testing.T) {
	for _, c := range []struct {
		args   []string
		header string
	}{
		{[]string{"-model", "dcqcn", "-n", "2", "-delay", "85e-6", "-jitter", "1e-6"},
			"# t\tq_pkts\talpha0\trt0\trc0\talpha1\trt1\trc1"},
		// A lag of 1e16 steps on a 2,000-step run: the history ring is
		// sized by the run, not by the lag alone.
		{[]string{"-model", "dcqcn", "-n", "2", "-jitter", "1e10"},
			"# t\tq_pkts\talpha0\trt0\trc0\talpha1\trt1\trc1"},
		{[]string{"-model", "dcqcnpi", "-n", "1", "-rates", "1e6"},
			"# t\tq_pkts\tp\talpha0\trt0\trc0"},
		{[]string{"-model", "timely", "-n", "2", "-stagger", "0.001", "-jitter", "1e-6", "-seed", "3"},
			"# t\tq_bytes\trate0\tgrad0\trate1\tgrad1"},
		{[]string{"-model", "patched", "-n", "2", "-rates", "875e6,375e6"},
			"# t\tq_bytes\trate0\tgrad0\trate1\tgrad1"},
		{[]string{"-model", "timelypi", "-n", "2", "-stagger", "0.001"},
			"# t\tq_bytes\trate0\tgrad0\tp0\trate1\tgrad1\tp1"},
	} {
		args := append(c.args, "-horizon", "0.002", "-sample", "1e-4")
		var out, errOut strings.Builder
		if code := run(args, &out, &errOut); code != 0 || errOut.Len() != 0 {
			t.Errorf("%v: exit %d, stderr %q", args, code, errOut.String())
			continue
		}
		lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
		if lines[0] != c.header {
			t.Errorf("%v: header %q, want %q", args, lines[0], c.header)
		}
		// 0.002 s at 100 µs: the initial state plus 20 samples.
		if len(lines) != 22 {
			t.Errorf("%v: %d lines, want 22", args, len(lines))
		}
		cols := strings.Count(c.header, "\t") + 1
		for _, l := range lines[1:] {
			if got := strings.Count(l, "\t") + 1; got != cols {
				t.Errorf("%v: row %q has %d columns, want %d", args, l, got, cols)
				break
			}
		}
	}
}

// Every refused flag value or combination exits 2 before integrating,
// with one line naming the flag and nothing on stdout. -n 0 with
// -stagger and -step 0 used to panic; the others used to be ignored.
func TestRefusals(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-n", "0", "-stagger", "0.1", "-model", "timely"}, "-n"},
		{[]string{"-n", "-3"}, "-n"},
		{[]string{"-step", "0"}, "-step"},
		{[]string{"-step", "NaN"}, "-step"},
		{[]string{"-step", "-1e-6"}, "-step"},
		{[]string{"-sample", "0"}, "-sample"},
		{[]string{"-sample", "+Inf"}, "-sample"},
		{[]string{"-horizon", "0"}, "-horizon"},
		{[]string{"-horizon", "Inf"}, "-horizon"},
		{[]string{"-horizon", "NaN"}, "-horizon"},
		{[]string{"-jitter", "-1e-6"}, "-jitter"},
		{[]string{"-jitter", "NaN"}, "-jitter"},
		{[]string{"-model", "timely", "-stagger", "-0.1"}, "-stagger"},
		{[]string{"-model", "timelypi", "-jitter", "1e-6"}, "-jitter"},
		{[]string{"-model", "timelypi", "-seed", "2"}, "-seed"},
		{[]string{"-model", "dcqcn", "-stagger", "0.1"}, "-stagger"},
		{[]string{"-model", "dcqcnpi", "-stagger", "0.1"}, "-stagger"},
		{[]string{"-model", "timely", "-delay", "85e-6"}, "-delay"},
		{[]string{"-model", "patched", "-delay", "85e-6"}, "-delay"},
		{[]string{"-model", "timelypi", "-delay", "85e-6"}, "-delay"},
		{[]string{"-model", "quic"}, "-model"},
		{[]string{"-rates", "1,x"}, "-rates"},
		{[]string{"-rates", "1e6"}, "-rates"},
		{[]string{"-model", "dcqcn", "-n", "2", "-rates", "-1e9,NaN"}, "-rates"},
		{[]string{"-rates", "Inf,1e9"}, "-rates"},
		{[]string{"-model", "patched", "-rates", "1e9,-Inf"}, "-rates"},
		{[]string{"-delay", "-1"}, "-model dcqcn"},
		{[]string{"extra"}, `"extra"`},
		// A step count or history ring past the run budget.
		{[]string{"-step", "1e-300"}, "-step"},
		{[]string{"-step", "1e-15", "-horizon", "1"}, "-step"},
		{[]string{"-model", "patched", "-n", "64", "-step", "1e-8", "-horizon", "0.02"}, "-step"},
		{[]string{"-n", "100000000"}, "-n 100000000"},
	} {
		var out, errOut strings.Builder
		code := run(c.args, &out, &errOut)
		msg := errOut.String()
		if code != 2 {
			t.Errorf("%v: exit %d, want 2 (stderr %q)", c.args, code, msg)
		}
		if out.Len() != 0 {
			t.Errorf("%v: wrote %d bytes to stdout", c.args, out.Len())
		}
		if !strings.HasPrefix(msg, "fluidsim: ") || strings.Count(msg, "\n") != 1 ||
			!strings.Contains(msg, c.want) {
			t.Errorf("%v: stderr %q, want one fluidsim: line naming %q", c.args, msg, c.want)
		}
	}
}

// -h prints usage and exits 0; an unknown flag exits 2.
func TestHelpAndBadFlag(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-h"}, &out, &errOut); code != 0 || !strings.Contains(errOut.String(), "-model") {
		t.Errorf("-h: exit %d, stderr %q", code, errOut.String())
	}
	if code := run([]string{"-no-such-flag"}, &out, &errOut); code != 2 {
		t.Errorf("unknown flag: exit %d, want 2", code)
	}
}
