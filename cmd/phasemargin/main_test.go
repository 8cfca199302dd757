package main

import (
	"strings"
	"testing"
)

// The rendered TSV must be byte-identical whether the grid runs on one
// worker or several.
func TestParallelGridMatchesSerial(t *testing.T) {
	ns := []int{1, 2, 8, 10, 64}
	ds := []float64{1e-6, 85e-6}

	render := func(workers int) string {
		var sb strings.Builder
		results, err := runGrid(dcqcnJobs(ns, ds, 0, 0), workers)
		if err != nil {
			t.Fatal(err)
		}
		if err := renderDCQCN(&sb, ns, ds, results); err != nil {
			t.Fatal(err)
		}
		presults, err := runGrid(patchedJobs([]int{2, 10, 64}), workers)
		if err != nil {
			t.Fatal(err)
		}
		renderPatched(&sb, []int{2, 10, 64}, presults)
		return sb.String()
	}
	serial := render(1)
	if !strings.Contains(serial, "# N\tpm_1us\tpm_85us") {
		t.Fatalf("unexpected header:\n%s", serial)
	}
	if parallel := render(4); parallel != serial {
		t.Errorf("parallel TSV differs from serial:\n%s\nvs\n%s", parallel, serial)
	}
}

// Every refused flag value or combination exits 2 before any work, with
// one line naming the flag and nothing on stdout.
func TestRefusals(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-rai", "-5"}, "-rai"},
		{[]string{"-rai", "NaN"}, "-rai"},
		{[]string{"-kmax", "-1"}, "-kmax"},
		{[]string{"-kmax", "1"}, "-kmax"},
		{[]string{"-model", "patched", "-delays", "1e-6"}, "-delays"},
		{[]string{"-model", "patched", "-rai", "20e6"}, "-rai"},
		{[]string{"-model", "patched", "-kmax", "400"}, "-kmax"},
		{[]string{"-flows", "1:2", "extra"}, `"extra"`},
		{[]string{"-flows", "0:2"}, "-flows"},
		{[]string{"-flows", "2:1"}, "-flows"},
		{[]string{"-delays", "-1e-6"}, "-delays"},
		{[]string{"-delays", "1e-6,x"}, "-delays"},
		{[]string{"-delays", "NaN"}, "-delays"},
		{[]string{"-workers", "-1"}, "-workers"},
		{[]string{"-model", "quic"}, "-model"},
		// A value listed twice would give two grid cells one job id;
		// values compare after parsing.
		{[]string{"-flows", "2,2", "-delays", "85e-6"}, "-flows"},
		{[]string{"-flows", "2", "-delays", "85e-6,85e-6"}, "-delays"},
		{[]string{"-flows", "2", "-delays", "1e-6,1.0e-6"}, "-delays"},
		{[]string{"-model", "patched", "-flows", "2,2"}, "-flows"},
		// Theorem 1 has no root from N=22,520 on at the defaults, and from
		// N=19,745 on at R_AI = 80 Mb/s; a range past cli.MaxRange entries
		// is refused before it is expanded.
		{[]string{"-flows", "22519,22520", "-delays", "85e-6"}, "-flows: N=22520"},
		{[]string{"-flows", "19745", "-rai", "80e6"}, "-flows: N=19745"},
		{[]string{"-flows", "1:1000001"}, "-flows"},
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
		if !strings.HasPrefix(msg, "phasemargin: ") || strings.Count(msg, "\n") != 1 ||
			!strings.Contains(msg, c.want) {
			t.Errorf("%v: stderr %q, want one phasemargin: line naming %q", c.args, msg, c.want)
		}
	}
}

// Valid invocations print the grid and exit 0; -h prints usage and exits 0.
func TestRunPrintsGrid(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-flows", "2,10", "-delays", "85e-6", "-rai", "20e6", "-kmax", "400"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errOut.String())
	}
	if got := out.String(); !strings.HasPrefix(got, "# N\tpm_85us\n2\t") || strings.Count(got, "\n") != 3 {
		t.Errorf("unexpected grid:\n%s", got)
	}
	out.Reset()
	if code := run([]string{"-model", "patched", "-flows", "2"}, &out, &errOut); code != 0 {
		t.Fatalf("patched exit %d, stderr %q", code, errOut.String())
	}
	if got := out.String(); !strings.HasPrefix(got, "# N\tq_star_kb\tpm_deg\tstable\n2\t") {
		t.Errorf("unexpected patched table:\n%s", got)
	}
	errOut.Reset()
	if code := run([]string{"-h"}, &out, &errOut); code != 0 || !strings.Contains(errOut.String(), "-model") {
		t.Errorf("-h: exit %d, stderr %q", code, errOut.String())
	}
}
