package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestListExitsZero(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("-list exit code %d, stderr: %s", code, errOut.String())
	}
	for _, want := range []string{"fig3", "fig14", "extpfc"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("-list output missing %q", want)
		}
	}
}

// A bad -exp value must not look like success in scripts/CI.
func TestUnknownExperimentExitsNonZero(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-exp", "nope"}, &out, &errOut); code != 2 {
		t.Fatalf("unknown experiment exit code %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), `unknown experiment "nope"`) {
		t.Errorf("stderr = %q", errOut.String())
	}
	// ... including when buried in a comma list.
	if code := run([]string{"-exp", "fig3,nope"}, &out, &errOut); code != 2 {
		t.Fatalf("comma-list exit code %d, want 2", code)
	}
}

func TestBadFlagExitsNonZero(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-definitely-not-a-flag"}, &out, &errOut); code != 2 {
		t.Fatalf("bad flag exit code %d, want 2", code)
	}
	// A value the flag package accepts but no run can use is refused too,
	// and so is a stray argument, which would end parsing and drop every
	// flag after it.
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-exp", "eq14", "-probe-every", "NaN"}, "-probe-every"},
		{[]string{"-exp", "eq14", "-workers", "-1"}, "-workers"},
		{[]string{"-exp", "eq14", "stray", "-workers", "2"}, `"stray"`},
		{[]string{"-list", "stray"}, `"stray"`},
	} {
		out.Reset()
		errOut.Reset()
		if code := run(c.args, &out, &errOut); code != 2 || out.Len() != 0 {
			t.Errorf("%v: exit code %d, stdout %q; want 2 and nothing", c.args, code, out.String())
		}
		if msg := errOut.String(); !strings.HasPrefix(msg, "ecnbench: ") || strings.Count(msg, "\n") != 1 ||
			!strings.Contains(msg, c.want) {
			t.Errorf("%v: stderr %q, want one ecnbench: line naming %s", c.args, msg, c.want)
		}
	}
}

func TestQuickExperimentRuns(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-exp", "fig3,eq14"}, &out, &errOut); code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, errOut.String())
	}
	text := out.String()
	// Reports render in selection order with their timing lines.
	i, j := strings.Index(text, "=== fig3"), strings.Index(text, "=== eq14")
	if i < 0 || j < 0 || i > j {
		t.Errorf("reports missing or out of order:\n%s", text)
	}
	if !strings.Contains(text, "[fig3:") || !strings.Contains(text, "[eq14:") {
		t.Errorf("timing lines missing:\n%s", text)
	}
}

// With -workers > 1 the same experiments still render in selection
// order, the run still succeeds, and stderr carries no sweep: line.
func TestParallelWorkersOrderedOutput(t *testing.T) {
	serial := func() string {
		var out, errOut strings.Builder
		if code := run([]string{"-exp", "fig3,fig11,eq14,thm2"}, &out, &errOut); code != 0 {
			t.Fatalf("serial exit code %d, stderr: %s", code, errOut.String())
		}
		return out.String()
	}()
	var out, errOut strings.Builder
	if code := run([]string{"-exp", "fig3,fig11,eq14,thm2", "-workers", "4"}, &out, &errOut); code != 0 {
		t.Fatalf("parallel exit code %d, stderr: %s", code, errOut.String())
	}
	// The sweep engine runs the jobs but is not the command: none of its
	// progress or summary lines reach ecnbench's stderr.
	for _, line := range strings.Split(errOut.String(), "\n") {
		if strings.HasPrefix(line, "sweep:") {
			t.Errorf("stderr carries a sweep line: %q", line)
		}
	}
	// Timing lines carry wall-clock values, so compare the order of the
	// report headers rather than raw bytes.
	order := func(s string) []int {
		var idx []int
		for _, h := range []string{"=== fig3", "=== fig11", "=== eq14", "=== thm2"} {
			idx = append(idx, strings.Index(s, h))
		}
		return idx
	}
	so, po := order(serial), order(out.String())
	for k := range so {
		if so[k] < 0 || po[k] < 0 {
			t.Fatalf("missing report header %d:\n%s", k, out.String())
		}
		if k > 0 && (so[k] < so[k-1] || po[k] < po[k-1]) {
			t.Fatalf("reports out of order (serial %v, parallel %v)", so, po)
		}
	}
}

// The metrics, probe, hist and audit exports are byte-identical for any
// -workers value: -workers only steers execution, so export headers leave
// it out, and every record is keyed or sorted independently of job
// scheduling. -trace is left out: the one shared trace stream interleaves
// experiments by completion order by design.
func TestExportsIdenticalAcrossWorkers(t *testing.T) {
	dir := t.TempDir()
	files := []string{"m.tsv", "p.jsonl", "h.jsonl", "a.jsonl"}
	path := func(name string) string { return filepath.Join(dir, name) }
	export := func(workers string) map[string][]byte {
		var out, errOut strings.Builder
		code := run([]string{"-exp", "fig5,closincast", "-workers", workers,
			"-metrics", path("m.tsv"), "-probe", path("p.jsonl"), "-hist", path("h.jsonl"),
			"-audit", path("a.jsonl"), "-invariants"}, &out, &errOut)
		if code != 0 {
			t.Fatalf("-workers %s exit code %d, stderr: %s", workers, code, errOut.String())
		}
		got := map[string][]byte{}
		for _, name := range files {
			b, err := os.ReadFile(path(name))
			if err != nil {
				t.Fatal(err)
			}
			got[name] = b
		}
		return got
	}
	one, two := export("1"), export("2")
	for _, name := range files {
		if len(one[name]) == 0 {
			t.Errorf("%s is empty", name)
		}
		if !bytes.Equal(one[name], two[name]) {
			t.Errorf("%s differs between -workers 1 and -workers 2", name)
		}
	}
}
