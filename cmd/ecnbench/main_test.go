package main

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"ecndelay/internal/exp"
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

// refused checks that args exit 2 with nothing on stdout and one
// ecnbench: line naming want on stderr.
func refused(t *testing.T, args []string, want string) {
	t.Helper()
	var out, errOut strings.Builder
	if code := run(args, &out, &errOut); code != 2 || out.Len() != 0 {
		t.Errorf("%v: exit code %d, stdout %q; want 2 and nothing", args, code, out.String())
	}
	if msg := errOut.String(); !strings.HasPrefix(msg, "ecnbench: ") || strings.Count(msg, "\n") != 1 ||
		!strings.Contains(msg, want) {
		t.Errorf("%v: stderr %q, want one ecnbench: line naming %s", args, msg, want)
	}
}

func TestBadFlagExitsNonZero(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-definitely-not-a-flag"}, &out, &errOut); code != 2 {
		t.Fatalf("bad flag exit code %d, want 2", code)
	}
	// A value the flag package accepts but no run can use is refused too,
	// and so is a stray argument, which would end parsing and drop every
	// flag after it, and a grid axis that lists a value twice, whose jobs
	// would share an id.
	refused(t, []string{"-exp", "eq14", "-probe-every", "NaN"}, "-probe-every")
	refused(t, []string{"-exp", "eq14", "-workers", "-1"}, "-workers")
	refused(t, []string{"-exp", "eq14", "stray", "-workers", "2"}, `"stray"`)
	refused(t, []string{"-list", "stray"}, `"stray"`)
	refused(t, []string{"-exp", "eq14", "-seeds", "1,2,1"}, "-seeds")
	refused(t, []string{"-exp", "eq14,eq14"}, "-exp")
}

// Every refusal of a seed grid or its checkpoint comes before the
// checkpoint opens, so an existing -out file keeps its bytes.
func TestSeedGridUsageErrors(t *testing.T) {
	dir := t.TempDir()
	keep := filepath.Join(dir, "keep.jsonl")
	row := []byte(`{"job":"eq14","index":0,"seed":1,"attempts":1}` + "\n")
	if err := os.WriteFile(keep, row, 0o644); err != nil {
		t.Fatal(err)
	}
	refused(t, []string{"-exp", "eq14", "-resume"}, "-resume")
	refused(t, []string{"-exp", "eq14", "-seed", "3", "-seeds", "1:2", "-out", keep}, "-seed ")
	refused(t, []string{"-exp", "eq14", "-seeds", "x", "-out", keep}, "-seeds")
	refused(t, []string{"-exp", "eq14", "-seeds", "2:1", "-out", keep, "-resume"}, "-seeds")
	refused(t, []string{"-exp", "eq14", "-seeds", "1,2,1", "-out", keep}, "-seeds")
	refused(t, []string{"-exp", "eq14,eq14", "-out", keep}, "-exp")
	refused(t, []string{"-exp", "eq14,nope", "-out", keep}, `"nope"`)
	refused(t, []string{"-exp", "eq14", "-probe-every", "NaN", "-out", keep}, "-probe-every")
	// A checkpoint that cannot be created is a usage error too.
	refused(t, []string{"-exp", "eq14", "-out", filepath.Join(dir, "no", "such", "f.jsonl")}, "f.jsonl")
	if got, err := os.ReadFile(keep); err != nil || !bytes.Equal(got, row) {
		t.Errorf("a refused run changed the checkpoint: %q, %v", got, err)
	}
}

// -exp all selects every registered experiment, in registration order.
func TestSelectAll(t *testing.T) {
	ids, err := selectIDs("all")
	if err != nil {
		t.Fatal(err)
	}
	runners := exp.Runners()
	if len(ids) != len(runners) {
		t.Fatalf("%d ids for %d experiments", len(ids), len(runners))
	}
	for i, r := range runners {
		if ids[i] != r.ID {
			t.Errorf("id %d is %q, want %q", i, ids[i], r.ID)
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

// A seed grid checkpoints the same rows for -workers 1 and 2. A
// checkpoint cut after its first rows (a killed run) resumes: the banner
// counts only jobs of the current grid, the jobs left render in order,
// and the file ends with one success row per job, equal to the
// uninterrupted run.
func TestSeedGridDeterministicAndResume(t *testing.T) {
	dir := t.TempDir()
	grid := []string{"-exp", "fig3,eq14,thm2", "-seeds", "1:3"}
	runGrid := func(path string, extra ...string) (string, string) {
		t.Helper()
		var out, errOut strings.Builder
		if code := run(append(append(append([]string(nil), grid...), "-out", path), extra...), &out, &errOut); code != 0 {
			t.Fatalf("%v: exit %d, stderr %q", extra, code, errOut.String())
		}
		return out.String(), errOut.String()
	}
	// sorted returns the file's lines in job id order, one per job.
	sorted := func(path string) string {
		t.Helper()
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.SplitAfter(string(b), "\n")
		sort.Strings(lines)
		return strings.Join(lines, "")
	}

	serial, parallel := filepath.Join(dir, "serial.jsonl"), filepath.Join(dir, "parallel.jsonl")
	runGrid(serial, "-workers", "1")
	runGrid(parallel, "-workers", "2")
	want := sorted(serial)
	if n := strings.Count(want, "\n"); n != 9 {
		t.Fatalf("checkpoint has %d rows, want 3 experiments × 3 seeds", n)
	}
	if got := sorted(parallel); got != want {
		t.Errorf("-workers 2 rows differ from -workers 1:\n%s\nvs\n%s", got, want)
	}

	// Keep the first four rows (fig3 seeds 1-3, eq14 seed 1: -workers 1
	// writes in job order) and a success row of a job outside this grid.
	b, err := os.ReadFile(serial)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(b), "\n")
	cut := filepath.Join(dir, "cut.jsonl")
	stale := `{"job":"fig11/seed1","index":0,"seed":1,"attempts":1}` + "\n"
	if err := os.WriteFile(cut, []byte(strings.Join(lines[:4], "")+stale), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout, stderr := runGrid(cut, "-workers", "2", "-resume")
	if stderr != "ecnbench: resuming, 4 of 9 jobs already done\n" {
		t.Errorf("stderr %q, want the resume banner alone", stderr)
	}
	var rendered []string
	for _, line := range strings.Split(stdout, "\n") {
		if id, ok := strings.CutPrefix(line, "["); ok {
			id, _, _ = strings.Cut(id, ":")
			rendered = append(rendered, id)
		}
	}
	if got := strings.Join(rendered, " "); got != "eq14/seed2 eq14/seed3 thm2/seed1 thm2/seed2 thm2/seed3" {
		t.Errorf("resumed run rendered %q, want the five jobs left in order", got)
	}
	if got := strings.ReplaceAll(sorted(cut), stale, ""); got != want {
		t.Errorf("resumed checkpoint differs from the uninterrupted run:\n%s\nvs\n%s", got, want)
	}
}
