package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

func TestBuildJobsPMMatrix(t *testing.T) {
	jobs, err := buildJobs("pm", "dcqcn,patched", "1,8,64", "1e-6,85e-6", "", "", false, nil)
	if err != nil {
		t.Fatal(err)
	}
	// 3 flows × 2 delays for dcqcn, plus 3 patched rows.
	if len(jobs) != 9 {
		t.Fatalf("got %d jobs, want 9", len(jobs))
	}
	ids := map[string]bool{}
	for _, j := range jobs {
		if ids[j.ID] {
			t.Errorf("duplicate job id %q", j.ID)
		}
		ids[j.ID] = true
	}
	if !ids["pm/dcqcn/n8/d8.5e-05"] || !ids["pm/patched/n64"] {
		t.Errorf("unexpected id set: %v", ids)
	}
}

func TestBuildJobsExpMatrix(t *testing.T) {
	jobs, err := buildJobs("exp", "", "", "", "fig3,fig11", "1:4", false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 8 {
		t.Fatalf("got %d jobs, want 2 experiments × 4 seeds", len(jobs))
	}
	if jobs[0].ID != "fig3/seed1" || jobs[7].ID != "fig11/seed4" {
		t.Errorf("ids %q .. %q", jobs[0].ID, jobs[7].ID)
	}
}

func TestBuildJobsErrors(t *testing.T) {
	for _, c := range []struct{ kind, model, flows, delays, exp, seeds string }{
		{"nope", "", "", "", "", ""},
		{"pm", "quic", "1:4", "1e-6", "", ""},
		{"pm", "dcqcn", "4:1", "1e-6", "", ""},
		{"pm", "dcqcn", "1:4", "zzz", "", ""},
		{"exp", "", "", "", "notanexp", ""},
		{"exp", "", "", "", "fig3", "x"},
	} {
		if _, err := buildJobs(c.kind, c.model, c.flows, c.delays, c.exp, c.seeds, false, nil); err == nil {
			t.Errorf("buildJobs(%+v) accepted", c)
		}
	}
}

// readRows parses a checkpoint file into rows keyed by job id (last row
// per id wins, matching resume semantics).
func readRows(t *testing.T, path string) map[string]map[string]interface{} {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows := map[string]map[string]interface{}{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var m map[string]interface{}
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("bad row %q: %v", sc.Text(), err)
		}
		rows[m["job"].(string)] = m
	}
	return rows
}

// A 16+ job grid run with -workers 4 must checkpoint the same rows as
// -workers 1, and a -resume re-run must skip everything.
func TestCLIGridDeterministicAndResume(t *testing.T) {
	dir := t.TempDir()
	grid := []string{"-kind", "pm", "-model", "dcqcn", "-flows", "1,2,8,10,32,64", "-delays", "1e-6,50e-6,85e-6", "-quiet"}

	runCLI := func(extra ...string) (string, int) {
		var errOut strings.Builder
		code := run(append(append([]string{}, grid...), extra...), &errOut)
		return errOut.String(), code
	}

	serialPath := filepath.Join(dir, "serial.jsonl")
	if errText, code := runCLI("-workers", "1", "-out", serialPath); code != 0 {
		t.Fatalf("serial run failed (%d): %s", code, errText)
	}
	parallelPath := filepath.Join(dir, "parallel.jsonl")
	if errText, code := runCLI("-workers", "4", "-out", parallelPath); code != 0 {
		t.Fatalf("parallel run failed (%d): %s", code, errText)
	}

	serial, parallel := readRows(t, serialPath), readRows(t, parallelPath)
	if len(serial) != 18 || len(parallel) != 18 {
		t.Fatalf("row counts %d / %d, want 18", len(serial), len(parallel))
	}
	canon := func(rows map[string]map[string]interface{}) string {
		ids := make([]string, 0, len(rows))
		for id := range rows {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		var sb strings.Builder
		for _, id := range ids {
			b, _ := json.Marshal(rows[id])
			sb.Write(b)
			sb.WriteByte('\n')
		}
		return sb.String()
	}
	if canon(serial) != canon(parallel) {
		t.Errorf("parallel checkpoint differs from serial:\n%s\nvs\n%s", canon(parallel), canon(serial))
	}

	// Simulate a killed run: keep only the first 5 lines, then resume.
	b, err := os.ReadFile(serialPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(b, []byte("\n"))
	truncated := filepath.Join(dir, "resume.jsonl")
	if err := os.WriteFile(truncated, bytes.Join(lines[:5], nil), 0o644); err != nil {
		t.Fatal(err)
	}
	errText, code := runCLI("-workers", "2", "-out", truncated, "-resume")
	if code != 0 {
		t.Fatalf("resume run failed (%d): %s", code, errText)
	}
	if !strings.Contains(errText, "resuming, 5 of 18 jobs already done") {
		t.Errorf("resume banner missing: %s", errText)
	}
	if got := readRows(t, truncated); len(got) != 18 || canon(got) != canon(serial) {
		t.Errorf("resumed checkpoint incomplete or divergent (%d rows)", len(got))
	}
}

// An exp grid with every observability export on writes one trace and
// one audit file per job (named from the job id, "/" → "_"), each opening
// with its self-describing header, plus the shared metrics, probe and
// histogram exports.
func TestCLIExpGridWritesPerJobExports(t *testing.T) {
	dir := t.TempDir()
	at := func(name string) string { return filepath.Join(dir, name) }
	var errOut strings.Builder
	code := run([]string{
		"-kind", "exp", "-exp", "fig3", "-seeds", "1:2", "-workers", "2", "-quiet",
		"-out", at("rows.jsonl"), "-metrics", at("m.tsv"), "-trace", at("t.jsonl"),
		"-probe", at("p.jsonl"), "-hist", at("h.tsv"), "-audit", at("a.jsonl"), "-invariants",
	}, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if rows := readRows(t, at("rows.jsonl")); len(rows) != 2 {
		t.Errorf("checkpoint has %d rows, want 2", len(rows))
	}
	for _, name := range []string{"t.fig3_seed1.jsonl", "t.fig3_seed2.jsonl", "a.fig3_seed1.jsonl", "a.fig3_seed2.jsonl"} {
		b, err := os.ReadFile(at(name))
		if err != nil {
			t.Fatalf("per-job export missing: %v", err)
		}
		if !bytes.Contains(b, []byte("exp=fig3")) {
			t.Errorf("%s lacks the flag-echo header: %q", name, b)
		}
	}
	for _, name := range []string{"m.tsv", "p.jsonl", "h.tsv"} {
		if _, err := os.Stat(at(name)); err != nil {
			t.Errorf("shared export missing: %v", err)
		}
	}
}

func TestCLIUsageErrors(t *testing.T) {
	var errOut strings.Builder
	if code := run([]string{"-kind", "bogus"}, &errOut); code != 2 {
		t.Fatalf("bogus kind exit %d, want 2", code)
	}
	if code := run([]string{"-bogus-flag"}, &errOut); code != 2 {
		t.Fatalf("bogus flag exit %d, want 2", code)
	}
	dir := t.TempDir()
	out := filepath.Join(dir, "pm.jsonl")
	pm := []string{"-kind", "pm", "-flows", "2"}
	type usage struct {
		args []string
		want string
	}
	cases := []usage{
		{[]string{"-kind", "exp", "-exp", "fig3", "-probe-every", "1e300"}, "-probe-every"},
		{append(pm, "-retries", "-2"), "-retries"},
		{append(pm, "-workers", "-1"), "-workers"},
		{append(pm, "-timeout", "-1s"), "-timeout"},
		// A stray argument would end parsing and drop every flag after it.
		{append(pm, "stray"), `"stray"`},
		// Flags the grid kind has no input for.
		{append(pm, "-model", "patched", "-delays", "1e-6"), "-delays"},
		{append(pm, "-exp", "fig3"), "-exp"},
		{append(pm, "-seeds", "1:2"), "-seeds"},
		{append(pm, "-full"), "-full"},
		{[]string{"-kind", "exp", "-exp", "fig3", "-model", "dcqcn"}, "-model"},
		{[]string{"-kind", "exp", "-exp", "fig3", "-flows", "2"}, "-flows"},
		{[]string{"-kind", "exp", "-exp", "fig3", "-delays", "1e-6"}, "-delays"},
		{[]string{"-kind", "crossval", "-flows", "2"}, "-flows"},
		{[]string{"-kind", "crossval", "-seeds", "1:2"}, "-seeds"},
	}
	// Only the exp grid is observed: pm and crossval refuse every
	// observer flag before opening its file.
	observer := [][]string{
		{"-metrics", filepath.Join(dir, "m.tsv")}, {"-trace", filepath.Join(dir, "t.jsonl")},
		{"-probe", filepath.Join(dir, "p.jsonl")}, {"-probe-every", "1e-4"},
		{"-hist", filepath.Join(dir, "h.jsonl")}, {"-audit", filepath.Join(dir, "a.jsonl")},
		{"-invariants"},
	}
	for _, kind := range [][]string{pm, {"-kind", "crossval"}} {
		for _, f := range observer {
			cases = append(cases, usage{append(append([]string(nil), kind...), f...), f[0]})
		}
	}
	for _, c := range cases {
		errOut.Reset()
		args := append(append([]string(nil), c.args...), "-out", out, "-quiet")
		if code := run(args, &errOut); code != 2 {
			t.Errorf("%v: exit %d, want 2", c.args, code)
		}
		if msg := errOut.String(); !strings.HasPrefix(msg, "sweep: ") || strings.Count(msg, "\n") != 1 ||
			!strings.Contains(msg, c.want) {
			t.Errorf("%v: stderr %q, want one sweep: line naming %s", c.args, msg, c.want)
		}
	}
	if files, _ := os.ReadDir(dir); len(files) != 0 {
		t.Errorf("a refused sweep created %s", files[0].Name())
	}
}
