package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ecndelay/internal/des"
	"ecndelay/internal/obs"
)

// writeAudit serialises decisions through the real sink so the test file
// has exactly the bytes a -audit run would produce.
func writeAudit(t *testing.T, dir string, hdr *obs.Header, decs []obs.Decision) string {
	t.Helper()
	path := filepath.Join(dir, "audit.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	s := obs.NewAuditJSONLSink(f, len(decs))
	if hdr != nil {
		s.SetHeader(*hdr)
	}
	for _, d := range decs {
		s.Decision(d)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// sawtoothAudit builds one mark episode feeding a flow whose rate swings
// 1 Gb/s → 0.5 Gb/s repeatedly: enough cycles for the oscillation
// detector, every cut attributed.
func sawtoothAudit() []obs.Decision {
	decs := []obs.Decision{
		{T: des.Time(1000), Type: obs.DecMarkOpen, Node: 9, Episode: 7, QBytes: 60000},
		{T: des.Time(900000), Type: obs.DecMarkClose, Node: 9, Episode: 7},
	}
	var seq uint64
	for i := 0; i < 4; i++ {
		base := des.Time(10000 + i*200000)
		decs = append(decs,
			obs.Decision{T: base, Type: obs.DecRateCut, Node: 1, Flow: 3, Seq: seq,
				Episode: 7, OldRate: 1e9, NewRate: 5e8, RTT: 90e-6},
			obs.Decision{T: base + 100000, Type: obs.DecAdditiveInc, Node: 1, Flow: 3, Seq: seq + 1,
				OldRate: 5e8, NewRate: 1e9},
		)
		seq += 2
	}
	return decs
}

func TestRunFullReport(t *testing.T) {
	dir := t.TempDir()
	hdr := &obs.Header{Schema: "audit", Version: 1, Seed: 42, Proto: "dcqcn", Flags: "n=10"}
	audit := writeAudit(t, dir, hdr, sawtoothAudit())
	rates := filepath.Join(dir, "rates.jsonl")

	var out, errb bytes.Buffer
	code := run([]string{"-audit", audit, "-rates", rates, "-require-attributed"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, want 0; stderr: %s", code, errb.String())
	}
	got := out.String()
	for _, frag := range []string{
		"v1 seed=42 proto=dcqcn",
		`flags="n=10"`,
		"attribution: 4 rate cuts, 4 attributed, 0 unattributed; 1 mark episodes, 0 orphaned",
		"mark→rate-cut latency: p50 90.0µs",
		"episode-open→first-cut latency:",
		"rate timelines: 1 flows",
		"oscillating:",
	} {
		if !strings.Contains(got, frag) {
			t.Errorf("report missing %q; got:\n%s", frag, got)
		}
	}

	data, err := os.ReadFile(rates)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(lines) != 8 {
		t.Fatalf("rates export has %d lines, want 8 (one per rate decision)", len(lines))
	}
	var r struct {
		Node int32   `json:"node"`
		Flow int32   `json:"flow"`
		T    float64 `json:"t"`
		Rate float64 `json:"rate"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &r); err != nil {
		t.Fatalf("rates line is not valid JSON: %v", err)
	}
	if r.Node != 1 || r.Flow != 3 || r.Rate != 5e8 {
		t.Errorf("first rates record = %+v, want node 1 flow 3 rate 5e8", r)
	}
}

// A cut with no episode fails -require-attributed (exit 1) but still
// reports normally without the gate (exit 0).
func TestRunRequireAttributed(t *testing.T) {
	dir := t.TempDir()
	decs := append(sawtoothAudit(),
		obs.Decision{T: des.Time(950000), Type: obs.DecRateCut, Node: 2, Flow: 0,
			OldRate: 1e9, NewRate: 5e8}) // Episode 0: unattributed
	audit := writeAudit(t, dir, nil, decs)

	var out, errb bytes.Buffer
	if code := run([]string{"-audit", audit}, &out, &errb); code != 0 {
		t.Fatalf("ungated exit %d, want 0; stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "5 rate cuts, 4 attributed, 1 unattributed") {
		t.Errorf("report miscounted attribution:\n%s", out.String())
	}

	out.Reset()
	errb.Reset()
	if code := run([]string{"-audit", audit, "-require-attributed"}, &out, &errb); code != 1 {
		t.Fatalf("gated exit %d, want 1", code)
	}
	if !strings.Contains(errb.String(), "1 of 5 rate cuts unattributed") {
		t.Errorf("gate failure message missing; stderr: %s", errb.String())
	}
}

// Exports without a header line (older files, hand-built streams) are
// still analysed.
func TestRunToleratesMissingHeader(t *testing.T) {
	dir := t.TempDir()
	audit := writeAudit(t, dir, nil, sawtoothAudit())
	var out, errb bytes.Buffer
	if code := run([]string{"-audit", audit}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, want 0; stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "(no header)") {
		t.Errorf("report should note the absent header:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "4 attributed") {
		t.Errorf("records after a missing header were not analysed:\n%s", out.String())
	}
}

func TestRunOrphanedEpisodes(t *testing.T) {
	dir := t.TempDir()
	decs := []obs.Decision{
		{T: des.Time(1000), Type: obs.DecMarkOpen, Node: 9, Episode: 7},
		{T: des.Time(2000), Type: obs.DecMarkOpen, Node: 9, Episode: 8},
		{T: des.Time(90000), Type: obs.DecRateCut, Node: 1, Episode: 7, OldRate: 1e9, NewRate: 5e8},
	}
	audit := writeAudit(t, dir, nil, decs)
	var out, errb bytes.Buffer
	if code := run([]string{"-audit", audit}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, want 0; stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "2 mark episodes, 1 orphaned") {
		t.Errorf("orphan bookkeeping wrong:\n%s", out.String())
	}
}

func TestRunFluidComparison(t *testing.T) {
	dir := t.TempDir()
	audit := writeAudit(t, dir, nil, sawtoothAudit())
	var out, errb bytes.Buffer
	code := run([]string{"-audit", audit, "-fluid-n", "10", "-fluid-bw", "5e9"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, want 0; stderr: %s", code, errb.String())
	}
	got := out.String()
	if !strings.Contains(got, "fluid model (n=10") {
		t.Errorf("fluid comparison missing:\n%s", got)
	}
	// τ* defaults to the measured p50 mark→cut (90µs here).
	if !strings.Contains(got, "τ*=90.0µs") {
		t.Errorf("fluid τ* should default to measured p50 mark→cut:\n%s", got)
	}
	if !strings.Contains(got, "measured rate period") {
		t.Errorf("measured-vs-predicted line missing:\n%s", got)
	}
}

func TestRunQueueProbeSeries(t *testing.T) {
	dir := t.TempDir()
	audit := writeAudit(t, dir, nil, sawtoothAudit())
	probe := filepath.Join(dir, "probes.jsonl")
	var sb strings.Builder
	sb.WriteString(`{"schema":"probe","v":1,"seed":1,"proto":"dcqcn","flags":""}` + "\n")
	for i := 0; i < 12; i++ {
		v := 10000
		if i%2 == 1 {
			v = 90000
		}
		sb.WriteString(`{"probe":"port.n9.queue_bytes","t":` +
			jsonFloat(float64(i)*1e-4) + `,"v":` + jsonFloat(float64(v)) + "}\n")
	}
	if err := os.WriteFile(probe, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	code := run([]string{"-audit", audit, "-probe", probe}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, want 0; stderr: %s", code, errb.String())
	}
	got := out.String()
	if !strings.Contains(got, `queue series "port.n9.queue_bytes": 12 samples`) {
		t.Errorf("queue probe series not read:\n%s", got)
	}
	if !strings.Contains(got, "oscillating: amplitude 80.0 KB") {
		t.Errorf("queue oscillation not detected:\n%s", got)
	}
}

func jsonFloat(v float64) string {
	b, _ := json.Marshal(v)
	return string(b)
}

func TestRunUsageErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(nil, &out, &errb); code != 2 {
		t.Errorf("missing -audit: exit %d, want 2", code)
	}
	if code := run([]string{"-audit", filepath.Join(t.TempDir(), "nope.jsonl")}, &out, &errb); code != 2 {
		t.Errorf("unreadable audit: exit %d, want 2", code)
	}
	if code := run([]string{"-bogus"}, &out, &errb); code != 2 {
		t.Errorf("unknown flag: exit %d, want 2", code)
	}

	// A file holding only a header has nothing to analyse.
	dir := t.TempDir()
	empty := writeAudit(t, dir, &obs.Header{Schema: "audit", Version: 1}, nil)
	errb.Reset()
	if code := run([]string{"-audit", empty}, &out, &errb); code != 2 {
		t.Errorf("record-free audit: exit %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "no decision records") {
		t.Errorf("record-free audit message missing; stderr: %s", errb.String())
	}
}

// A refused -fluid-* value exits 2 with one ccreport: line naming the
// flag before the audit is read, so nothing reaches stdout.
func TestRunFluidFlagRefusals(t *testing.T) {
	audit := writeAudit(t, t.TempDir(), nil, sawtoothAudit())
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-fluid-n", "-3"}, "-fluid-n"},
		{[]string{"-fluid-n", "10", "-fluid-delay", "-1"}, "-fluid-delay"},
		{[]string{"-fluid-n", "10", "-fluid-delay", "NaN"}, "-fluid-delay"},
		{[]string{"-fluid-n", "10", "-fluid-delay", "Inf"}, "-fluid-delay"},
		{[]string{"-fluid-n", "10", "-fluid-bw", "0"}, "-fluid-bw"},
		{[]string{"-fluid-n", "10", "-fluid-bw", "-1"}, "-fluid-bw"},
		{[]string{"-fluid-n", "10", "-fluid-bw", "NaN"}, "-fluid-bw"},
		{[]string{"-fluid-n", "10", "-fluid-kmin", "300000"}, "-fluid-kmin"},
		{[]string{"-fluid-n", "10", "-fluid-pmax", "2"}, "-fluid-pmax"},
	} {
		var out, errb bytes.Buffer
		code := run(append([]string{"-audit", audit}, c.args...), &out, &errb)
		msg := errb.String()
		if code != 2 {
			t.Errorf("%v: exit %d, want 2 (stderr %q)", c.args, code, msg)
		}
		if out.Len() != 0 {
			t.Errorf("%v: stdout %q, want nothing", c.args, out.String())
		}
		if !strings.HasPrefix(msg, "ccreport: ") || strings.Count(msg, "\n") != 1 || !strings.Contains(msg, c.want) {
			t.Errorf("%v: stderr %q, want one ccreport: line naming %s", c.args, msg, c.want)
		}
	}
}
