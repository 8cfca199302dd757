package report

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ecndelay/internal/des"
	"ecndelay/internal/fixedpoint"
	"ecndelay/internal/fluid"
	"ecndelay/internal/obs"
)

// writeAudit serialises decisions through the real sink so the test file
// has exactly the bytes a -audit run would produce.
func writeAudit(t *testing.T, path string, hdr *obs.Header, decs []obs.Decision) string {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	s := obs.NewAuditJSONLSink(f, len(decs))
	if hdr != nil {
		s.SetHeader(*hdr)
	}
	for _, d := range decs {
		s.Record(d)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func writeFile(t *testing.T, path, content string) string {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
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

// unattributedCut is a cut with no episode (Episode 0).
var unattributedCut = obs.Decision{T: des.Time(950000), Type: obs.DecRateCut, Node: 2, Flow: 0,
	OldRate: 1e9, NewRate: 5e8}

// baseJSONL is a histogram export with a probe trailer row.
const baseJSONL = `{"hist":"timely.rtt_s","count":378,"min":5.7e-06,"max":0.0012,"p50":6.1e-05,"p90":4.1e-04,"p95":6.0e-04,"p99":9.0e-04,"p999":1.1e-03}
{"hist":"dcqcn.cnp_gap_s","count":2077,"min":5.0e-05,"max":0.0074,"p50":6.4e-05,"p90":1.4e-03,"p95":2.2e-03,"p99":3.7e-03,"p999":5.3e-03}
{"probe":"queue_bytes","dropped":12}
`

// fixtures writes every input file the tables name into dir.
type fixtures struct{ dir string }

func newFixtures(t *testing.T) fixtures {
	t.Helper()
	dir := t.TempDir()
	p := func(name string) string { return filepath.Join(dir, name) }
	op := fluid.DefaultDCQCNParams(10)
	op.C = 5e9 / 1000
	bad := op
	bad.Kmin = 2 * bad.Kmax
	hdr := func(op *fixedpoint.DCQCNParams) *obs.Header {
		return &obs.Header{Schema: "audit", Version: 1, Seed: 42, Proto: "dcqcn", Flags: "n=10", Op: op}
	}
	writeAudit(t, p("full.jsonl"), hdr(nil), sawtoothAudit())
	writeAudit(t, p("bare.jsonl"), nil, sawtoothAudit())
	writeAudit(t, p("unattributed.jsonl"), nil, append(sawtoothAudit(), unattributedCut))
	writeAudit(t, p("orphans.jsonl"), nil, []obs.Decision{
		{T: des.Time(1000), Type: obs.DecMarkOpen, Node: 9, Episode: 7},
		{T: des.Time(2000), Type: obs.DecMarkOpen, Node: 9, Episode: 8},
		{T: des.Time(90000), Type: obs.DecRateCut, Node: 1, Episode: 7, OldRate: 1e9, NewRate: 5e8},
	})
	writeAudit(t, p("op.jsonl"), hdr(&op), sawtoothAudit())
	writeAudit(t, p("op-nocut.jsonl"), hdr(&op), []obs.Decision{unattributedCut})
	writeAudit(t, p("op-bad.jsonl"), hdr(&bad), sawtoothAudit())
	writeAudit(t, p("header-only.jsonl"), &obs.Header{Schema: "audit", Version: 1}, nil)
	writeFile(t, p("bad.jsonl"), "{not json\n")
	writeFile(t, p("empty.jsonl"), "")

	ps := obs.NewProbeSet()
	ps.SetHeader(obs.Header{Schema: "probe", Version: 1, Seed: 1, Proto: "dcqcn"})
	alpha := ps.NewProbe("alpha0", 0)
	queue := ps.NewProbe("port.n9.queue_bytes", 0)
	later := ps.NewProbe("z.queue_bytes", 0)
	for i := 0; i < 12; i++ {
		v := 10000.0
		if i%2 == 1 {
			v = 90000
		}
		alpha.Record(float64(i)*1e-4, 0.5)
		queue.Record(float64(i)*1e-4, v)
		later.Record(float64(i)*1e-4, 3*v)
	}
	f, err := os.Create(p("probes.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if err := ps.WriteJSONL(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	writeFile(t, p("base.jsonl"), baseJSONL)
	writeFile(t, p("header.jsonl"), `{"schema":"hist","v":1,"seed":1,"proto":"dcqcn","flags":""}`+"\n"+baseJSONL)
	writeFile(t, p("worse.jsonl"), strings.Replace(baseJSONL, `"p99":9.0e-04`, `"p99":1.35e-03`, 1))
	writeFile(t, p("better.jsonl"), strings.Replace(baseJSONL, `"p99":9.0e-04`, `"p99":4.0e-04`, 1))
	writeFile(t, p("one.jsonl"), strings.SplitAfter(baseJSONL, "\n")[0])
	extra := baseJSONL
	for _, name := range []string{"d.new_s", "b.new_s", "a.new_s", "c.new_s"} {
		extra += `{"hist":"` + name + `","count":5,"min":1,"max":2,"p50":1,"p90":2,"p95":2,"p99":2,"p999":2}` + "\n"
	}
	writeFile(t, p("extra.jsonl"), extra)
	writeFile(t, p("zero.jsonl"), `{"hist":"h","count":1,"min":0,"max":0,"p50":0,"p90":0,"p95":0,"p99":0,"p999":0}`+"\n")
	writeFile(t, p("nonzero.jsonl"), `{"hist":"h","count":1,"min":0,"max":1,"p50":1,"p90":1,"p95":1,"p99":1,"p999":1}`+"\n")
	writeFile(t, p("narrow.jsonl"), `{"hist":"timely.rtt_s","count":378,"p50":6.1e-05,"p99":9.0e-04}
{"hist":"dcqcn.cnp_gap_s","count":2077,"p50":6.4e-05,"p99":3.7e-03}
`)
	return fixtures{dir}
}

// args turns "@name" arguments into paths inside the fixture directory.
func (fx fixtures) args(raw []string) []string {
	out := make([]string, len(raw))
	for i, a := range raw {
		out[i] = a
		if strings.HasPrefix(a, "@") {
			out[i] = filepath.Join(fx.dir, a[1:])
		}
	}
	return out
}

func run(args []string) (stdout, stderr string, code int) {
	var out, errOut strings.Builder
	code = Run(args, &out, &errOut)
	return out.String(), errOut.String(), code
}

// refusal is one invocation that must be refused: exit 2, one runreport:
// line naming want, and nothing on stdout.
type refusal struct {
	name string
	args []string
	want string
}

// checkRefusals runs each row as a subtest, then each undefined flag (the
// removed ones included) after base, which the flag package refuses.
func checkRefusals(t *testing.T, fx fixtures, rows []refusal, base []string, flags ...string) {
	t.Helper()
	for _, c := range rows {
		t.Run(c.name, func(t *testing.T) {
			out, msg, code := run(fx.args(c.args))
			if code != 2 || out != "" {
				t.Errorf("exit %d, stdout %q; want exit 2 and nothing on stdout", code, out)
			}
			if !strings.HasPrefix(msg, "runreport: ") || strings.Count(msg, "\n") != 1 || !strings.Contains(msg, c.want) {
				t.Errorf("stderr %q, want one runreport: line naming %s", msg, c.want)
			}
		})
	}
	for _, f := range flags {
		if out, _, code := run(fx.args(append(append([]string(nil), base...), f, "1"))); code != 2 || out != "" {
			t.Errorf("%s: exit %d, stdout %q; want exit 2 and nothing on stdout", f, code, out)
		}
	}
}

// Every flag rule and every unreadable input exits 2 with one runreport:
// line and nothing on stdout: inputs are read, and the -rates file
// written, before the report's first line. These are the refusals of the
// control-loop report (-audit and the flags that need it).
func TestRunAuditRefusals(t *testing.T) {
	checkRefusals(t, newFixtures(t), []refusal{
		{"no-input", nil, "need -audit, -hist or both"},
		{"stray-argument", []string{"-audit", "@full.jsonl", "extra"}, `"extra"`},
		{"probe-needs-audit", []string{"-hist", "@base.jsonl", "-base", "@base.jsonl", "-probe", "@probes.jsonl"}, "-probe needs -audit"},
		{"rates-needs-audit", []string{"-hist", "@base.jsonl", "-base", "@base.jsonl", "-rates", "@r.jsonl"}, "-rates needs -audit"},
		{"require-attributed-needs-audit", []string{"-hist", "@base.jsonl", "-base", "@base.jsonl", "-require-attributed"}, "-require-attributed needs -audit"},
		{"missing-audit", []string{"-audit", "@nope.jsonl"}, "nope.jsonl"},
		{"malformed-audit", []string{"-audit", "@bad.jsonl"}, "bad.jsonl:1"},
		{"header-only-audit", []string{"-audit", "@header-only.jsonl"}, "holds no decision records"},
		{"missing-probe", []string{"-audit", "@full.jsonl", "-probe", "@missing.jsonl"}, "missing.jsonl"},
		{"unwritable-rates", []string{"-audit", "@full.jsonl", "-rates", "@no/such/dir/r.jsonl"}, "r.jsonl"},
	}, []string{"-audit", "@full.jsonl"}, "-bogus", "-fluid-n")
}

// The refusals of the percentile gate (-hist against -base).
func TestRunHistRefusals(t *testing.T) {
	checkRefusals(t, newFixtures(t), []refusal{
		{"hist-needs-base", []string{"-hist", "@base.jsonl"}, "-hist and -base"},
		{"base-needs-hist", []string{"-audit", "@full.jsonl", "-base", "@base.jsonl"}, "-hist and -base"},
		{"missing-hist", []string{"-hist", "@nope.jsonl", "-base", "@base.jsonl"}, "nope.jsonl"},
		{"missing-base", []string{"-hist", "@base.jsonl", "-base", "@nope.jsonl"}, "nope.jsonl"},
		{"malformed-hist", []string{"-hist", "@bad.jsonl", "-base", "@base.jsonl"}, "bad.jsonl:1"},
		{"empty-base", []string{"-hist", "@base.jsonl", "-base", "@empty.jsonl"}, "holds no histograms"},
	}, []string{"-hist", "@base.jsonl", "-base", "@base.jsonl"}, "-bogus", "-threshold", "-new", "-quiet")
}

// fullReport is the audit section of full.jsonl with -rates, line for
// line as the control-loop report prints it.
const fullReport = `audit @full.jsonl v1 seed=42 proto=dcqcn flags="n=10"
10 decisions over 0.000899s

attribution: 4 rate cuts, 4 attributed, 0 unattributed; 1 mark episodes, 0 orphaned
mark→rate-cut latency: p50 90.0µs p99 90.0µs (4 attributed cuts)
episode-open→first-cut latency: p50 9.0µs p99 9.0µs (1 episodes with cuts)

rate timelines: 1 flows
  n1 flow 3: 8 rate changes, 4000.0→8000.0 Mb/s; oscillating: amplitude 4000.0 Mb/s, period 200.0µs over 3 cycles
rate oscillation: mean period 200.0µs, mean amplitude 4000.0 Mb/s across 1 oscillating flows

wrote 1 rate timelines to @r.jsonl
`

// Each row is one invocation: its exit status, the fragments its stdout
// must (and must not) hold, and the fragment its stderr must hold. Every
// row runs five times and must print the same bytes each time, so no
// section depends on map order.
func TestRunReports(t *testing.T) {
	fx := newFixtures(t)
	for _, c := range []struct {
		name    string
		args    []string
		code    int
		want    []string
		wantNot []string
		stderr  string
	}{
		{name: "full-report", args: []string{"-audit", "@full.jsonl", "-rates", "@r.jsonl", "-require-attributed"},
			want: []string{fullReport}},
		{name: "unattributed-ungated", args: []string{"-audit", "@unattributed.jsonl"},
			want: []string{"5 rate cuts, 4 attributed, 1 unattributed"}},
		{name: "unattributed-gated", args: []string{"-audit", "@unattributed.jsonl", "-require-attributed"}, code: 1,
			want: []string{"5 rate cuts, 4 attributed, 1 unattributed"}, stderr: "runreport: 1 of 5 rate cuts unattributed\n"},
		{name: "no-header", args: []string{"-audit", "@bare.jsonl"},
			want: []string{"(no header)", "4 attributed"}},
		{name: "orphaned-episodes", args: []string{"-audit", "@orphans.jsonl"},
			want: []string{"2 mark episodes, 1 orphaned"}},
		{name: "queue-probe", args: []string{"-audit", "@full.jsonl", "-probe", "@probes.jsonl"},
			want: []string{"audit @full.jsonl v1 seed=42 proto=dcqcn flags=\"n=10\"\nprobe @probes.jsonl v1 seed=1 proto=dcqcn\n",
				`queue series "port.n9.queue_bytes": 12 samples; oscillating: amplitude 80.0 KB`},
			wantNot: []string{"z.queue_bytes", "alpha0"}},
		{name: "model-from-header", args: []string{"-audit", "@op.jsonl"},
			want: []string{"\nfluid model (n=10, C=5e+09 B/s, τ*=90.0µs): phase margin ", "  measured rate period 200.0µs = "}},
		{name: "model-recorded-tau", args: []string{"-audit", "@op-nocut.jsonl"},
			want: []string{"fluid model (n=10, C=5e+09 B/s, τ*=4.0µs): phase margin "}},
		{name: "model-not-linearisable", args: []string{"-audit", "@op-bad.jsonl"},
			want: []string{"fluid model (n=10, C=5e+09 B/s, τ*=90.0µs): not linearisable at the recorded point: dcqcn params: need 0 <= Kmin < Kmax\n"}},
		{name: "no-point-no-model", args: []string{"-audit", "@full.jsonl"}, wantNot: []string{"fluid model"}},
		{name: "hist-identical", args: []string{"-hist", "@base.jsonl", "-base", "@base.jsonl"},
			want: []string{"ok         timely.rtt_s p99: 0.0009 -> 0.0009 (+0.0%)\n", "ok         dcqcn.cnp_gap_s p999"}, wantNot: []string{"REGRESSION", "note"}},
		{name: "hist-header-tolerated", args: []string{"-hist", "@header.jsonl", "-base", "@header.jsonl"},
			want: []string{"hist @header.jsonl v1 seed=1 proto=dcqcn\nbase @header.jsonl v1 seed=1 proto=dcqcn\n",
				"ok         timely.rtt_s p50"}},
		{name: "hist-regression", args: []string{"-hist", "@worse.jsonl", "-base", "@base.jsonl"}, code: 1,
			want: []string{"REGRESSION timely.rtt_s p99: 0.0009 -> 0.00135 (+50.0%)\n"}, stderr: "runreport: 1 regression(s) beyond +5.0%\n"},
		{name: "hist-improvement", args: []string{"-hist", "@better.jsonl", "-base", "@base.jsonl"},
			want: []string{"ok         timely.rtt_s p99: 0.0009 -> 0.0004 (-55.6%)\n"}},
		{name: "hist-missing", args: []string{"-hist", "@one.jsonl", "-base", "@base.jsonl"}, code: 1,
			want: []string{"MISSING    dcqcn.cnp_gap_s: in baseline only\n"}, stderr: "1 regression(s)"},
		{name: "hist-empty-candidate", args: []string{"-hist", "@empty.jsonl", "-base", "@base.jsonl"}, code: 1,
			stderr: "2 regression(s)"},
		{name: "hist-new-histograms", args: []string{"-hist", "@extra.jsonl", "-base", "@base.jsonl"},
			want: []string{"note       a.new_s: new histogram, no baseline\n" +
				"note       b.new_s: new histogram, no baseline\n" +
				"note       c.new_s: new histogram, no baseline\n" +
				"note       d.new_s: new histogram, no baseline\n"}},
		{name: "hist-zero-baseline", args: []string{"-hist", "@nonzero.jsonl", "-base", "@zero.jsonl"}, code: 1,
			stderr: "5 regression(s)"},
		{name: "hist-zero-to-zero", args: []string{"-hist", "@zero.jsonl", "-base", "@zero.jsonl"}},
		// Columns a candidate lacks read as zero: improvements, never
		// regressions; a baseline lacking them regresses on each one.
		{name: "hist-absent-columns", args: []string{"-hist", "@narrow.jsonl", "-base", "@base.jsonl"},
			want: []string{"ok         timely.rtt_s p90: 0.00041 -> 0 (-100.0%)\n"}},
		{name: "hist-absent-baseline-columns", args: []string{"-hist", "@base.jsonl", "-base", "@narrow.jsonl"}, code: 1,
			stderr: "6 regression(s)"},
		{name: "both-sections", args: []string{"-audit", "@unattributed.jsonl", "-require-attributed", "-hist", "@worse.jsonl", "-base", "@base.jsonl"},
			code: 1, want: []string{"1 unattributed; ", "across 1 oscillating flows\n\nhist @worse.jsonl (no header)\nbase @base.jsonl (no header)\nok         dcqcn.cnp_gap_s p50"},
			stderr: "runreport: 1 of 5 rate cuts unattributed\nrunreport: 1 regression(s) beyond +5.0%\n"},
	} {
		t.Run(c.name, func(t *testing.T) {
			args := fx.args(c.args)
			out, errOut, code := run(args)
			out = strings.ReplaceAll(out, fx.dir+string(filepath.Separator), "@")
			if code != c.code {
				t.Errorf("exit %d, want %d; stderr %q", code, c.code, errOut)
			}
			for _, frag := range c.want {
				if !strings.Contains(out, frag) {
					t.Errorf("stdout lacks %q:\n%s", frag, out)
				}
			}
			for _, frag := range c.wantNot {
				if strings.Contains(out, frag) {
					t.Errorf("stdout holds %q:\n%s", frag, out)
				}
			}
			if !strings.Contains(errOut, c.stderr) || (c.code == 0) != (errOut == "") {
				t.Errorf("stderr %q, want %q", errOut, c.stderr)
			}
			for i := 0; i < 4; i++ {
				again, _, _ := run(args)
				if strings.ReplaceAll(again, fx.dir+string(filepath.Separator), "@") != out {
					t.Fatalf("a rerun printed different bytes:\n%s\nthen\n%s", out, again)
				}
			}
		})
	}
}

// The -rates export holds one record per rate decision, flows in (node,
// flow) order.
func TestRunRatesExport(t *testing.T) {
	fx := newFixtures(t)
	rates := filepath.Join(fx.dir, "rates.jsonl")
	if _, errOut, code := run(fx.args([]string{"-audit", "@unattributed.jsonl", "-rates", rates})); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	data, err := os.ReadFile(rates)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(lines) != 9 {
		t.Fatalf("rates export has %d lines, want 9 (one per rate decision)", len(lines))
	}
	type rec struct {
		Node int32   `json:"node"`
		Flow int32   `json:"flow"`
		T    float64 `json:"t"`
		Rate float64 `json:"rate"`
	}
	var first, last rec
	if json.Unmarshal([]byte(lines[0]), &first) != nil || json.Unmarshal([]byte(lines[8]), &last) != nil {
		t.Fatalf("rates lines are not JSON:\n%s", data)
	}
	if first != (rec{Node: 1, Flow: 3, T: 1e-5, Rate: 5e8}) || last != (rec{Node: 2, Flow: 0, T: 9.5e-4, Rate: 5e8}) {
		t.Errorf("rates records first %+v last %+v, want n1 flow 3 first and n2 flow 0 last", first, last)
	}
}
