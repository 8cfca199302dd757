package main

import (
	"bytes"
	"encoding/json"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ecndelay/internal/hybrid"
	"ecndelay/internal/obs"
	"ecndelay/internal/report"
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
		{[]string{"-rto", "1e-3"}, 2, "-rto"},
		{[]string{"-recovery", "-rto", "1.2e9"}, 2, "-rto"},
		{[]string{"-proto", "timely", "-recovery", "-rto", "1.2e9"}, 2, "-rto"},
		{[]string{"-seg", "32000"}, 2, "-seg"},
		{[]string{"-burst"}, 2, "-burst"},
		{[]string{"-proto", "dcqcn", "-n", "2", "-rates", "1e8,1e8"}, 2, "-rates"},
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
			[]string{"-metrics", "-trace", "-probe", "-hist", "-audit"}, "# t\tq_bytes\trate0\trate1\trate2\trate3\n"},
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

// A seeded run reproduces byte for byte: the faulty runs (data and
// feedback loss with go-back-N recovery), and the Clos incast with PFC,
// the pause watchdog and the invariant checker, which also exits 0 and
// reports its pause summary. The lossy runs are also pinned: FNV-64a
// digests of stdout and of the -trace and -metrics exports, so a change
// to loss recovery that moves one packet, counter or trace record fails
// here. The timely case fires RTOs (its -metrics export counts them); the
// dcqcn case recovers by NACK alone. Re-record the digests only after an
// intended change to the lossy path.
func TestSeededRunsReproduce(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
		want string
		// Pinned digests of stdout, -trace and -metrics; zero: unpinned.
		stdout, trace, metrics uint64
	}{
		{"lossy", []string{"-proto", "dcqcn", "-n", "4", "-horizon", "0.02",
			"-loss", "1e-3", "-ctrl-loss", "1e-2", "-recovery", "-seed", "7", "-fault-seed", "42"},
			"retx_bytes=", 0xba2395a61d45e2ef, 0x5b0ae4b91b71905, 0x7d1594852f2fc168},
		{"lossy-timely", []string{"-proto", "timely", "-n", "4", "-horizon", "0.02",
			"-loss", "1e-2", "-ctrl-loss", "1e-2", "-recovery", "-seed", "7", "-fault-seed", "42"},
			"retx_bytes=", 0xcd05140c78776d68, 0xedb61e074dc3139e, 0xa0318d8113293ec6},
		{"clos-pfc", []string{"-topology", "clos", "-radix", "4", "-tiers", "3", "-n", "6",
			"-horizon", "0.003", "-seed", "7", "-pfc-pause", "50000", "-pfc-resume", "25000",
			"-pfc-watchdog", "1e-4", "-invariants"}, "pause_storms=", 0, 0, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			first := runOK(t, c.args...)
			if !strings.Contains(first, c.want) {
				t.Errorf("output lacks %q", c.want)
			}
			if c.stdout == 0 {
				if runOK(t, c.args...) != first {
					t.Error("the same seeded run printed different output")
				}
				return
			}
			dir := t.TempDir()
			trace, metrics := filepath.Join(dir, "t.jsonl"), filepath.Join(dir, "m.tsv")
			if runOK(t, append(c.args, "-trace", trace, "-metrics", metrics)...) != first {
				t.Error("the same seeded run printed different output")
			}
			for _, d := range []struct {
				what      string
				got, want uint64
			}{
				{"stdout", fnv64a([]byte(first)), c.stdout},
				{"-trace", exportDigest(t, trace), c.trace},
				{"-metrics", exportDigest(t, metrics), c.metrics},
			} {
				if d.got != d.want {
					t.Errorf("%s digest %#x, want %#x", d.what, d.got, d.want)
				}
			}
			if c.name == "lossy-timely" && !rtosFired(t, metrics) {
				t.Error("the timely lossy run fired no RTO")
			}
		})
	}
}

// Every path that builds a run's flows, warm start or background is
// pinned: FNV-64a digests of stdout and of the -metrics export, whose
// per-host counters name every endpoint the run attached. The cases cover
// each TIMELY variant and knob, the marking and feedback-delay knobs, the
// warm start on every topology, the background aggregate with and without
// a warm start, and each non-star topology from a cold start. Re-record a
// digest only after an intended change to the path it pins.
func TestRunDigests(t *testing.T) {
	for _, c := range []struct {
		name            string
		args            []string
		stdout, metrics uint64
	}{
		{"timely", []string{"-proto", "timely", "-n", "2"}, 0xee2e6b7c71582cad, 0x2fa98d25fda03449},
		{"patched-burst", []string{"-proto", "patched", "-n", "2", "-burst"}, 0x4dddf2744859ef0e, 0x8e93881511a90be},
		{"timely-rates", []string{"-proto", "timely", "-n", "2", "-rates", "875e6,375e6"}, 0xa908699b5a0391b2, 0xfc5fa4ff1cfd8095},
		{"patched-seg", []string{"-proto", "patched", "-n", "2", "-seg", "4000"}, 0x883859c192170b4f, 0x598167e5e9552c6},
		{"ingress", []string{"-proto", "dcqcn", "-n", "4", "-bw", "40e9", "-ingress"}, 0xeaabaf871b2a30de, 0xefdf41ee8fcc9432},
		{"jitter", []string{"-proto", "dcqcn", "-n", "4", "-bw", "40e9", "-jitter", "5e-6"}, 0x888558b6d6903da6, 0xc6f054c066cec5ff},
		{"extra-delay", []string{"-proto", "dcqcn", "-n", "4", "-bw", "40e9", "-extra-delay", "20e-6"}, 0x6e838ae57d5fdbca, 0x3d5213ef61363e4e},
		{"warm-dcqcn-star", []string{"-proto", "dcqcn", "-n", "4", "-bw", "40e9", "-warm-start"}, 0xa349a571ea79d194, 0x4395d31ef22d57df},
		{"warm-patched-star", []string{"-proto", "patched", "-n", "4", "-warm-start"}, 0x92882830f8828358, 0xe453964e905e7237},
		{"warm-dcqcn-dumbbell", []string{"-topology", "dumbbell", "-proto", "dcqcn", "-n", "4", "-bw", "40e9", "-warm-start"}, 0x54b0bf139a9712c5, 0x7f415de1efebf3cd},
		{"warm-patched-dumbbell", []string{"-topology", "dumbbell", "-proto", "patched", "-n", "4", "-warm-start"}, 0xa7ccd7445c470519, 0x74c146459a098002},
		{"warm-dcqcn-parkinglot", []string{"-topology", "parkinglot", "-proto", "dcqcn", "-n", "3", "-bw", "40e9", "-warm-start"}, 0x103bb2fa9d92bc50, 0xa7ab4d66c645277c},
		{"warm-patched-parkinglot", []string{"-topology", "parkinglot", "-proto", "patched", "-n", "3", "-warm-start"}, 0xac623512ba1c5cfe, 0x542b6b8e6c271e16},
		{"warm-dcqcn-clos", []string{"-topology", "clos", "-proto", "dcqcn", "-n", "6", "-bw", "40e9", "-warm-start", "-horizon", "0.003"}, 0x7f62d509378a9219, 0x2a4083124e929a9e},
		{"warm-patched-clos", []string{"-topology", "clos", "-proto", "patched", "-n", "6", "-warm-start", "-horizon", "0.003"}, 0x664fb515c29fd202, 0x8c4ab4ef04250a9},
		{"bg", []string{"-proto", "dcqcn", "-n", "2", "-bw", "40e9", "-bg-flows", "6"}, 0x9ee2590e00a55326, 0x4fb450930153a41},
		{"bg-warm", []string{"-proto", "dcqcn", "-n", "2", "-bw", "40e9", "-bg-flows", "6", "-warm-start"}, 0xa4ec651198f82505, 0x9ef242bcc75f5840},
		{"dumbbell", []string{"-topology", "dumbbell", "-proto", "dcqcn", "-n", "4", "-bw", "40e9"}, 0xae01326a7bd4ac48, 0x347f8023ee9c1da0},
		{"parkinglot", []string{"-topology", "parkinglot", "-proto", "timely", "-n", "3"}, 0xf76e6977a8d09e13, 0xf94ce063cec4375e},
		{"clos", []string{"-topology", "clos", "-proto", "patched", "-n", "6", "-horizon", "0.003"}, 0xe19a058ca01c23c2, 0x7b2af4796b8dfd62},
	} {
		t.Run(c.name, func(t *testing.T) {
			metrics := filepath.Join(t.TempDir(), "m.tsv")
			args := append([]string{"-horizon", "0.01", "-seed", "5", "-metrics", metrics}, c.args...)
			if got := fnv64a([]byte(runOK(t, args...))); got != c.stdout {
				t.Errorf("stdout digest %#x, want %#x", got, c.stdout)
			}
			if got := exportDigest(t, metrics); got != c.metrics {
				t.Errorf("-metrics digest %#x, want %#x", got, c.metrics)
			}
		})
	}
}

func fnv64a(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// exportDigest hashes an export after its JSONL header line, which echoes
// the file's temporary path; a TSV export has no header and is hashed
// whole.
func exportDigest(t *testing.T, path string) uint64 {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.HasPrefix(b, []byte(`{"schema"`)) {
		_, b, _ = bytes.Cut(b, []byte("\n"))
	}
	return fnv64a(b)
}

// rtosFired reports whether a -metrics export counts any fired RTO.
func rtosFired(t *testing.T, path string) bool {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		name, v, _ := strings.Cut(line, "\t")
		if strings.HasSuffix(name, ".rtos") && v != "0" {
			return true
		}
	}
	return false
}

// The audit gate: the same seeded -audit run written twice to one path
// gives identical bytes (the header echoes the path, so both runs name
// the same one), and the report attributes every rate cut of the
// fault-free run to its mark episode. Attaching -audit leaves stdout
// unchanged (the star case of TestObservedRunMatchesUnobserved).
func TestAuditGate(t *testing.T) {
	audit := filepath.Join(t.TempDir(), "audit.jsonl")
	args := []string{"-proto", "dcqcn", "-n", "4", "-horizon", "0.02", "-seed", "7", "-audit", audit}
	runOK(t, args...)
	first, err := os.ReadFile(audit)
	if err != nil {
		t.Fatal(err)
	}
	runOK(t, args...)
	if second, err := os.ReadFile(audit); err != nil || !bytes.Equal(first, second) {
		t.Fatalf("the same seeded run wrote a different audit export (%v)", err)
	}
	var out, errOut strings.Builder
	if code := report.Run([]string{"-audit", audit, "-require-attributed"}, &out, &errOut); code != 0 {
		t.Fatalf("report exit %d, stderr %q", code, errOut.String())
	}
	if !strings.Contains(out.String(), " 0 unattributed; ") {
		t.Errorf("report lacks the attribution line:\n%s", out.String())
	}
}

// The percentile gate: a fixed-seed TIMELY run reproduces the checked-in
// golden latency percentiles within 5%. Regenerate the golden file with
// the same packetsim arguments after an intentional distribution change.
func TestPercentileGate(t *testing.T) {
	hist := filepath.Join(t.TempDir(), "hist.jsonl")
	runOK(t, "-proto", "timely", "-n", "2", "-horizon", "0.005", "-seed", "7", "-hist", hist)
	var out, errOut strings.Builder
	if code := report.Run([]string{"-hist", hist, "-base", filepath.Join("testdata", "golden_packetsim_hist.jsonl")},
		&out, &errOut); code != 0 {
		t.Fatalf("report exit %d, stderr %q:\n%s", code, errOut.String(), out.String())
	}
}

// A dcqcn run's export header names the scenario's operating point, bit
// for bit, with the background flows counted in N; other protocols name
// none. Every JSONL export of one run opens with a header of its own
// schema, and all of them name the same run.
func TestHeaderOperatingPoint(t *testing.T) {
	dir := t.TempDir()
	header := func(args ...string) *obs.Header {
		t.Helper()
		audit := filepath.Join(dir, "audit.jsonl")
		runOK(t, append(args, "-horizon", "0.001", "-seed", "3", "-audit", audit)...)
		hdr, _, err := obs.ReadAudit(audit)
		if err != nil || hdr == nil {
			t.Fatalf("%v: header %v, err %v", args, hdr, err)
		}
		return hdr
	}
	want := hybrid.NewDCQCNScenario(3, 3).Par
	want.C = 25e9 / 8 / hybrid.MTU
	if op := header("-proto", "dcqcn", "-n", "3", "-bw", "25e9").Op; op == nil || !sameBits(*op, want) {
		t.Errorf("-n 3 -bw 25e9 recorded %+v, want %+v", op, want)
	}
	if op := header("-proto", "dcqcn", "-n", "2", "-bg-flows", "2").Op; op == nil || op.N != 4 {
		t.Errorf("-n 2 -bg-flows 2 recorded %+v, want N = 4", op)
	}
	if op := header("-proto", "timely", "-n", "2").Op; op != nil {
		t.Errorf("-proto timely recorded %+v, want no point", op)
	}

	args := []string{"-proto", "dcqcn", "-n", "3", "-horizon", "0.001", "-seed", "3"}
	for _, schema := range []string{"trace", "probe", "hist", "audit"} {
		args = append(args, "-"+schema, filepath.Join(dir, schema+".jsonl"))
	}
	runOK(t, args...)
	var first *obs.Header
	for _, schema := range []string{"trace", "probe", "hist", "audit"} {
		b, err := os.ReadFile(filepath.Join(dir, schema+".jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		line, _, _ := bytes.Cut(b, []byte("\n"))
		var h obs.Header
		if err := json.Unmarshal(line, &h); err != nil || h.Schema != schema || h.Version != 1 {
			t.Errorf("-%s export opens with %q, want a version 1 %q header", schema, line, schema)
			continue
		}
		if first == nil {
			first = &h
		} else if h.Seed != first.Seed || h.Proto != first.Proto || h.Flags != first.Flags ||
			h.Op == nil || first.Op == nil || !sameBits(*h.Op, *first.Op) {
			t.Errorf("-%s header %+v names another run than -%s's %+v", schema, h, first.Schema, *first)
		}
	}
	if first == nil || first.Seed != 3 || first.Proto != "dcqcn" || first.Op == nil {
		t.Errorf("headers %+v, want seed 3, proto dcqcn and an operating point", first)
	}
}

// sameBits compares two structs field by field, floats by Float64bits.
func sameBits(a, b any) bool {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		fa, fb := va.Field(i), vb.Field(i)
		if fa.Kind() == reflect.Float64 {
			if math.Float64bits(fa.Float()) != math.Float64bits(fb.Float()) {
				return false
			}
		} else if fa.Interface() != fb.Interface() {
			return false
		}
	}
	return true
}
