package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const baseJSONL = `{"hist":"timely.rtt_s","count":378,"min":5.7e-06,"max":0.0012,"p50":6.1e-05,"p90":4.1e-04,"p95":6.0e-04,"p99":9.0e-04,"p999":1.1e-03}
{"hist":"dcqcn.cnp_gap_s","count":2077,"min":5.0e-05,"max":0.0074,"p50":6.4e-05,"p90":1.4e-03,"p95":2.2e-03,"p99":3.7e-03,"p999":5.3e-03}
{"probe":"queue_bytes","dropped":12}
`

func writeFile(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func runCLI(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	var out, errOut strings.Builder
	code = run(args, &out, &errOut)
	return out.String(), errOut.String(), code
}

func TestIdenticalRunsPass(t *testing.T) {
	dir := t.TempDir()
	base := writeFile(t, dir, "base.jsonl", baseJSONL)
	cand := writeFile(t, dir, "new.jsonl", baseJSONL)
	out, errText, code := runCLI(t, "-base", base, "-new", cand)
	if code != 0 {
		t.Fatalf("identical runs exit %d: %s%s", code, out, errText)
	}
	if strings.Contains(out, "REGRESSION") {
		t.Errorf("identical runs flagged a regression:\n%s", out)
	}
	if !strings.Contains(out, "ok         timely.rtt_s p99") {
		t.Errorf("comparison table missing expected row:\n%s", out)
	}
}

func TestInjectedRegressionFails(t *testing.T) {
	dir := t.TempDir()
	base := writeFile(t, dir, "base.jsonl", baseJSONL)
	// p99 of timely.rtt_s inflated 50%, everything else unchanged.
	worse := strings.Replace(baseJSONL, `"p99":9.0e-04`, `"p99":1.35e-03`, 1)
	cand := writeFile(t, dir, "new.jsonl", worse)
	out, errText, code := runCLI(t, "-base", base, "-new", cand, "-threshold", "0.10")
	if code != 1 {
		t.Fatalf("regressed run exit %d, want 1: %s%s", code, out, errText)
	}
	if !strings.Contains(out, "REGRESSION timely.rtt_s p99") {
		t.Errorf("regressed percentile not flagged:\n%s", out)
	}
	if !strings.Contains(errText, "1 regression(s)") {
		t.Errorf("summary line missing: %s", errText)
	}
	// The same delta passes under a looser threshold.
	if _, _, code := runCLI(t, "-base", base, "-new", cand, "-threshold", "0.60"); code != 0 {
		t.Errorf("50%% delta must pass a 60%% threshold, got exit %d", code)
	}
}

func TestImprovementPasses(t *testing.T) {
	dir := t.TempDir()
	base := writeFile(t, dir, "base.jsonl", baseJSONL)
	better := strings.Replace(baseJSONL, `"p99":9.0e-04`, `"p99":4.0e-04`, 1)
	cand := writeFile(t, dir, "new.jsonl", better)
	out, _, code := runCLI(t, "-base", base, "-new", cand)
	if code != 0 {
		t.Fatalf("improvement exits %d:\n%s", code, out)
	}
}

func TestMissingHistogramFailsUnlessAllowed(t *testing.T) {
	dir := t.TempDir()
	base := writeFile(t, dir, "base.jsonl", baseJSONL)
	oneOnly := `{"hist":"timely.rtt_s","count":378,"min":5.7e-06,"max":0.0012,"p50":6.1e-05,"p90":4.1e-04,"p95":6.0e-04,"p99":9.0e-04,"p999":1.1e-03}` + "\n"
	cand := writeFile(t, dir, "new.jsonl", oneOnly)
	out, _, code := runCLI(t, "-base", base, "-new", cand)
	if code != 1 || !strings.Contains(out, "MISSING    dcqcn.cnp_gap_s") {
		t.Fatalf("missing histogram not flagged (exit %d):\n%s", code, out)
	}
	if _, _, code := runCLI(t, "-base", base, "-new", cand, "-allow-missing"); code != 0 {
		t.Errorf("-allow-missing still fails: exit %d", code)
	}
}

// Candidate-only histograms are reported, in name order, and never fail.
func TestNewHistogramIsInformational(t *testing.T) {
	dir := t.TempDir()
	base := writeFile(t, dir, "base.jsonl", baseJSONL)
	extra := baseJSONL
	for _, name := range []string{"d.new_s", "b.new_s", "a.new_s", "c.new_s"} {
		extra += `{"hist":"` + name + `","count":5,"min":1,"max":2,"p50":1,"p90":2,"p95":2,"p99":2,"p999":2}` + "\n"
	}
	cand := writeFile(t, dir, "new.jsonl", extra)
	// Map order varies from run to run; ten runs would all come out sorted
	// by chance only rarely.
	for i := 0; i < 10; i++ {
		out, _, code := runCLI(t, "-base", base, "-new", cand)
		if code != 0 {
			t.Fatalf("candidate-only histogram must not fail, exit %d:\n%s", code, out)
		}
		want := "note       a.new_s: new histogram, no baseline\n" +
			"note       b.new_s: new histogram, no baseline\n" +
			"note       c.new_s: new histogram, no baseline\n" +
			"note       d.new_s: new histogram, no baseline\n"
		if !strings.Contains(out, want) {
			t.Fatalf("candidate-only histograms not reported in name order:\n%s", out)
		}
	}
}

// A threshold that is NaN, infinite or negative would switch the gate off
// or flag unchanged rows, so it is refused as a usage error.
func TestThresholdRefused(t *testing.T) {
	dir := t.TempDir()
	base := writeFile(t, dir, "base.jsonl", baseJSONL)
	for _, th := range []string{"NaN", "+Inf", "-Inf", "-0.1"} {
		out, errText, code := runCLI(t, "-base", base, "-new", base, "-threshold", th)
		if code != 2 || out != "" {
			t.Errorf("-threshold %s: exit %d, stdout %q; want exit 2 and no report", th, code, out)
		}
		if !strings.HasPrefix(errText, "obsreport: ") || strings.Count(errText, "\n") != 1 ||
			!strings.Contains(errText, "-threshold") {
			t.Errorf("-threshold %s: stderr %q, want one obsreport: line naming -threshold", th, errText)
		}
	}
}

func TestZeroBaselineRegresses(t *testing.T) {
	dir := t.TempDir()
	zero := `{"hist":"h","count":1,"min":0,"max":0,"p50":0,"p90":0,"p95":0,"p99":0,"p999":0}` + "\n"
	nonzero := `{"hist":"h","count":1,"min":0,"max":1,"p50":1,"p90":1,"p95":1,"p99":1,"p999":1}` + "\n"
	base := writeFile(t, dir, "base.jsonl", zero)
	cand := writeFile(t, dir, "new.jsonl", nonzero)
	if _, _, code := runCLI(t, "-base", base, "-new", cand, "-threshold", "1e9"); code != 1 {
		t.Errorf("0 -> 1 must regress under any threshold, exit %d", code)
	}
	same := writeFile(t, dir, "same.jsonl", zero)
	if _, _, code := runCLI(t, "-base", base, "-new", same); code != 0 {
		t.Errorf("0 -> 0 must pass, exit %d", code)
	}
}

func TestUsageErrors(t *testing.T) {
	dir := t.TempDir()
	base := writeFile(t, dir, "base.jsonl", baseJSONL)
	for _, args := range [][]string{
		{},
		{"-base", base},
		{"-base", base, "-new", filepath.Join(dir, "nope.jsonl")},
		{"-base", base, "-new", base, "-quantiles", "p42"},
		{"-base", base, "-new", base, "-quantiles", ","},
	} {
		if _, _, code := runCLI(t, args...); code != 2 {
			t.Errorf("args %v exit %d, want 2", args, code)
		}
	}
	empty := writeFile(t, dir, "empty.jsonl", "")
	if _, _, code := runCLI(t, "-base", empty, "-new", base); code != 2 {
		t.Errorf("empty baseline must be a usage error")
	}
}

// An empty candidate export (a run that produced no histograms) fails the
// gate for every baseline histogram — unless -allow-missing waives it.
func TestEmptyCandidateExport(t *testing.T) {
	dir := t.TempDir()
	base := writeFile(t, dir, "base.jsonl", baseJSONL)
	cand := writeFile(t, dir, "new.jsonl", "")
	out, errText, code := runCLI(t, "-base", base, "-new", cand)
	if code != 1 {
		t.Fatalf("empty candidate exit %d, want 1:\n%s%s", code, out, errText)
	}
	if !strings.Contains(errText, "2 regression(s)") {
		t.Errorf("both baseline histograms should be flagged missing: %s", errText)
	}
	if _, _, code := runCLI(t, "-base", base, "-new", cand, "-allow-missing"); code != 0 {
		t.Errorf("-allow-missing should tolerate an empty candidate, exit %d", code)
	}
}

// A candidate written with a narrower quantile set (absent keys decode to
// zero) must not sneak past as an "improvement" on the missing columns:
// restricting -quantiles to the shared set is the supported comparison.
func TestMismatchedQuantileSets(t *testing.T) {
	dir := t.TempDir()
	base := writeFile(t, dir, "base.jsonl", baseJSONL)
	narrow := `{"hist":"timely.rtt_s","count":378,"p50":6.1e-05,"p99":9.0e-04}
{"hist":"dcqcn.cnp_gap_s","count":2077,"p50":6.4e-05,"p99":3.7e-03}
`
	cand := writeFile(t, dir, "new.jsonl", narrow)
	// Full-set comparison sees p90 collapse to 0 — an "improvement", so it
	// passes; the note is the count drift, not the zeros.
	if _, _, code := runCLI(t, "-base", base, "-new", cand); code != 0 {
		t.Fatalf("absent-column zeros read as improvements, exit %d", code)
	}
	// Restricted to the shared columns the comparison is meaningful.
	out, _, code := runCLI(t, "-base", base, "-new", cand, "-quantiles", "p50,p99")
	if code != 0 {
		t.Fatalf("shared-column comparison exit %d:\n%s", code, out)
	}
	if strings.Contains(out, "p90") {
		t.Errorf("-quantiles p50,p99 still compared p90:\n%s", out)
	}
	// And the reverse direction — baseline narrow, candidate full — trips
	// the zero-baseline rule on the baseline's absent columns.
	if _, _, code := runCLI(t, "-base", cand, "-new", base, "-quantiles", "p90"); code != 1 {
		t.Errorf("0-baseline column must regress, exit %d", code)
	}
}

// Self-describing header lines (schema records without a "hist" key) are
// skipped, like the probe trailer rows.
func TestHeaderLineTolerated(t *testing.T) {
	dir := t.TempDir()
	withHeader := `{"schema":"hist","v":1,"seed":1,"proto":"dcqcn","flags":""}` + "\n" + baseJSONL
	base := writeFile(t, dir, "base.jsonl", withHeader)
	cand := writeFile(t, dir, "new.jsonl", baseJSONL)
	if out, errText, code := runCLI(t, "-base", base, "-new", cand); code != 0 {
		t.Fatalf("header line broke the comparison (exit %d):\n%s%s", code, out, errText)
	}
}

func TestMalformedLineIsIOError(t *testing.T) {
	dir := t.TempDir()
	base := writeFile(t, dir, "base.jsonl", baseJSONL)
	bad := writeFile(t, dir, "bad.jsonl", "{not json\n")
	_, errText, code := runCLI(t, "-base", base, "-new", bad)
	if code != 2 {
		t.Fatalf("malformed candidate exit %d, want 2", code)
	}
	if !strings.Contains(errText, "bad.jsonl:1") {
		t.Errorf("error should name file and line: %s", errText)
	}
}

// -quiet prints regressed rows only.
func TestQuietSuppressesOKRows(t *testing.T) {
	dir := t.TempDir()
	base := writeFile(t, dir, "base.jsonl", baseJSONL)
	worse := strings.Replace(baseJSONL, `"p99":9.0e-04`, `"p99":1.35e-03`, 1)
	cand := writeFile(t, dir, "new.jsonl", worse)
	out, _, code := runCLI(t, "-base", base, "-new", cand, "-quiet")
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if strings.Contains(out, "ok ") || strings.Contains(out, "note") {
		t.Errorf("-quiet leaked non-regression rows:\n%s", out)
	}
	if !strings.Contains(out, "REGRESSION timely.rtt_s p99") {
		t.Errorf("-quiet dropped the regression row:\n%s", out)
	}
}
