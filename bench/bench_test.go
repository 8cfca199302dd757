package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"ecndelay/internal/des"
)

const specFile = "../BENCHMARK.json"

// runBench runs n iterations of w at seed 1, traced or not, and returns the
// result as it is printed: marshalled to JSON and read back.
func runBench(t *testing.T, sp *spec, w workloadDef, n int, traced bool) result {
	t.Helper()
	var log bytes.Buffer
	b, err := newBench(w, 1, t.TempDir(), &log)
	if err != nil {
		t.Fatal(err)
	}
	measure := b.untraced
	if traced {
		measure = b.traced
	}
	res, err := measure(sp, n)
	if err != nil {
		t.Fatalf("%s: %v\n%s", w.name, err, log.String())
	}
	line, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var out result
	if err := json.Unmarshal(line, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Correct {
		t.Logf("%s", log.String())
	}
	return out
}

func loadSpec(t *testing.T) *spec {
	t.Helper()
	sp, err := readSpec(specFile)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// TestSpecNamesTheWorkloads keeps BENCHMARK.json and the code in step.
func TestSpecNamesTheWorkloads(t *testing.T) {
	sp := loadSpec(t)
	var golden map[string][]string
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("spec has %d workloads, code %d", len(sp.Workloads), len(workloads))
	}
	for _, w := range workloads {
		if !sp.hasWorkload(w.name) {
			t.Errorf("workload %s missing from the spec", w.name)
		}
		if len(golden[w.name]) == 0 {
			t.Errorf("workload %s has no golden digests", w.name)
		}
	}
}

// TestOneIterationPerWorkload runs iteration 0 at seed 1, which the run
// checks against the golden digests, and checks that the result line has
// every end-to-end metric with its unit.
func TestOneIterationPerWorkload(t *testing.T) {
	sp := loadSpec(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res := runBench(t, sp, w, 1, false)
			if !res.Correct || res.Attempted != 1 || res.Failed != 0 {
				t.Fatalf("result %+v", res)
			}
			if len(res.Metrics) != len(sp.EndToEnd) {
				t.Errorf("%d metrics, spec lists %d", len(res.Metrics), len(sp.EndToEnd))
			}
			for _, m := range sp.EndToEnd {
				v, ok := res.Metrics[m.Name]
				if !ok || v.Unit != m.Unit || !(v.Value > 0) {
					t.Errorf("metric %s = %+v, want a positive value in %s", m.Name, v, m.Unit)
				}
			}
		})
	}
}

// TestTracedRun checks that a traced run reports every per-layer metric,
// that its CPU shares sum to one, and that it keeps the untraced digests
// (a mismatch would make the result incorrect).
func TestTracedRun(t *testing.T) {
	sp := loadSpec(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res := runBench(t, sp, w, 4, true)
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("result %+v", res)
			}
			shares := 0.0
			for _, m := range sp.PerLayer {
				v, ok := res.Metrics[m.Name]
				if !ok || v.Unit != m.Unit {
					t.Errorf("metric %s = %+v, want unit %s", m.Name, v, m.Unit)
				}
				if strings.HasSuffix(m.Name, ".cpu_share") {
					shares += v.Value
				}
			}
			if math.Abs(shares-1) > 0.01 {
				t.Errorf("cpu shares sum to %v", shares)
			}
			if v := res.Metrics["obs.violations"].Value; v != 0 {
				t.Errorf("obs.violations = %v", v)
			}
		})
	}
}

// spin keeps the benchmark's own code busy for d without calling into the
// repository.
func spin(d time.Duration) float64 {
	x := 1.0
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = math.Sqrt(x + float64(i))
		}
	}
	return x
}

// tick reschedules itself every simulated nanosecond, keeping des busy.
type tick struct{ sim *des.Simulator }

func (h *tick) OnEvent(any) { h.sim.ScheduleHandler(des.Nanosecond, h, nil) }

func TestProfileAttribution(t *testing.T) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	sim := des.New()
	sim.ScheduleHandler(0, &tick{sim}, nil)
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		sim.RunUntil(sim.Now().Add(10 * des.Microsecond))
	}
	sink := spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	if sink == 0 {
		t.Fatal("unreachable")
	}

	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for mod, s := range shares {
		total += s
		known := false
		for _, m := range modules {
			known = known || m == mod
		}
		if !known {
			t.Errorf("share attributed to unlisted module %q", mod)
		}
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("shares sum to %v", total)
	}
	// Each half of the profile should show up under its own module. The
	// floor is low because under -race many samples land in the race
	// runtime, whose stacks carry no Go frames.
	if shares["des"] < 0.05 || shares["bench"] < 0.05 {
		t.Errorf("des %.2f, bench %.2f; want both present (all shares %v)", shares["des"], shares["bench"], shares)
	}
}

func TestProfileRejectsGarbage(t *testing.T) {
	if _, err := cpuShares([]byte("not a profile")); err == nil {
		t.Error("no error for a non-gzip profile")
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	tr := newTracer()
	tr.spans = []spanRec{
		{Name: "parent", ID: 0, Parent: -1, Start: 0, End: 100},
		{Name: "a", ID: 1, Parent: 0, Start: 10, End: 30},
		{Name: "b", ID: 2, Parent: 0, Start: 20, End: 50}, // overlaps a
		{Name: "c", ID: 3, Parent: 0, Start: 60, End: 70},
		{Name: "d", ID: 4, Parent: 3, Start: 65, End: 66},
	}
	spans := tr.finish()
	for id, want := range map[int]int64{0: 50, 1: 20, 2: 30, 3: 9, 4: 1} {
		if got := spans[id].Self; got != want {
			t.Errorf("span %s self %d, want %d", spans[id].Name, got, want)
		}
	}
	if agg := aggregate(spans); agg["parent"].Total != 100 || agg["parent"].Self != 50 {
		t.Errorf("aggregate %+v", agg["parent"])
	}
}

// TestReferenceAllocatesNothing: the reference kernel must not depend on
// the collector, whose work grows with the workloads' heaps.
func TestReferenceAllocatesNothing(t *testing.T) {
	if a := testing.AllocsPerRun(3, func() { reference() }); a != 0 {
		t.Errorf("reference allocates %v times per run", a)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles %v %v, want 2.75 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles %v %v, want 0.75 2.25", q1, q3)
	}
}

func TestJudgeVerdicts(t *testing.T) {
	lower := specMetric{Name: "iter_s_p50", Better: "lower", Bound: 0.10}
	higher := specMetric{Name: "iters_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{0.7, 1.3, 0.8, 1.2, 1.0, 0.75, 1.25, 0.9, 1.1, 1.0}
	for _, tc := range []struct {
		name          string
		m             specMetric
		before, after []float64
		want          verdict
	}{
		{"unchanged", lower, steady, scale(steady, 1.01), same},
		{"small gain inside the spread", lower, steady, scale(steady, 0.995), same},
		{"slower past the bound", lower, steady, scale(steady, 1.2), worse},
		{"slower within the bound", lower, steady, scale(steady, 1.05), same},
		{"faster", lower, steady, scale(steady, 0.9), better},
		{"throughput down past the bound", higher, steady, scale(steady, 0.8), worse},
		{"throughput up", higher, steady, scale(steady, 1.1), better},
		{"spread wider than the bound", lower, noisy, scale(noisy, 1.3), unresolved},
		{"noisy but every run faster", lower, noisy, scale(steady, 0.5), better},
	} {
		if got := judge(tc.m, tc.before, tc.after); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	sp := loadSpec(t)
	dir := t.TempDir()
	write := func(name string, p50 float64, attempted int) string {
		path := filepath.Join(dir, name)
		for i := 0; i < 5; i++ {
			m := map[string]metric{"iter_s_p50": {p50 * (1 + 0.001*float64(i)), "s"}}
			if err := appendRecord(path, record{Workload: "fluid_dde", Seed: int64(i), Result: result{Correct: true, Attempted: attempted, Metrics: m}}); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	var out bytes.Buffer
	if err := compareFiles(sp, write("a.jsonl", 1, 140), write("b.jsonl", 1.5, 140), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "fluid_dde") || !strings.Contains(out.String(), string(worse)) {
		t.Errorf("compare output:\n%s", out.String())
	}
	// Runs of other lengths covered other seeds.
	if err := compareFiles(sp, filepath.Join(dir, "a.jsonl"), write("c.jsonl", 1, 122), &out); err == nil {
		t.Error("no error for runs with different attempted counts")
	}
	if err := os.WriteFile(filepath.Join(dir, "bad.jsonl"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := compareFiles(sp, filepath.Join(dir, "bad.jsonl"), filepath.Join(dir, "a.jsonl"), &out); err == nil {
		t.Error("no error for a malformed record file")
	}
}

func TestUnknownWorkloadIsRefused(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-spec", specFile, "-workload", "nope"}, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
		t.Errorf("exit %d, stdout %q", code, stdout.String())
	}
}
