package hybrid

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"

	"ecndelay/internal/fixedpoint"
	"ecndelay/internal/fluid"
	"ecndelay/internal/obs"
	"ecndelay/internal/sweep"
)

var update = flag.Bool("update", false, "regenerate the golden crossval fixtures")

// goldenSeed pins the packet-sim seed the fixtures are rendered at.
const goldenSeed = 1

// TestCrossValOperatingPoints is the gate the crossval experiment wires
// into CI: every check at every canonical operating point must be inside
// its documented tolerance.
func TestCrossValOperatingPoints(t *testing.T) {
	if testing.Short() {
		t.Skip("crossval operating points take a few seconds")
	}
	for _, op := range CIOperatingPoints() {
		op := op
		t.Run(op.Proto+"_n"+itoa(op.N), func(t *testing.T) {
			res, err := RunOp(op, goldenSeed, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := res.Err(); err != nil {
				t.Error(err)
			}
			if len(res.Traj) == 0 {
				t.Error("crossval produced no shared trajectory")
			}
		})
	}
}

// TestCrossValMistunedFails is the negative control: a packet realisation
// whose RED Kmax is 4x what the analytic layer believes must land outside
// the queue tolerances — proving the gate actually fails on divergence
// rather than being vacuously wide.
func TestCrossValMistunedFails(t *testing.T) {
	if testing.Short() {
		t.Skip("mistuned crossval takes a few seconds")
	}
	const horizon = 0.1
	sc := NewDCQCNScenario(10, goldenSeed)
	fp, err := fixedpoint.SolveDCQCN(sc.Par)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := sc.Fluid(nil)
	if err != nil {
		t.Fatal(err)
	}
	sm := fluid.Run(sys, 1e-6, horizon, 1e-4)
	// The packet star alone marks with Kmax x4 (800 KB); the fluid run and
	// the oracle keep the scenario's 200 KB.
	mistuned := sc
	mistuned.Par.Kmax *= 4
	nw, star, senders, err := mistuned.Star(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := compare("dcqcn_n10_mistuned", sm, sys.QIndex(), 1, fp.Q, fp.RC*MTU, nw, star, senders, horizon)
	if res.Err() == nil {
		t.Fatalf("mistuned run (Kmax x4) passed every check: %+v", res.Checks)
	}
	// The mistuning must be caught by the packet-vs-oracle checks; the
	// fluid layer is untouched and must still match the fixed point.
	for _, c := range res.Checks {
		if c.Name == "fluid_q_vs_fixed_point" && !c.OK() {
			t.Errorf("mistuning the packet layer broke the fluid check: %+v", c)
		}
	}
}

// runGolden executes the four canonical operating points through the sweep
// engine at the given worker count and renders each result.
func runGolden(t *testing.T, workers int) map[string][]byte {
	t.Helper()
	ops := CIOperatingPoints()
	rendered := make([][]byte, len(ops))
	var mu sync.Mutex
	jobs := make([]sweep.Job, len(ops))
	for i, op := range ops {
		i, op := i, op
		jobs[i] = sweep.Job{
			ID: "crossval/" + op.Proto + "/n" + itoa(op.N),
			Run: func(int64) (map[string]float64, error) {
				// The fixture seed is pinned; the engine's derived
				// per-job seed is ignored on purpose.
				res, err := RunOp(op, goldenSeed, nil)
				if err != nil {
					return nil, err
				}
				var buf bytes.Buffer
				if err := res.Render(&buf); err != nil {
					return nil, err
				}
				mu.Lock()
				rendered[i] = buf.Bytes()
				mu.Unlock()
				return map[string]float64{"checks": float64(len(res.Checks))}, nil
			},
		}
	}
	sum, err := sweep.Run(sweep.Config{Workers: workers, BaseSeed: goldenSeed}, jobs, &sweep.MemorySink{})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Failed != 0 {
		t.Fatalf("%d golden jobs failed", sum.Failed)
	}
	out := make(map[string][]byte, len(ops))
	for i, op := range ops {
		out["crossval_"+op.Proto+"_n"+itoa(op.N)+".golden"] = rendered[i]
	}
	return out
}

// TestCrossValGolden pins the rendered fluid-vs-packet trajectory diffs as
// byte-identical fixtures: a rerun must reproduce them exactly, and a
// 4-worker sweep must produce the same bytes as the 1-worker sweep that
// wrote them. Regenerate with:
//
//	go test ./internal/hybrid -run TestCrossValGolden -update
func TestCrossValGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("golden crossval fixtures take several seconds")
	}
	serial := runGolden(t, 1)
	if *update {
		for name, data := range serial {
			if err := os.WriteFile(filepath.Join("testdata", name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	for name, data := range serial {
		want, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatalf("missing fixture %s (run with -update): %v", name, err)
		}
		if !bytes.Equal(data, want) {
			t.Errorf("%s: rendered fixture differs from testdata (rerun with -update if intended)\ngot:\n%s\nwant:\n%s",
				name, data, want)
		}
	}
	parallel := runGolden(t, 4)
	for name, data := range serial {
		if !bytes.Equal(data, parallel[name]) {
			t.Errorf("%s: 4-worker sweep rendered different bytes than 1-worker", name)
		}
	}
}

// An observed cross-validation renders the golden fixture's bytes and
// breaks no invariant, and the exported entry point renders them too: the
// observer only watches, and RunOp and the scenario's crossVal are one
// comparison.
func TestCrossValObservedMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("crossval operating points take a few seconds")
	}
	want, err := os.ReadFile(filepath.Join("testdata", "crossval_timely_n2.golden"))
	if err != nil {
		t.Fatal(err)
	}
	op := OpPoint{Proto: "timely", N: 2, Horizon: 0.25}
	ob := &obs.NetObserver{Metrics: obs.NewRegistry(), Check: obs.NewChecker()}
	observed, err := RunOp(op, goldenSeed, ob)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewTimelyScenario(op.N, goldenSeed).crossVal(op.Horizon, nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, res := range map[string]Result{"observed RunOp": observed, "unobserved crossVal": plain} {
		var buf bytes.Buffer
		if err := res.Render(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("%s rendered different bytes than the golden fixture", name)
		}
	}
	if err := ob.Check.Err(); err != nil {
		t.Error(err)
	}
	if len(ob.Metrics.Snapshot()) == 0 {
		t.Error("the observer registered no counter")
	}
}

// TestRunOpUnknownProto pins the error path.
func TestRunOpUnknownProto(t *testing.T) {
	if _, err := RunOp(OpPoint{Proto: "tcp", N: 2, Horizon: 0.01}, 1, nil); err == nil {
		t.Fatal("RunOp accepted an unknown protocol")
	}
}

// TestCheckArithmetic pins RelErr/OK/Failures/Err on hand-built checks.
func TestCheckArithmetic(t *testing.T) {
	ok := Check{Name: "a", Want: 100, Got: 104, Tol: 0.05}
	bad := Check{Name: "b", Want: 100, Got: 120, Tol: 0.05}
	if !ok.OK() || ok.RelErr() != 0.04 {
		t.Errorf("ok check: OK=%t rel=%v", ok.OK(), ok.RelErr())
	}
	if bad.OK() {
		t.Error("bad check passed")
	}
	r := Result{Name: "x", Checks: []Check{ok, bad}}
	if n := len(r.Failures()); n != 1 {
		t.Errorf("Failures() = %d, want 1", n)
	}
	if err := r.Err(); err == nil {
		t.Error("Err() = nil with a failing check")
	}
	if err := (Result{Name: "y", Checks: []Check{ok}}).Err(); err != nil {
		t.Errorf("Err() = %v with all checks passing", err)
	}
}

func itoa(n int) string { return strconv.Itoa(n) }
