package stability

import (
	"errors"
	"math"
	"math/cmplx"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"ecndelay/internal/fluid"
	"ecndelay/internal/ode"
)

func TestSolveComplexKnown(t *testing.T) {
	// [1 2; 3 4] x = [5; 11] → x = [1; 2].
	m := []complex128{1, 2, 3, 4}
	b := []complex128{5, 11}
	if err := solveComplex(2, m, b, 0); err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(b[0]-1) > 1e-12 || cmplx.Abs(b[1]-2) > 1e-12 {
		t.Errorf("x = %v, want [1 2]", b)
	}
}

func TestSolveComplexImaginary(t *testing.T) {
	// (jI) x = b → x = -j b.
	m := []complex128{1i, 0, 0, 1i}
	b := []complex128{2, 3i}
	if err := solveComplex(2, m, b, 0); err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(b[0]-(-2i)) > 1e-12 || cmplx.Abs(b[1]-3) > 1e-12 {
		t.Errorf("x = %v, want [-2i 3]", b)
	}
}

func TestSolveComplexNeedsPivot(t *testing.T) {
	// Zero in the (0,0) position requires a row swap.
	m := []complex128{0, 1, 1, 0}
	b := []complex128{7, 9}
	if err := solveComplex(2, m, b, 0); err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(b[0]-9) > 1e-12 || cmplx.Abs(b[1]-7) > 1e-12 {
		t.Errorf("x = %v, want [9 7]", b)
	}
}

func TestSolveComplexSingular(t *testing.T) {
	m := []complex128{1, 2, 2, 4}
	b := []complex128{1, 2}
	if err := solveComplex(2, m, b, 0); err == nil {
		t.Error("expected singular-matrix error")
	}
}

func TestSolveComplexBadShape(t *testing.T) {
	if err := solveComplex(2, make([]complex128, 3), make([]complex128, 2), 0); err == nil {
		t.Error("expected shape error")
	}
}

// Property: solving a random well-conditioned system then multiplying back
// reproduces the right-hand side.
func TestPropertySolveComplexResidual(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		m := make([]complex128, n*n)
		for i := range m {
			m[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		for i := 0; i < n; i++ { // diagonal dominance for conditioning
			m[i*n+i] += complex(float64(3*n), 0)
		}
		b := make([]complex128, n)
		for i := range b {
			b[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		mCopy := append([]complex128(nil), m...)
		bCopy := append([]complex128(nil), b...)
		if err := solveComplex(n, m, b, 0); err != nil {
			return false
		}
		for r := 0; r < n; r++ {
			var sum complex128
			for c := 0; c < n; c++ {
				sum += mCopy[r*n+c] * b[c]
			}
			if cmplx.Abs(sum-bCopy[r]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// toyLoop is the analytically tractable loop dR/dt = -k·q(t-τ) - d·R with
// dq/dt = N·R, whose open-loop transfer function is
// L(s) = N·k·e^{-sτ} / (s(s+d)).
type toyLoop struct {
	k, d, tau float64
	n         int
}

func (l toyLoop) StateDim() int     { return 1 }
func (l toyLoop) Delays() []float64 { return []float64{l.tau} }
func (l toyLoop) RateIndex() int    { return 0 }
func (l toyLoop) FlowCount() int    { return l.n }
func (l toyLoop) Equilibrium() ([]float64, float64, error) {
	return []float64{0}, 0, nil
}
func (l toyLoop) Derivs(z []float64, zd [][]float64, qd []float64, dzdt []float64) {
	dzdt[0] = -l.k*qd[0] - l.d*z[0]
}

func (l toyLoop) analytic(omega float64) complex128 {
	s := complex(0, omega)
	return complex(float64(l.n)*l.k, 0) * cmplx.Exp(-s*complex(l.tau, 0)) /
		(s * (s + complex(l.d, 0)))
}

func TestLoopGainMatchesAnalytic(t *testing.T) {
	l := toyLoop{k: 100, d: 20, tau: 0.01, n: 3}
	j, err := linearise(l)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []float64{1, 5, 17, 100, 1000} {
		got, err := j.loopGain(w)
		if err != nil {
			t.Fatal(err)
		}
		want := l.analytic(w)
		if cmplx.Abs(got-want)/cmplx.Abs(want) > 1e-5 {
			t.Errorf("ω=%v: L=%v, analytic %v", w, got, want)
		}
	}
}

func TestPhaseMarginMatchesAnalytic(t *testing.T) {
	l := toyLoop{k: 100, d: 20, tau: 0.005, n: 1}
	res, err := PhaseMargin(l)
	if err != nil {
		t.Fatal(err)
	}
	// Analytic crossover: |L| = k/(ω√(ω²+d²)) = 1.
	wc := res.CrossoverRadPerSec
	if math.Abs(l.k/(wc*math.Hypot(wc, l.d))-1) > 1e-3 {
		t.Errorf("crossover %v does not satisfy |L|=1", wc)
	}
	// Analytic phase: -90° - atan(ω/d) - ωτ.
	want := 180 + (-90 - math.Atan2(wc, l.d)*180/math.Pi - wc*l.tau*180/math.Pi)
	if math.Abs(res.PhaseMarginDeg-want) > 0.5 {
		t.Errorf("PM = %v, analytic %v", res.PhaseMarginDeg, want)
	}
}

// The verdict must agree with direct integration of the same DDE: positive
// margin ⇒ perturbations decay; negative margin ⇒ they grow.
func TestPhaseMarginAgreesWithSimulation(t *testing.T) {
	simulateGrowth := func(l toyLoop) float64 {
		// State: [R, q]; dR/dt = -k q(t-τ) - dR; dq/dt = N R.
		sys := ode.DelayFunc{N: 2, F: func(tt float64, y []float64, past ode.History, dydt []float64) {
			dydt[0] = -l.k*past.Value(tt-l.tau, 1) - l.d*y[0]
			dydt[1] = float64(l.n) * y[0]
		}}
		s := &ode.Solver{Sys: sys, H: 1e-4, MaxDelay: l.tau, Y0: []float64{0, 1}}
		early, lateMax := 0.0, 0.0
		s.Integrate(0, 20, func(tt float64, y []float64) {
			a := math.Abs(y[1])
			if tt < 2 && a > early {
				early = a
			}
			if tt > 18 && a > lateMax {
				lateMax = a
			}
		})
		return lateMax / early
	}
	for _, c := range []struct {
		l    toyLoop
		want bool
	}{
		{toyLoop{k: 100, d: 20, tau: 0.001, n: 1}, true},
		{toyLoop{k: 100, d: 20, tau: 0.5, n: 1}, false},
		{toyLoop{k: 400, d: 40, tau: 0.01, n: 2}, true},
		{toyLoop{k: 4000, d: 10, tau: 0.05, n: 4}, false},
	} {
		res, err := PhaseMargin(c.l)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stable != c.want {
			t.Errorf("%+v: analysis says stable=%v want %v (PM=%v)", c.l, res.Stable, c.want, res.PhaseMarginDeg)
		}
		growth := simulateGrowth(c.l)
		if c.want && growth > 0.5 {
			t.Errorf("%+v: predicted stable but simulation grows (growth=%v)", c.l, growth)
		}
		if !c.want && growth < 2 {
			t.Errorf("%+v: predicted unstable but simulation decays (growth=%v)", c.l, growth)
		}
	}
}

// A loop whose gain stays below 1 over the whole sweep never crosses: it
// is unconditionally stable, with an infinite margin and no crossover.
func TestPhaseMarginGainBelowOne(t *testing.T) {
	res, err := PhaseMargin(toyLoop{k: 1e-3, d: 20, tau: 0.01, n: 1})
	if want := (Result{PhaseMarginDeg: math.Inf(1), Stable: true}); err != nil || res != want {
		t.Errorf("PhaseMargin = %+v, %v; want %+v", res, err, want)
	}
}

// A loop whose gain stays at or above 1 up to 1e9 rad/s (here 100 there)
// is an error quoting |L(ω_lo)| to the last digit as cmplx.Abs gives it,
// not the magnitude-sign estimate stage 1 reads.
func TestPhaseMarginGainNeverCrossesOne(t *testing.T) {
	_, err := PhaseMargin(toyLoop{k: 1e20, d: 20, tau: 0.01, n: 1})
	const want = "stability: loop gain 4.993761694389222e+18 at ω=1 never crosses 1 within sweep"
	if err == nil || err.Error() != want {
		t.Errorf("PhaseMargin error %v; want %q", err, want)
	}
}

type noDelayModel struct{ toyLoop }

func (noDelayModel) Delays() []float64 { return nil }

func TestNoDelaysRejected(t *testing.T) {
	if _, err := PhaseMargin(noDelayModel{}); err == nil {
		t.Error("expected error for model without delays")
	}
}

// delayed wraps a loop model with other lags.
type delayed struct {
	LoopModel
	delays []float64
}

func (l delayed) Delays() []float64 { return l.delays }

// A NaN lag makes every excess NaN, and each NaN brackets a crossing; an
// infinite lag reaches no finite time, and a negative one reads the
// future. linearise refuses all three and still takes a zero lag.
func TestBadDelaysRejected(t *testing.T) {
	base := bitsCells[8].loop(t) // DCQCN N=10, τ*=85 µs
	for _, d := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -85e-6} {
		res, err := PhaseMargin(delayed{base, []float64{d}})
		if err == nil || !strings.HasPrefix(err.Error(), "stability: delay 0 is ") {
			t.Errorf("delay %v: PhaseMargin = %+v, %v; want a stability: delay error", d, res, err)
		}
	}
	if _, err := PhaseMargin(delayed{base, []float64{0}}); err != nil {
		t.Errorf("delay 0: %v", err)
	}
}

// A NaN loop gain brackets a crossing at every grid step, and its phase
// there is NaN: an error, not an infinite margin.
func TestNaNPhaseIsAnError(t *testing.T) {
	res, err := PhaseMargin(nanRate{bitsCells[8].loop(t)})
	if err == nil || !strings.HasPrefix(err.Error(), "stability: phase at crossover ω=") {
		t.Errorf("PhaseMargin = %+v, %v; want a NaN-phase error", res, err)
	}
}

type badEquilibrium struct{ toyLoop }

func (badEquilibrium) Equilibrium() ([]float64, float64, error) {
	return nil, 0, errors.New("no equilibrium")
}

func TestEquilibriumErrorPropagates(t *testing.T) {
	if _, err := PhaseMargin(badEquilibrium{}); err == nil {
		t.Error("expected equilibrium error to propagate")
	}
}

// --- Figure 3(a): DCQCN non-monotonic stability in N ---

func dcqcnPM(t *testing.T, n int, tauStar float64, mutate func(*fluid.DCQCNLoop)) float64 {
	t.Helper()
	p := fluid.DefaultDCQCNParams(n)
	p.TauStar = tauStar
	loop, err := fluid.NewDCQCNLoop(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := PhaseMargin(loop)
	if err != nil {
		t.Fatal(err)
	}
	return res.PhaseMarginDeg
}

func TestDCQCNNonMonotonicPhaseMargin(t *testing.T) {
	// At τ* = 85 µs: stable for very few flows, unstable in the middle,
	// stable again for many flows — the paper's headline DCQCN finding.
	pm1 := dcqcnPM(t, 1, 85e-6, nil)
	pm8 := dcqcnPM(t, 8, 85e-6, nil)
	pm64 := dcqcnPM(t, 64, 85e-6, nil)
	if pm1 <= 0 {
		t.Errorf("PM(N=1, 85µs) = %v, want > 0", pm1)
	}
	if pm8 >= 0 {
		t.Errorf("PM(N=8, 85µs) = %v, want < 0 (the mid-N dip)", pm8)
	}
	if pm64 <= 0 || pm64 <= pm1 {
		t.Errorf("PM(N=64, 85µs) = %v, want > 0 and > PM(N=1)=%v", pm64, pm1)
	}
}

func TestDCQCNPhaseMarginDecreasesWithDelay(t *testing.T) {
	for _, n := range []int{2, 10, 64} {
		prev := math.Inf(1)
		for _, d := range []float64{1e-6, 25e-6, 50e-6, 85e-6, 100e-6} {
			pm := dcqcnPM(t, n, d, nil)
			if pm >= prev {
				t.Errorf("N=%d: PM(%vs) = %v not below PM at smaller delay %v", n, d, pm, prev)
			}
			prev = pm
		}
	}
}

func TestDCQCNLowDelayAlwaysStable(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 10, 16, 32, 64} {
		if pm := dcqcnPM(t, n, 4e-6, nil); pm <= 0 {
			t.Errorf("PM(N=%d, 4µs) = %v, want stable", n, pm)
		}
	}
}

// Figure 3(b): reducing R_AI rescues the unstable mid-N region.
func TestDCQCNSmallerRAIRaisesMargin(t *testing.T) {
	p := fluid.DefaultDCQCNParams(10)
	p.TauStar = 85e-6
	loopDefault, err := fluid.NewDCQCNLoop(p)
	if err != nil {
		t.Fatal(err)
	}
	resDefault, err := PhaseMargin(loopDefault)
	if err != nil {
		t.Fatal(err)
	}
	p.RAI = 5e6 / 8 / 1000 // 5 Mb/s
	loopSmall, err := fluid.NewDCQCNLoop(p)
	if err != nil {
		t.Fatal(err)
	}
	resSmall, err := PhaseMargin(loopSmall)
	if err != nil {
		t.Fatal(err)
	}
	if resDefault.Stable {
		t.Errorf("default R_AI at N=10/85µs: PM=%v, expected unstable", resDefault.PhaseMarginDeg)
	}
	if !resSmall.Stable {
		t.Errorf("small R_AI: PM=%v, expected stable", resSmall.PhaseMarginDeg)
	}
	if resSmall.PhaseMarginDeg <= resDefault.PhaseMarginDeg {
		t.Errorf("small R_AI margin %v not above default %v", resSmall.PhaseMarginDeg, resDefault.PhaseMarginDeg)
	}
}

// Figure 3(c): enlarging K_max (gentler marking slope) raises the margin.
func TestDCQCNLargerKmaxRaisesMargin(t *testing.T) {
	margin := func(kmax float64) float64 {
		p := fluid.DefaultDCQCNParams(10)
		p.TauStar = 85e-6
		p.Kmax = kmax
		loop, err := fluid.NewDCQCNLoop(p)
		if err != nil {
			t.Fatal(err)
		}
		res, err := PhaseMargin(loop)
		if err != nil {
			t.Fatal(err)
		}
		return res.PhaseMarginDeg
	}
	pm200 := margin(200)
	pm1600 := margin(1600)
	if pm200 >= 0 {
		t.Errorf("Kmax=200: PM=%v, expected unstable", pm200)
	}
	if pm1600 <= 0 {
		t.Errorf("Kmax=1600: PM=%v, expected stable", pm1600)
	}
}

// --- Figure 11: patched TIMELY loses stability at large N ---

func TestPatchedTimelyPhaseMarginCollapse(t *testing.T) {
	margin := func(n int) float64 {
		cfg := fluid.DefaultPatchedTimelyConfig(n)
		loop, err := fluid.NewPatchedTimelyLoop(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := PhaseMargin(loop)
		if err != nil {
			t.Fatal(err)
		}
		return res.PhaseMarginDeg
	}
	pm10 := margin(10)
	pm40 := margin(40)
	pm64 := margin(64)
	if pm10 <= 0 {
		t.Errorf("PM(N=10) = %v, want stable", pm10)
	}
	if pm40 >= pm10 {
		t.Errorf("PM(N=40) = %v not below PM(N=10) = %v", pm40, pm10)
	}
	if pm64 >= 0 {
		t.Errorf("PM(N=64) = %v, want unstable at large N", pm64)
	}
	// Past the collapse the margin keeps falling.
	if pm64 >= pm40 {
		t.Errorf("PM(N=64) = %v not below PM(N=40) = %v", pm64, pm40)
	}
}

// The patched loop refuses configurations whose fixed point leaves the
// gradient band (the linearisation would be invalid).
func TestPatchedTimelyLoopBandCheck(t *testing.T) {
	cfg := fluid.DefaultPatchedTimelyConfig(1000) // q* far above C·T_high
	if _, err := fluid.NewPatchedTimelyLoop(cfg); err == nil {
		t.Error("expected band-violation error for N=1000")
	}
}

// The Fig. 3 (3-state, one delay) and Fig. 11 (2-state, two delays) loops
// at N = 10, τ* = 85 µs.
func benchLoops(tb testing.TB) (dcqcn, patched LoopModel) {
	p := fluid.DefaultDCQCNParams(10)
	p.TauStar = 85e-6
	d, err := fluid.NewDCQCNLoop(p)
	if err != nil {
		tb.Fatal(err)
	}
	pt, err := fluid.NewPatchedTimelyLoop(fluid.DefaultPatchedTimelyConfig(10))
	if err != nil {
		tb.Fatal(err)
	}
	return d, pt
}

func benchmarkPhaseMargin(b *testing.B, loop LoopModel) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := PhaseMargin(loop); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPhaseMarginDCQCN(b *testing.B) {
	loop, _ := benchLoops(b)
	benchmarkPhaseMargin(b, loop)
}

func BenchmarkPhaseMarginPatchedTimely(b *testing.B) {
	_, loop := benchLoops(b)
	benchmarkPhaseMargin(b, loop)
}

// Sweep workers call PhaseMargin concurrently, on shared models too; each
// call owns its scratch, so every call returns the serial result.
func TestPhaseMarginConcurrentCalls(t *testing.T) {
	dcqcn, patched := benchLoops(t)
	for _, loop := range []LoopModel{dcqcn, patched} {
		want, err := PhaseMargin(loop)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if got, err := PhaseMargin(loop); err != nil || got != want {
					t.Errorf("concurrent PhaseMargin = %+v, %v; want %+v", got, err, want)
				}
			}()
		}
		wg.Wait()
	}
}

// PhaseMargin evaluates the loop gain thousands of times per call, so one
// evaluation, full or magnitude-only, must reuse the linearisation's
// scratch and allocate nothing; so must the bound that skips the quiet
// end of stage 1, and an anchor with its reach (at ω_lo, where it reaches
// hundreds of points).
func TestLoopGainAllocFree(t *testing.T) {
	dcqcn, patched := benchLoops(t)
	for name, loop := range map[string]LoopModel{"dcqcn": dcqcn, "patched": patched} {
		j, err := linearise(loop)
		if err != nil {
			t.Fatal(err)
		}
		v, next := make([]float64, j.n), make([]float64, j.n)
		b := newResolvent(j, make([]float64, anchorReal), make([]complex128, anchorComplex))
		anchorReach := func(float64) error {
			x, err := j.excess(sweepOmegas[0])
			if !b.anchors(0, x) || b.reach(0, points-1, 1) < weakReach {
				t.Fatalf("%s: no anchor reach at ω_lo", name)
			}
			return err
		}
		for path, eval := range map[string]func(float64) error{
			"loopGain":    func(w float64) error { _, err := j.loopGain(w); return err },
			"excess":      func(w float64) error { _, err := j.excess(w); return err },
			"quietOmega":  func(float64) error { j.quietOmega(v, next); return nil },
			"anchorReach": anchorReach,
		} {
			w := 1000.0
			allocs := testing.AllocsPerRun(100, func() {
				if err := eval(w); err != nil {
					t.Fatal(err)
				}
				w *= 1.01
			})
			if allocs != 0 {
				t.Errorf("%s: %s allocates %v times per call, want 0", name, path, allocs)
			}
		}
	}
}

// §5.2 made quantitative: moving the marking point from egress to ingress
// adds the queueing delay q*/C to the marking feedback path and costs
// phase margin at every operating point.
func TestIngressMarkingCostsMargin(t *testing.T) {
	for _, n := range []int{2, 4, 10} {
		p := fluid.DefaultDCQCNParams(n)
		p.C = 10e9 / 8 / 1000 // 10 Gb/s: queueing delay dominates
		eg, err := fluid.NewDCQCNLoop(p)
		if err != nil {
			t.Fatal(err)
		}
		egPM, err := PhaseMargin(eg)
		if err != nil {
			t.Fatal(err)
		}
		in, err := fluid.NewDCQCNIngressLoop(p)
		if err != nil {
			t.Fatal(err)
		}
		inPM, err := PhaseMargin(in)
		if err != nil {
			t.Fatal(err)
		}
		if inPM.PhaseMarginDeg >= egPM.PhaseMarginDeg-2 {
			t.Errorf("N=%d: ingress PM %v not clearly below egress PM %v",
				n, inPM.PhaseMarginDeg, egPM.PhaseMarginDeg)
		}
	}
}
