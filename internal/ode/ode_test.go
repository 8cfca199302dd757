package ode

import (
	"math"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

// dy/dt = -y, y(0)=1 → y(t) = e^{-t}.
func TestExponentialDecay(t *testing.T) {
	s := &Solver{
		Sys: Func{N: 1, F: func(_ float64, y, d []float64) { d[0] = -y[0] }},
		H:   1e-3, Y0: []float64{1},
	}
	y := s.Integrate(0, 2, nil)
	want := math.Exp(-2)
	if math.Abs(y[0]-want) > 1e-9 {
		t.Errorf("y(2) = %v, want %v", y[0], want)
	}
}

// Harmonic oscillator preserves energy to O(h^4) per step.
func TestHarmonicOscillator(t *testing.T) {
	s := &Solver{
		Sys: Func{N: 2, F: func(_ float64, y, d []float64) {
			d[0] = y[1]
			d[1] = -y[0]
		}},
		H: 1e-3, Y0: []float64{1, 0},
	}
	y := s.Integrate(0, 2*math.Pi, nil)
	// The horizon is rounded to a whole number of steps, so compare against
	// the exact solution at the realised end time and check that energy is
	// conserved to RK4 accuracy.
	steps := math.Round(2 * math.Pi / s.H)
	tEnd := steps * s.H
	if math.Abs(y[0]-math.Cos(tEnd)) > 1e-8 || math.Abs(y[1]-(-math.Sin(tEnd))) > 1e-8 {
		t.Errorf("y(%v) = %v, want [%v %v]", tEnd, y, math.Cos(tEnd), -math.Sin(tEnd))
	}
	if e := y[0]*y[0] + y[1]*y[1]; math.Abs(e-1) > 1e-10 {
		t.Errorf("energy = %v, want 1", e)
	}
}

// RK4 global error should shrink ~16x when h halves (4th order).
func TestConvergenceOrder(t *testing.T) {
	errAt := func(h float64) float64 {
		s := &Solver{
			Sys: Func{N: 1, F: func(tt float64, y, d []float64) { d[0] = math.Cos(tt) * y[0] }},
			H:   h, Y0: []float64{1},
		}
		y := s.Integrate(0, 1, nil)
		return math.Abs(y[0] - math.Exp(math.Sin(1)))
	}
	e1 := errAt(1e-2)
	e2 := errAt(5e-3)
	ratio := e1 / e2
	if ratio < 12 || ratio > 20 {
		t.Errorf("error ratio %v for halved step, want ~16 (4th order)", ratio)
	}
}

// Linear DDE dy/dt = -y(t-τ) with constant initial history y=1.
// For τ < π/2 the solution decays; for τ > π/2 it oscillates with growing
// amplitude. This is the classic stability boundary the DCQCN/TIMELY
// analysis revolves around, so the solver must reproduce it.
func TestDDEStabilityBoundary(t *testing.T) {
	run := func(tau float64) float64 {
		sys := DelayFunc{N: 1, F: func(tt float64, y []float64, past History, d []float64) {
			d[0] = -past.Value(tt-tau, 0)
		}}
		s := &Solver{Sys: sys, H: 1e-3, MaxDelay: tau, Y0: []float64{1}}
		maxLate := 0.0
		s.Integrate(0, 40, func(tt float64, y []float64) {
			if tt > 30 {
				if a := math.Abs(y[0]); a > maxLate {
					maxLate = a
				}
			}
		})
		return maxLate
	}
	if amp := run(1.0); amp > 0.05 {
		t.Errorf("τ=1.0 (< π/2): late amplitude %v, want decay toward 0", amp)
	}
	if amp := run(2.0); amp < 10 {
		t.Errorf("τ=2.0 (> π/2): late amplitude %v, want growth", amp)
	}
}

// DDE with known exact solution: dy/dt = y(t-1) with y(t)=1 on [-1,0] gives
// y(t) = 1 + t on [0,1], then y(t) = 1 + t + (t-1)^2/2 on [1,2].
func TestDDEMethodOfSteps(t *testing.T) {
	sys := DelayFunc{N: 1, F: func(tt float64, y []float64, past History, d []float64) {
		d[0] = past.Value(tt-1, 0)
	}}
	s := &Solver{Sys: sys, H: 1e-4, MaxDelay: 1, Y0: []float64{1}}
	y := s.Integrate(0, 2, nil)
	want := 1.0 + 2.0 + 0.5 // 1 + t + (t-1)^2/2 at t=2
	if math.Abs(y[0]-want) > 1e-5 {
		t.Errorf("y(2) = %v, want %v", y[0], want)
	}
}

func TestInitialHistoryFunction(t *testing.T) {
	// dy/dt = y(t-1) with y(t) = t for t<=0 → on [0,1], dy/dt = t-1,
	// y(t) = y0 + t^2/2 - t with y(0)=0 → y(1) = -0.5.
	sys := DelayFunc{N: 1, F: func(tt float64, y []float64, past History, d []float64) {
		d[0] = past.Value(tt-1, 0)
	}}
	s := &Solver{
		Sys: sys, H: 1e-4, MaxDelay: 1, Y0: []float64{0},
		InitHistory: func(tt float64, out []float64) { out[0] = tt },
	}
	y := s.Integrate(0, 1, nil)
	if math.Abs(y[0]-(-0.5)) > 1e-6 {
		t.Errorf("y(1) = %v, want -0.5", y[0])
	}
}

func TestObserverSeesEveryStep(t *testing.T) {
	s := &Solver{
		Sys: Func{N: 1, F: func(_ float64, y, d []float64) { d[0] = 1 }},
		H:   0.1, Y0: []float64{0},
	}
	var times []float64
	s.Integrate(0, 1, func(tt float64, y []float64) { times = append(times, tt) })
	if len(times) != 11 {
		t.Fatalf("observer called %d times, want 11", len(times))
	}
	if times[0] != 0 || math.Abs(times[10]-1) > 1e-12 {
		t.Errorf("observer times = [%v ... %v], want [0 ... 1]", times[0], times[10])
	}
}

type clampedSys struct{}

func (clampedSys) Dim() int { return 1 }
func (clampedSys) Derivs(_ float64, y []float64, _ History, d []float64) {
	d[0] = -10 // drive hard negative
}
func (clampedSys) PostStep(_ float64, y []float64) {
	if y[0] < 0 {
		y[0] = 0
	}
}

func TestPostStepClamping(t *testing.T) {
	s := &Solver{Sys: clampedSys{}, H: 0.01, Y0: []float64{0.05}}
	y := s.Integrate(0, 1, func(_ float64, yy []float64) {
		if yy[0] < 0 {
			t.Fatalf("observed negative state %v despite PostStep clamp", yy[0])
		}
	})
	if y[0] != 0 {
		t.Errorf("final state %v, want 0", y[0])
	}
}

func TestHistoryTooSmallPanics(t *testing.T) {
	sys := DelayFunc{N: 1, F: func(tt float64, y []float64, past History, d []float64) {
		d[0] = -past.Value(tt-1.0, 0) // lag 1.0 but MaxDelay says 0.1
	}}
	s := &Solver{Sys: sys, H: 1e-3, MaxDelay: 0.1, Y0: []float64{1}}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for lookup beyond MaxDelay")
		}
	}()
	s.Integrate(0, 2, nil)
}

func TestBadConfigPanics(t *testing.T) {
	decay := Func{N: 1, F: func(_ float64, y, d []float64) { d[0] = -y[0] }}
	cases := []struct {
		name string
		s    *Solver
		t1   float64
		want string // in the panic message
	}{
		{"zero step", &Solver{Sys: Func{N: 1, F: func(_ float64, y, d []float64) {}}, H: 0, Y0: []float64{1}}, 1, "step H"},
		{"nil system", &Solver{H: 1, Y0: []float64{1}}, 1, "nil system"},
		{"dim mismatch", &Solver{Sys: Func{N: 2, F: func(_ float64, y, d []float64) {}}, H: 1, Y0: []float64{1}}, 1, "len(Y0)"},
		// Counts past the int range would wrap into a slice length.
		{"steps past int", &Solver{Sys: decay, H: 1e-300, Y0: []float64{1}}, 1, "steps does not fit in an int"},
		{"ring past int", &Solver{Sys: decay, H: 1, MaxDelay: 1 << 62, Y0: []float64{1}}, 1 << 62, "history ring"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, "ode: ") || !strings.Contains(msg, c.want) {
					t.Errorf("panic %q, want an ode: message containing %q", msg, c.want)
				}
			}()
			c.s.Integrate(0, c.t1, nil)
		})
	}
}

// A run never stores more than steps+1 points, so the ring holds no more:
// a 20-step run with MaxDelay = 10⁴·H allocates a 21-point ring, not the
// ceil(MaxDelay/H)+4 = 10,004 points (640 KB for both rings at dim 4) the
// lag alone asks for. A lag whose point count passes the int range is
// fine on a short run, and a run that takes no step keeps one point.
func TestRingSizedByRun(t *testing.T) {
	const dim, steps, h = 4, 20, 1e-3
	s := &Solver{Sys: Func{N: dim, F: func(_ float64, y, d []float64) { copy(d, y) }},
		H: h, MaxDelay: 1e4 * h, Y0: make([]float64, dim)}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s.Integrate(0, steps*h, nil)
	runtime.ReadMemStats(&after)
	// The value and slope rings of 21 points, plus 1 KB for the state,
	// the four stages and the history's own copies.
	limit := uint64(2*(steps+1)*dim*8 + 1024)
	if got := after.TotalAlloc - before.TotalAlloc; got > limit {
		t.Errorf("20-step run allocated %d bytes, want at most %d (a 21-point ring)", got, limit)
	}
	s.MaxDelay = 1e300
	s.Integrate(0, steps*h, nil)
	if y := s.Integrate(1, 0, nil); len(y) != dim {
		t.Errorf("t1 < t0 returned %v, want the %d-component initial state", y, dim)
	}
}

// Property: for the linear system dy/dt = -k y the numeric solution is
// always positive, decreasing, and bounded by the initial value.
func TestPropertyLinearDecayInvariants(t *testing.T) {
	f := func(k8 uint8, y8 uint8) bool {
		k := 0.1 + float64(k8)/64.0
		y0 := 0.1 + float64(y8)/16.0
		s := &Solver{
			Sys: Func{N: 1, F: func(_ float64, y, d []float64) { d[0] = -k * y[0] }},
			H:   1e-3, Y0: []float64{y0},
		}
		prev := math.Inf(1)
		ok := true
		s.Integrate(0, 1, func(_ float64, y []float64) {
			if y[0] <= 0 || y[0] > y0*(1+1e-12) || y[0] >= prev+1e-15 {
				ok = false
			}
			prev = y[0]
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: history interpolation is exact for linear trajectories.
func TestPropertyHistoryLinearExact(t *testing.T) {
	f := func(slope8 int8) bool {
		slope := float64(slope8) / 16.0
		hist := newHistory(1, 100, 0.1, 0, []float64{0}, nil, false)
		for i := 1; i <= 50; i++ {
			tt := float64(i) * 0.1
			hist.push(tt, []float64{slope * tt}, nil, nil)
		}
		for _, tq := range []float64{0.05, 0.333, 1.77, 4.99, 5.0} {
			want := slope * tq
			if math.Abs(hist.Value(tq, 0)-want) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestHistoryRingWraparound(t *testing.T) {
	hist := newHistory(1, 10, 1.0, 0, []float64{0}, nil, false)
	for i := 1; i <= 100; i++ {
		hist.push(float64(i), []float64{float64(i) * 2}, nil, nil)
	}
	// Only the last 10 points are retained: t in [91, 100].
	if got := hist.Value(95.5, 0); math.Abs(got-191) > 1e-12 {
		t.Errorf("Value(95.5) = %v, want 191", got)
	}
	// Extrapolation just past the newest point.
	if got := hist.Value(100.4, 0); math.Abs(got-200.8) > 1e-12 {
		t.Errorf("Value(100.4) = %v, want 200.8 (extrapolated)", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for evicted history point")
		}
	}()
	hist.Value(50, 0)
}

func BenchmarkRK4DDE(b *testing.B) {
	sys := DelayFunc{N: 4, F: func(tt float64, y []float64, past History, d []float64) {
		for i := range d {
			d[i] = -past.Value(tt-0.01, i) * 0.5
		}
	}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := &Solver{Sys: sys, H: 1e-4, MaxDelay: 0.01, Y0: []float64{1, 2, 3, 4}}
		s.Integrate(0, 0.1, nil)
	}
}

// Hermite history interpolation must beat linear interpolation on a DDE
// whose history has curvature: the oscillatory dy/dt = -y(t-1), integrated
// with a coarse step and compared against a fine-step reference.
func TestHermiteBeatsLinearHistory(t *testing.T) {
	solve := func(h float64, linear bool) float64 {
		sys := DelayFunc{N: 1, F: func(tt float64, y []float64, past History, d []float64) {
			d[0] = -past.Value(tt-1, 0)
		}}
		s := &Solver{Sys: sys, H: h, MaxDelay: 1, Y0: []float64{1}, LinearHistory: linear}
		y := s.Integrate(0, 5, nil)
		return y[0]
	}
	ref := solve(1e-4, false)
	lin := math.Abs(solve(0.05, true) - ref)
	herm := math.Abs(solve(0.05, false) - ref)
	if herm >= lin/5 {
		t.Errorf("Hermite error %v not clearly better than linear %v", herm, lin)
	}
}

// Hermite interpolation is exact for cubics when the stored slopes are
// exact, and at least quadratic-exact through the solver pipeline.
func TestHermiteQuadraticExact(t *testing.T) {
	// dy/dt = 2t → y = t², slopes exact at step starts. A delayed lookup
	// of y(t-τ) must reproduce (t-τ)² essentially exactly.
	sys := DelayFunc{N: 2, F: func(tt float64, y []float64, past History, d []float64) {
		d[0] = 2 * tt
		d[1] = past.Value(tt-0.35, 0) // integrates y(t-0.35)
	}}
	s := &Solver{Sys: sys, H: 0.01, MaxDelay: 0.4, Y0: []float64{0, 0}}
	y := s.Integrate(0, 1, nil)
	// ∫₀¹ max(t-0.35,0)² dt with history y=0 before t=0.35... the delayed
	// argument (t-0.35)² applies for t ≥ 0.35; before that the initial
	// history (0) holds: integral = (1-0.35)³/3.
	want := math.Pow(0.65, 3) / 3
	if math.Abs(y[1]-want) > 1e-9 {
		t.Errorf("∫y(t-τ) = %v, want %v", y[1], want)
	}
}
