// Package ode integrates systems of ordinary and delay differential
// equations (DDEs) with a fixed-step classical Runge-Kutta (RK4) scheme.
//
// The fluid models of DCQCN and TIMELY are DDEs: their right-hand sides
// reference state at earlier times (the feedback delay τ* in DCQCN, the
// state-dependent RTT τ' in TIMELY). Go has no numerical DDE ecosystem, so
// this package provides one from scratch: a dense, uniformly-spaced history
// ring buffer serves past-state lookups at arbitrary (possibly
// state-dependent) lags, interpolating linearly between stored points.
// Linear interpolation suits the fluid models, which clamp their state
// after every step (queues at zero, rates at line rate): it never
// overshoots the stored, clamped points into unphysical values.
package ode

import (
	"fmt"
	"math"
)

// System is a differential system dy/dt = f(t, y, history). Implementations
// must not retain y, dydt, or the History beyond the call.
type System interface {
	// Dim returns the number of state variables.
	Dim() int
	// Derivs evaluates the right-hand side at time t with state y, writing
	// the derivative into dydt. past provides access to the state at any
	// earlier time; pure ODEs simply ignore it.
	Derivs(t float64, y []float64, past History, dydt []float64)
}

// PostStepper is an optional extension of System: after each accepted step
// the solver calls PostStep, which may clamp or otherwise adjust the state
// in place (e.g. queue length >= 0, rates within [Rmin, C]).
type PostStepper interface {
	PostStep(t float64, y []float64)
}

// History provides interpolated access to past solution values.
type History interface {
	// Value returns component idx of the state at time tq. Times at or
	// before the start of integration are served by the initial history;
	// times slightly past the newest stored point (as happens for delayed
	// lookups inside a Runge-Kutta stage) are linearly extrapolated.
	Value(tq float64, idx int) float64
}

// Solver integrates a System with fixed step H from an initial state Y0.
type Solver struct {
	Sys System
	// H is the integration step in the system's time unit (seconds for the
	// fluid models). Must be > 0.
	H float64
	// MaxDelay bounds the largest lag the system will ever request. The
	// history buffer keeps min(ceil(MaxDelay/H)+4, steps+1) points, where
	// steps is the run's step count: a run never stores more than steps+1
	// points, so a longer ring would hold nothing more. Zero is valid for
	// pure ODEs.
	MaxDelay float64
	// Y0 is the initial state at t0; it is copied, not aliased. It is
	// also the history before t0.
	Y0 []float64
}

// Observer receives the solution after every accepted step (and once for the
// initial condition). The slice is reused; copy what you keep.
type Observer func(t float64, y []float64)

type history struct {
	t0    float64 // time of ring[head]
	h     float64
	n     int // points stored
	capac int
	dim   int
	buf   []float64 // capac*dim ring of states
	start int       // index of oldest point
	tcur  float64   // time of newest point
	y0    []float64
}

func newHistory(dim, capac int, h, t0 float64, y0 []float64) *history {
	hs := &history{h: h, capac: capac, dim: dim, t0: t0, tcur: t0}
	hs.buf = make([]float64, capac*dim)
	hs.y0 = append([]float64(nil), y0...)
	copy(hs.buf[:dim], y0)
	hs.n = 1
	return hs
}

// push appends the state at time t (must be tcur + h).
func (hs *history) push(t float64, y []float64) {
	var idx int
	if hs.n < hs.capac {
		idx = hs.index(hs.n)
		hs.n++
	} else {
		idx = hs.start
		hs.start = hs.index(1)
	}
	copy(hs.buf[idx*hs.dim:(idx+1)*hs.dim], y)
	hs.tcur = t
}

// index returns the ring slot of the i-th point after the oldest. Both
// start and i are below capac, so one subtraction wraps it.
func (hs *history) index(i int) int {
	idx := hs.start + i
	if idx >= hs.capac {
		idx -= hs.capac
	}
	return idx
}

// point returns the i-th stored point (0 = oldest).
func (hs *history) point(i int) []float64 {
	idx := hs.index(i)
	return hs.buf[idx*hs.dim : (idx+1)*hs.dim]
}

func (hs *history) oldestTime() float64 { return hs.tcur - float64(hs.n-1)*hs.h }

func (hs *history) Value(tq float64, idx int) float64 {
	if tq <= hs.t0 {
		return hs.y0[idx]
	}
	oldest := hs.oldestTime()
	if tq < oldest {
		panic(fmt.Sprintf("ode: history lookup at t=%g before oldest stored %g; increase Solver.MaxDelay", tq, oldest))
	}
	// Fractional index into the uniformly spaced ring.
	f := (tq - oldest) / hs.h
	i := int(f)
	if i >= hs.n-1 {
		// At or beyond the newest point: linear extrapolation from the
		// last two points (constant if only one exists). Runge-Kutta
		// stages evaluate at t+h/2 and t+h, so a lag smaller than the
		// step lands here; the overshoot is at most one step.
		last := hs.point(hs.n - 1)
		if hs.n == 1 {
			return last[idx]
		}
		prev := hs.point(hs.n - 2)
		a := (tq - hs.tcur) / hs.h
		return last[idx] + a*(last[idx]-prev[idx])
	}
	a := f - float64(i)
	p0 := hs.point(i)
	p1 := hs.point(i + 1)
	return p0[idx] + a*(p1[idx]-p0[idx])
}

// Integrate advances the system from t0 to t1, invoking obs (if non-nil)
// at t0 and after every step. It returns the final state; when t1 <= t0 it
// takes no step and returns Y0. It panics, like every bad configuration,
// when the step count or the history ring does not fit in an int.
func (s *Solver) Integrate(t0, t1 float64, obs Observer) []float64 {
	if s.H <= 0 {
		panic("ode: step H must be positive")
	}
	if s.Sys == nil {
		panic("ode: nil system")
	}
	dim := s.Sys.Dim()
	if len(s.Y0) != dim {
		panic(fmt.Sprintf("ode: len(Y0)=%d but system dimension is %d", len(s.Y0), dim))
	}
	if math.IsNaN(s.MaxDelay) || s.MaxDelay < 0 {
		panic("ode: invalid MaxDelay")
	}
	// Both counts are formed in float64 and checked before they become
	// ints: a tiny H or a huge MaxDelay gives counts past the int range.
	nsteps := math.Round((t1 - t0) / s.H)
	if math.IsNaN(nsteps) || nsteps >= math.MaxInt {
		panic(fmt.Sprintf("ode: (t1-t0)/H = %g steps does not fit in an int", nsteps))
	}
	nsteps = max(nsteps, 0)
	// The ring is sized by the run as well as by the lag: a run pushes
	// at most steps+1 points, so the shorter ring evicts none that the
	// ceil(MaxDelay/H)+4 ring would keep, and every lookup reads the same
	// points. One point is the least, for a run that takes no step.
	capac := min(math.Ceil(s.MaxDelay/s.H)+4, nsteps+1)
	if capac*float64(dim)*8 >= math.MaxInt {
		panic(fmt.Sprintf("ode: history ring of %g points of %d values: its size in bytes does not fit in an int", capac, dim))
	}
	hist := newHistory(dim, int(capac), s.H, t0, s.Y0)

	y := append([]float64(nil), s.Y0...)
	k1 := make([]float64, dim)
	k2 := make([]float64, dim)
	k3 := make([]float64, dim)
	k4 := make([]float64, dim)
	yt := make([]float64, dim)

	ps, hasPost := s.Sys.(PostStepper)

	if obs != nil {
		obs(t0, y)
	}
	h := s.H
	steps := int(nsteps)
	t := t0
	for step := 0; step < steps; step++ {
		s.Sys.Derivs(t, y, hist, k1)
		for i := 0; i < dim; i++ {
			yt[i] = y[i] + 0.5*h*k1[i]
		}
		s.Sys.Derivs(t+0.5*h, yt, hist, k2)
		for i := 0; i < dim; i++ {
			yt[i] = y[i] + 0.5*h*k2[i]
		}
		s.Sys.Derivs(t+0.5*h, yt, hist, k3)
		for i := 0; i < dim; i++ {
			yt[i] = y[i] + h*k3[i]
		}
		s.Sys.Derivs(t+h, yt, hist, k4)
		for i := 0; i < dim; i++ {
			y[i] += h / 6 * (k1[i] + 2*k2[i] + 2*k3[i] + k4[i])
		}
		t = t0 + float64(step+1)*h
		if hasPost {
			ps.PostStep(t, y)
		}
		hist.push(t, y)
		if obs != nil {
			obs(t, y)
		}
	}
	return y
}

// Func adapts a plain function to the System interface for pure ODEs.
type Func struct {
	N int
	F func(t float64, y, dydt []float64)
}

// Dim implements System.
func (f Func) Dim() int { return f.N }

// Derivs implements System.
func (f Func) Derivs(t float64, y []float64, _ History, dydt []float64) { f.F(t, y, dydt) }

// DelayFunc adapts a function with history access to the System interface.
type DelayFunc struct {
	N int
	F func(t float64, y []float64, past History, dydt []float64)
}

// Dim implements System.
func (f DelayFunc) Dim() int { return f.N }

// Derivs implements System.
func (f DelayFunc) Derivs(t float64, y []float64, past History, dydt []float64) {
	f.F(t, y, past, dydt)
}
