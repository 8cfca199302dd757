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
//
// The ring has two reads. History.Value reads one component at one time,
// for lags that differ per component (TIMELY's per-flow RTT samples, the
// ingress-marking bisection). History.State reads the whole state at one
// time, for a right-hand side whose delayed inputs share one lag (DCQCN's
// queue or p and every flow's rate at t − τ*): it resolves the lookup
// time once, and each component has the bits Value gives it. Both reads
// resolve the time in one place, history.locate, so a change to the
// interpolation weight, such as taking it from the step grid instead of
// the ring's fill, lands in State and Value at once.
//
// The ring stores only the components the right-hand side reads back,
// which Solver.Delayed lists (nil: all of them). DCQCN reads its queue (or
// p) and every flow's current rate, 11 of 31 values at N = 10; TIMELY
// reads its queue alone, 1 of 21. A stored component keeps the bits it
// would have in a ring of every component: the ring's capacity, its
// oldest time, the rows a lookup resolves to and the weight do not depend
// on which components a row holds, and each stored value is interpolated
// by the same expression. Value panics on a component the ring does not
// store, and State writes the stored components of dst and leaves every
// other entry as it was.
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
	// State writes the state at time tq into dst, which must hold Dim
	// values: dst[i] gets the bits of Value(tq, i) for every stored
	// component i, the other entries keep theirs, and a lookup that
	// Value refuses panics the same way.
	State(tq float64, dst []float64)
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
	// Delayed lists, in strictly increasing order, the components the
	// right-hand side reads from its History. The ring stores those
	// alone, so a model that delays few of its components keeps a ring
	// a fraction of the state's size; a read of any other component
	// panics. Nil means every component.
	Delayed []int
}

// Observer receives the solution after every accepted step (and once for the
// initial condition). The slice is reused; copy what you keep.
type Observer func(t float64, y []float64)

type history struct {
	t0    float64 // time of ring[head]
	h     float64
	n     int // points stored
	capac int
	// stored lists the components a row holds, in increasing order, and
	// col maps each of the state's components to its column in a row,
	// -1 for one not stored; len(col) is the state's dimension.
	stored []int
	col    []int
	// buf is the ring of capac rows of len(stored) values, then one row
	// holding the initial history, which serves every lookup at or
	// before t0.
	buf   []float64
	start int     // index of oldest point
	tcur  float64 // time of newest point
}

// newHistory makes a ring of capac points of the components stored of
// the state y0 (every component when stored is nil), which is also the
// history at and before t0.
func newHistory(capac int, h, t0 float64, y0 []float64, stored []int) *history {
	if stored == nil {
		stored = make([]int, len(y0))
		for i := range stored {
			stored[i] = i
		}
	}
	col := make([]int, len(y0))
	for i := range col {
		col[i] = -1
	}
	for j, i := range stored {
		col[i] = j
	}
	hs := &history{h: h, capac: capac, t0: t0, tcur: t0, stored: stored, col: col}
	hs.buf = make([]float64, (capac+1)*len(stored))
	hs.put(0, y0)
	hs.put(capac, y0)
	hs.n = 1
	return hs
}

// put writes the stored components of y into ring row idx.
func (hs *history) put(idx int, y []float64) {
	w := len(hs.stored)
	row := hs.buf[idx*w : (idx+1)*w]
	for j, i := range hs.stored {
		row[j] = y[i]
	}
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
	hs.put(idx, y)
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

// row returns the offset in buf of the i-th stored point (0 = oldest).
func (hs *history) row(i int) int { return hs.index(i) * len(hs.stored) }

func (hs *history) oldestTime() float64 { return hs.tcur - float64(hs.n-1)*hs.h }

// locate resolves a lookup at tq to three rows of buf, given by their
// offsets, and a weight: the value in column j of the state at tq is
// buf[base+j] + a*(buf[hi+j]-buf[lo+j]), or buf[base+j] itself when hi is
// negative. Between two stored points base and lo are the older one and
// hi the newer. At or beyond the newest point the last two points are
// extrapolated: base and hi are the newest point, lo the one before it.
// Runge-Kutta stages evaluate at t+h/2 and t+h, so a lag smaller than the
// step lands there; the overshoot is at most one step. hi is negative at
// or before t0, where base is the initial history, and while the ring
// holds one point, whose value is held constant. It returns offsets, not
// slices: three slice headers made each Value call about a fifth slower.
func (hs *history) locate(tq float64) (base, hi, lo int, a float64) {
	if tq <= hs.t0 {
		return hs.capac * len(hs.stored), -1, 0, 0
	}
	oldest := hs.oldestTime()
	if tq < oldest {
		panic(fmt.Sprintf("ode: history lookup at t=%g before oldest stored %g; increase Solver.MaxDelay", tq, oldest))
	}
	// Fractional index into the uniformly spaced ring.
	f := (tq - oldest) / hs.h
	i := int(f)
	if i >= hs.n-1 {
		last := hs.row(hs.n - 1)
		if hs.n == 1 {
			return last, -1, 0, 0
		}
		return last, last, hs.row(hs.n - 2), (tq - hs.tcur) / hs.h
	}
	p0 := hs.row(i)
	return p0, hs.row(i + 1), p0, f - float64(i)
}

func (hs *history) Value(tq float64, idx int) float64 {
	// A component outside the state fails with an ode: message, not on
	// col's bounds.
	if uint(idx) >= uint(len(hs.col)) {
		panic(fmt.Sprintf("ode: history lookup of component %d of a %d-component state", idx, len(hs.col)))
	}
	c := hs.col[idx]
	if c < 0 {
		panic(fmt.Sprintf("ode: history lookup of component %d, which Solver.Delayed does not list", idx))
	}
	base, hi, lo, a := hs.locate(tq)
	buf := hs.buf
	if hi < 0 {
		return buf[base+c]
	}
	return buf[base+c] + a*(buf[hi+c]-buf[lo+c])
}

func (hs *history) State(tq float64, dst []float64) {
	base, hi, lo, a := hs.locate(tq)
	dst = dst[:len(hs.col)]
	w := len(hs.stored)
	b := hs.buf[base : base+w]
	if hi < 0 {
		for j, i := range hs.stored {
			dst[i] = b[j]
		}
		return
	}
	u, l := hs.buf[hi:hi+w], hs.buf[lo:lo+w]
	for j, i := range hs.stored {
		dst[i] = b[j] + a*(u[j]-l[j])
	}
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
	width := dim
	if s.Delayed != nil {
		width = len(s.Delayed)
	}
	for k, i := range s.Delayed {
		if i < 0 || i >= dim || k > 0 && i <= s.Delayed[k-1] {
			panic(fmt.Sprintf("ode: Delayed[%d] = %d: want strictly increasing components in [0, %d)", k, i, dim))
		}
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
	if capac*float64(width)*8 >= math.MaxInt {
		panic(fmt.Sprintf("ode: history ring of %g points of %d values: its size in bytes does not fit in an int", capac, width))
	}
	hist := newHistory(int(capac), s.H, t0, s.Y0, s.Delayed)

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
