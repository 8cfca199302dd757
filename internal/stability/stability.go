// Package stability implements the control-theoretic analysis of §3.2 and
// §4.3: linearise the fluid model around its fixed point, form the loop
// transfer function in the Laplace domain, and read the Bode phase margin
// off the gain crossover.
//
// Where the paper derives the linearisation by hand (Appendix A), this
// package computes the Jacobians numerically from the nonlinear model —
// same characteristic equation, machine-differentiated. The congestion
// loop of every single-bottleneck model analysed here has the shape
//
//	rate subsystem:  dz/dt = F(z(t), z(t-τ_1..τ_K), q(t-τ_1..τ_K))
//	queue:           dq/dt = N · (z_rate - fair share)
//
// Breaking the loop at the queue gives the open-loop transfer function
//
//	L(s) = -N/s · Cᵀ (sI - A - Σ_k B_k e^{-sτ_k})⁻¹ (Σ_k E_k e^{-sτ_k})
//
// with A, B_k, E_k the Jacobians of F with respect to current state, delayed
// state, and delayed queue, and C selecting the rate component. The phase
// margin is 180° plus the unwrapped phase of L at the |L| = 1 crossover.
package stability

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
)

// LoopModel is the symmetric-flow reduction of a fluid model: one
// representative flow's dynamics driven by delayed observations of the
// shared queue. Implementations live next to their fluid models.
type LoopModel interface {
	// StateDim is the dimension of the per-flow state z.
	StateDim() int
	// Delays returns the distinct feedback lags (seconds), frozen at
	// their fixed-point values for state-dependent delays.
	Delays() []float64
	// Derivs evaluates dz/dt at current state z, with zd[k] the state and
	// qd[k] the queue at lag Delays()[k].
	Derivs(z []float64, zd [][]float64, qd []float64, dzdt []float64)
	// RateIndex identifies the component of z that feeds the queue
	// integrator.
	RateIndex() int
	// FlowCount is the number of symmetric flows N.
	FlowCount() int
	// Equilibrium returns the per-flow fixed point z* and queue q*.
	Equilibrium() (z []float64, q float64, err error)
}

// Result summarises a phase-margin analysis.
type Result struct {
	// PhaseMarginDeg is the margin at the critical gain crossover, in
	// degrees. Positive means stable. math.Inf(1) means the loop gain
	// never reaches 1 (unconditionally stable in this analysis).
	PhaseMarginDeg float64
	// CrossoverRadPerSec is the gain-crossover frequency, 0 if none.
	CrossoverRadPerSec float64
	// Stable is PhaseMarginDeg > 0.
	Stable bool
}

// jacobians holds the linearisation of a LoopModel at its fixed point,
// plus the scratch loopGain overwrites on every call. A value is built per
// PhaseMargin or LoopGain call and never shared between goroutines.
type jacobians struct {
	n      int // state dim
	k      int // number of delays
	delays []float64
	a      []float64   // n×n ∂F/∂z
	b      [][]float64 // per delay, n×n ∂F/∂zd_k
	e      [][]float64 // per delay, n ∂F/∂qd_k
	cIdx   int
	flows  int

	m      []complex128 // n×n sI - A - Σ_k B_k e^{-sτ_k}
	rhs    []complex128 // n: Σ_k E_k e^{-sτ_k}, then the solution
	phasor []complex128 // per delay, e^{-jωτ_k}
}

// linearise computes centred-difference Jacobians of m at its equilibrium.
func linearise(m LoopModel) (*jacobians, error) {
	zStar, qStar, err := m.Equilibrium()
	if err != nil {
		return nil, err
	}
	n := m.StateDim()
	if len(zStar) != n {
		return nil, fmt.Errorf("stability: equilibrium dim %d, want %d", len(zStar), n)
	}
	delays := m.Delays()
	k := len(delays)
	if k == 0 {
		return nil, errors.New("stability: model declares no delays")
	}
	j := &jacobians{
		n: n, k: k, delays: delays,
		a:      make([]float64, n*n),
		cIdx:   m.RateIndex(),
		flows:  m.FlowCount(),
		m:      make([]complex128, n*n),
		rhs:    make([]complex128, n),
		phasor: make([]complex128, k),
	}
	for kk := 0; kk < k; kk++ {
		j.b = append(j.b, make([]float64, n*n))
		j.e = append(j.e, make([]float64, n))
	}

	// Working copies: evaluate F with all arguments at equilibrium, then
	// perturb one coordinate at a time.
	eval := func(z []float64, zd [][]float64, qd []float64, out []float64) {
		m.Derivs(z, zd, qd, out)
	}
	mkState := func() ([]float64, [][]float64, []float64) {
		z := append([]float64(nil), zStar...)
		zd := make([][]float64, k)
		qd := make([]float64, k)
		for kk := 0; kk < k; kk++ {
			zd[kk] = append([]float64(nil), zStar...)
			qd[kk] = qStar
		}
		return z, zd, qd
	}
	plus := make([]float64, n)
	minus := make([]float64, n)
	eps := func(x float64) float64 {
		e := 1e-6 * math.Abs(x)
		if e < 1e-9 {
			e = 1e-9
		}
		return e
	}

	// ∂F/∂z.
	for col := 0; col < n; col++ {
		z, zd, qd := mkState()
		h := eps(zStar[col])
		z[col] = zStar[col] + h
		eval(z, zd, qd, plus)
		z[col] = zStar[col] - h
		eval(z, zd, qd, minus)
		for row := 0; row < n; row++ {
			j.a[row*n+col] = (plus[row] - minus[row]) / (2 * h)
		}
	}
	// ∂F/∂zd_k and ∂F/∂qd_k.
	for kk := 0; kk < k; kk++ {
		for col := 0; col < n; col++ {
			z, zd, qd := mkState()
			h := eps(zStar[col])
			zd[kk][col] = zStar[col] + h
			eval(z, zd, qd, plus)
			zd[kk][col] = zStar[col] - h
			eval(z, zd, qd, minus)
			for row := 0; row < n; row++ {
				j.b[kk][row*n+col] = (plus[row] - minus[row]) / (2 * h)
			}
		}
		z, zd, qd := mkState()
		h := eps(qStar)
		qd[kk] = qStar + h
		eval(z, zd, qd, plus)
		qd[kk] = qStar - h
		eval(z, zd, qd, minus)
		for row := 0; row < n; row++ {
			j.e[kk][row] = (plus[row] - minus[row]) / (2 * h)
		}
	}
	return j, nil
}

// fill writes the rate subsystem at s = jω into the scratch: m = sI - A -
// Σ_k B_k e^{-sτ_k} and rhs = Σ_k E_k e^{-sτ_k}. Each delay's phasor
// e^{-jωτ_k} is computed once, by one sincos: the exponent's real part is
// +0, so this is bit-identical to cmplx.Exp(-jω·τ_k).
func (j *jacobians) fill(omega float64) {
	s := complex(0, omega)
	n := j.n
	for kk, tau := range j.delays {
		sin, cos := math.Sincos(-omega * tau)
		j.phasor[kk] = complex(cos, sin)
	}
	m, rhs := j.m, j.rhs
	for row := 0; row < n; row++ {
		for col := 0; col < n; col++ {
			v := complex(-j.a[row*n+col], 0)
			for kk := 0; kk < j.k; kk++ {
				v -= complex(j.b[kk][row*n+col], 0) * j.phasor[kk]
			}
			if row == col {
				v += s
			}
			m[row*n+col] = v
		}
		var e complex128
		for kk := 0; kk < j.k; kk++ {
			e += complex(j.e[kk][row], 0) * j.phasor[kk]
		}
		rhs[row] = e
	}
}

// rate solves the rate subsystem at s = jω for its rate component
// h = Cᵀ m⁻¹ rhs (see fill).
func (j *jacobians) rate(omega float64) (complex128, error) {
	j.fill(omega)
	if err := solveComplex(j.n, j.m, j.rhs, j.cIdx); err != nil {
		return 0, err
	}
	return j.rhs[j.cIdx], nil
}

// loopGain evaluates L(jω).
func (j *jacobians) loopGain(omega float64) (complex128, error) {
	h, err := j.rate(omega)
	if err != nil {
		return 0, err
	}
	return gain(j.flows, h, omega), nil
}

// excess returns a value with the sign of |L(jω)| - 1 (see gainExcess).
func (j *jacobians) excess(omega float64) (float64, error) {
	h, err := j.rate(omega)
	if err != nil {
		return 0, err
	}
	return gainExcess(j.flows, h, omega), nil
}

// gain is L(jω) = -N·h/(jω) for the rate component h.
func gain(flows int, h complex128, omega float64) complex128 {
	return -complex(float64(flows), 0) * h / complex(0, omega)
}

// gainExcess returns a value with the sign of cmplx.Abs(gain(flows, h,
// ω)) - 1; only its sign, zero and NaN carry meaning. It reads the sign
// off |L|² = N²·|h|²/ω², with no complex division and no hypot, when
// |h|² and ω² lie in [sqLo, sqHi] and the estimate is finite and more
// than tieGap from 1. That estimate and |L| as gain and cmplx.Abs compute
// it are each within a few ulps of exact (see sqLo), so a gap of 1e-9
// gives both the same sign. Anything else, a NaN gain included, returns
// cmplx.Abs(gain(flows, h, ω)) - 1 itself.
func gainExcess(flows int, h complex128, omega float64) float64 {
	nf := float64(flows)
	if hh, ww := sqAbs(h), omega*omega; sqInRange(hh) && sqInRange(ww) {
		est := nf * nf * hh / ww
		if d := est - 1; math.Abs(d) > tieGap && est <= math.MaxFloat64 {
			return d
		}
	}
	return cmplx.Abs(gain(flows, h, omega)) - 1
}

// LoopGain exposes L(jω) for a model, mostly for tests and plotting.
func LoopGain(m LoopModel, omega float64) (complex128, error) {
	j, err := linearise(m)
	if err != nil {
		return 0, err
	}
	return j.loopGain(omega)
}

// PhaseMargin runs the Bode analysis of §3.2: sweep ω, unwrap the phase,
// locate every |L| = 1 crossing, and report the smallest margin.
func PhaseMargin(m LoopModel) (Result, error) {
	j, err := linearise(m)
	if err != nil {
		return Result{}, err
	}
	return j.phaseMargin()
}

// Stage 1 sweeps the magnitude on a log-spaced grid of points from omegaLo,
// where the integrator makes the loop gain enormous, to omegaHi, far above
// any dynamics at data-centre timescales.
const (
	omegaLo = 1.0 // rad/s
	omegaHi = 1e9
	points  = 2000
)

// sweepOmegas is the stage-1 grid. It is a constant of the package, built
// once and only ever read, so concurrent PhaseMargin calls share it.
var sweepOmegas = func() []float64 {
	lf := math.Log(omegaLo)
	step := (math.Log(omegaHi) - lf) / (points - 1)
	w := make([]float64, points)
	for i := range w {
		w[i] = math.Exp(lf + float64(i)*step)
	}
	return w
}()

func (j *jacobians) phaseMargin() (Result, error) {
	// Stage 1: coarse magnitude-only sweep to bracket |L| = 1 crossings.
	// Magnitude needs no unwrapping, so the grid can be coarse, and only
	// the sign of |L| - 1 is read, here and in the bisection.
	excess := make([]float64, points)
	for i, w := range sweepOmegas {
		x, err := j.excess(w)
		if err != nil {
			return Result{}, err
		}
		excess[i] = x
	}

	// A nonzero excess is at least 2⁻⁵³ in size, so no product underflows:
	// a sign change, a zero or a NaN brackets a crossing.
	var crossovers []float64
	for i := 1; i < points; i++ {
		if excess[i-1]*excess[i] > 0 {
			continue
		}
		// Bisect |L(jω)| = 1 within [ω_{i-1}, ω_i].
		lo, hi := sweepOmegas[i-1], sweepOmegas[i]
		flo := excess[i-1]
		for iter := 0; iter < 60 && hi-lo > 1e-9*hi; iter++ {
			mid := math.Sqrt(lo * hi)
			fm, err := j.excess(mid)
			if err != nil {
				return Result{}, err
			}
			if (fm < 0) == (flo < 0) {
				lo, flo = mid, fm
			} else {
				hi = mid
			}
		}
		crossovers = append(crossovers, math.Sqrt(lo*hi))
	}

	if len(crossovers) == 0 {
		// Every excess has one sign, none zero or NaN.
		if excess[0] > 0 {
			l, err := j.loopGain(sweepOmegas[0])
			if err != nil {
				return Result{}, err
			}
			return Result{}, fmt.Errorf("stability: loop gain %g at ω=%g never crosses 1 within sweep",
				cmplx.Abs(l), sweepOmegas[0])
		}
		return Result{PhaseMarginDeg: math.Inf(1), Stable: true}, nil
	}

	// Stage 2: unwrap the phase from ω_lo to each crossover with a grid
	// dense enough that neither the e^{-jωτ} rotation nor the rational
	// part can jump by more than π between samples.
	maxDelay := 0.0
	for _, d := range j.delays {
		if d > maxDelay {
			maxDelay = d
		}
	}
	res := Result{PhaseMarginDeg: math.Inf(1)}
	for _, wc := range crossovers {
		n := 500 + int(20*wc*maxDelay)
		phase, err := j.unwrappedPhase(omegaLo, wc, n)
		if err != nil {
			return Result{}, err
		}
		pm := 180 + phase*180/math.Pi
		if pm < res.PhaseMarginDeg {
			res.PhaseMarginDeg = pm
			res.CrossoverRadPerSec = wc
		}
	}
	res.Stable = res.PhaseMarginDeg > 0
	return res, nil
}

// unwrappedPhase tracks arg L(jω) continuously from wLo (where the
// integrator pins the principal value to the true phase) up to wHi, using n
// log-spaced samples.
func (j *jacobians) unwrappedPhase(wLo, wHi float64, n int) (float64, error) {
	if n < 2 {
		n = 2
	}
	lf := math.Log(wLo)
	step := (math.Log(wHi) - lf) / float64(n-1)
	var unwrapped, prev float64
	for i := 0; i < n; i++ {
		w := math.Exp(lf + float64(i)*step)
		l, err := j.loopGain(w)
		if err != nil {
			return 0, err
		}
		arg := cmplx.Phase(l)
		if i == 0 {
			unwrapped = arg
		} else {
			d := arg - prev
			for d > math.Pi {
				d -= 2 * math.Pi
			}
			for d < -math.Pi {
				d += 2 * math.Pi
			}
			unwrapped += d
		}
		prev = arg
	}
	return unwrapped, nil
}
