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
	"sort"
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
	for kk, d := range delays {
		if !(d >= 0 && d <= math.MaxFloat64) {
			return nil, fmt.Errorf("stability: delay %d is %g, want finite and non-negative", kk, d)
		}
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

// The power iteration of quietOmega: a fixed number of steps, and the
// constant added to every entry of M so that each component of v stays
// positive when M is reducible. The constant is far below any entry a loop
// model has, so it does not move the Perron vector of an irreducible M.
const (
	quietIters = 32
	quietEps   = 0x1p-600
)

// quietOmega returns ω_q, a frequency at and above which |L(jω)| ≤ ½ is
// guaranteed by the Jacobians alone, or +Inf where no such bound holds: a
// Jacobian entry, ρ or ω_q that is not finite, or a rate index out of
// range. v and next are work vectors of length n; it allocates nothing.
//
// The bound is a small-gain argument on the loop as a multi-delay system.
// Let M = |A| + Σ_k |B_k| entrywise. At s = jω each phasor e^{-jωτ_k} has
// modulus 1, so X(ω) = A + Σ_k B_k e^{-jωτ_k} obeys |X| ≤ M entrywise and
// the right-hand side r = Σ_k E_k e^{-jωτ_k} obeys |r_i| ≤ Σ_k |E_k,i|.
// For any v > 0 let
//
//	ρ = max_i (Mv)_i / v_i,   ē = v_c · max_i Σ_k |E_k,i| / v_i
//
// with c the rate index. Scaled by D = diag(v), the matrix m = jωI - X
// becomes S = D⁻¹mD with |S_ii| ≥ ω - M_ii and Σ_{j≠i} |S_ij| ≤
// (Mv)_i/v_i - M_ii, so for ω > ρ every row is strictly diagonally
// dominant by at least ω - ρ: m is nonsingular, so a skipped point hides
// no singular-matrix error, and ‖S⁻¹‖∞ ≤ 1/(ω - ρ). The rate component h
// of m⁻¹r = D S⁻¹ D⁻¹ r then obeys |h| ≤ v_c · max_i (|r_i|/v_i) / (ω - ρ)
// ≤ ē/(ω - ρ), and
//
//	|L(jω)| = N|h|/ω ≤ N·ē / (ω(ω - ρ)),
//
// which falls in ω and is ½ at ω_q = (ρ + √(ρ² + 8Nē))/2. Any positive v
// gives a valid bound; M's Perron vector, which minimises ρ, gives a good
// one. It comes from quietIters power iterations on M + quietEps, so
// neither the iteration count nor the constant can make the bound
// unsound, only looser.
//
// Stage 1 reads only the sign of |L| - 1, and the gain it computes cannot
// reach 1 where the bound gives ½. The phasors math.Sincos returns have
// modulus 1 to within an ulp, so the computed X and r obey the entrywise
// bounds to a relative few ulps. For ω > ρ the scaled system is well
// conditioned, κ = ‖S‖∞‖S⁻¹‖∞ ≤ (ω + ρ)/(ω - ρ), so the computed |h|
// exceeds ē/(ω - ρ) by at most a relative κ·O(n·2⁻⁵³). Rounding ω_q up by
// a relative 2⁻²⁰ covers the bound's own rounding many times over and
// keeps ω - ρ ≥ 2⁻²⁰ρ, so κ stays below about 2²¹ and that error below
// 1e-9: nowhere near the factor of 2 between ½ and 1.
func (j *jacobians) quietOmega(v, next []float64) float64 {
	n, c := j.n, j.cIdx
	if c < 0 || c >= n {
		return math.Inf(1)
	}
	mv := func(row int) float64 { // (Mv)_row
		s := 0.0
		for col := 0; col < n; col++ {
			x := math.Abs(j.a[row*n+col])
			for kk := range j.b {
				x += math.Abs(j.b[kk][row*n+col])
			}
			s += x * v[col]
		}
		return s
	}
	for i := range v {
		v[i] = 1
	}
	for it := 0; it < quietIters; it++ {
		sum, top := 0.0, 0.0
		for _, x := range v {
			sum += x
		}
		for row := range next {
			next[row] = mv(row) + quietEps*sum
			top = math.Max(top, next[row])
		}
		for i := range v {
			v[i] = next[i] / top
		}
	}

	// A NaN or infinite Jacobian entry, or a component of v lost to
	// underflow, reaches ρ or ē as NaN or Inf (one NaN in v spreads to all
	// of v through the sum, and math.Max keeps either), and from there ω_q,
	// which the check below turns into +Inf.
	rho, ebar := 0.0, 0.0
	for row := 0; row < n; row++ {
		e := 0.0
		for kk := range j.e {
			e += math.Abs(j.e[kk][row])
		}
		rho = math.Max(rho, mv(row)/v[row])
		ebar = math.Max(ebar, e/v[row])
	}
	ebar *= v[c]
	nf := math.Abs(float64(j.flows))
	wq := (rho + math.Sqrt(rho*rho+8*nf*ebar)) / 2 * (1 + 0x1p-20)
	if !(wq <= math.MaxFloat64) {
		return math.Inf(1)
	}
	return wq
}

// quietStart returns the index of the first stage-1 point at or above
// ω_q (see quietOmega), never 0: ω_lo is always evaluated.
func quietStart(wq float64) int { return max(1, sort.SearchFloat64s(sweepOmegas, wq)) }

func (j *jacobians) phaseMargin() (Result, error) {
	// Stage 1: coarse magnitude-only sweep to bracket |L| = 1 crossings.
	// Magnitude needs no unwrapping, so the grid can be coarse, and only
	// the sign of |L| - 1 is read, here and in the bisection. From ω_q on,
	// |L| ≤ ½, so those points are recorded as -½ without a solve. The
	// bound's two work vectors borrow the buffer before the sweep fills it,
	// which keeps the buffer on the stack; only a model with more than
	// points/2 states needs a buffer of its own.
	excess := make([]float64, points)
	work := excess
	if 2*j.n > points {
		work = make([]float64, 2*j.n)
	}
	quiet := quietStart(j.quietOmega(work[:j.n], work[j.n:2*j.n]))
	for i, w := range sweepOmegas {
		if i >= quiet {
			excess[i] = -0.5
			continue
		}
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
		if math.IsNaN(pm) {
			return Result{}, fmt.Errorf("stability: phase at crossover ω=%g is NaN", wc)
		}
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
