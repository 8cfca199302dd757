// Package fixedpoint computes the steady-state operating points the paper
// derives: the unique DCQCN fixed point (Theorem 1, Eq. 9-14) and the patched
// TIMELY fixed point (Theorem 5, Eq. 31), plus the generic scalar
// root-finding they need.
//
// It also holds the one copy of each law that more than one layer runs,
// and it imports only the standard library, so the packet simulator can
// call them too:
//
//   - Eq. 3, RED marking: REDMark (the switch's strict ramp) and
//     REDMarkExtended (the ramp continued past Kmax), with Eq. 9's inverse
//     QFromP;
//   - Eq. 5-7, the DCQCN rate law: DCQCNParams.Eq57, fed by Eq12;
//   - Eq. 30, Algorithm 2's rate-decrease weight: PatchedWeight;
//   - Eq. 31, the patched TIMELY queue: PatchedTimelyQStar.
package fixedpoint

import (
	"errors"
	"fmt"
	"math"
)

// ErrNoBracket is returned when the supplied interval does not bracket a
// sign change.
var ErrNoBracket = errors.New("fixedpoint: interval does not bracket a root")

// Bisect finds a root of f within [lo, hi] to absolute tolerance tol on the
// argument. f(lo) and f(hi) must have opposite signs (zero endpoints are
// returned directly).
func Bisect(f func(float64) float64, lo, hi, tol float64) (float64, error) {
	if lo > hi {
		lo, hi = hi, lo
	}
	flo, fhi := f(lo), f(hi)
	if flo == 0 {
		return lo, nil
	}
	if fhi == 0 {
		return hi, nil
	}
	if math.Signbit(flo) == math.Signbit(fhi) {
		return 0, fmt.Errorf("%w: f(%g)=%g, f(%g)=%g", ErrNoBracket, lo, flo, hi, fhi)
	}
	for hi-lo > tol {
		mid := lo + (hi-lo)/2
		if mid == lo || mid == hi {
			break // float resolution reached
		}
		fm := f(mid)
		if fm == 0 {
			return mid, nil
		}
		if math.Signbit(fm) == math.Signbit(flo) {
			lo, flo = mid, fm
		} else {
			hi = mid
		}
	}
	return lo + (hi-lo)/2, nil
}

// DCQCNParams are the fluid-model parameters of Table 1. Rates are in
// packets/second and buffer quantities in packets, so the per-packet marking
// probability p composes directly with them.
type DCQCNParams struct {
	N        int     // flows sharing the bottleneck
	C        float64 // bottleneck capacity, packets/s
	RAI      float64 // additive increase step, packets/s
	Tau      float64 // CNP generation timer τ, s
	TauPrime float64 // α update interval τ', s
	T        float64 // rate-increase timer, s
	B        float64 // byte counter, packets
	F        float64 // fast recovery stages (5)
	Kmin     float64 // RED min threshold, packets
	Kmax     float64 // RED max threshold, packets
	Pmax     float64 // RED max marking probability
	G        float64 // DCTCP-style gain g
	TauStar  float64 // control loop (feedback) delay τ*, s
}

// Physical range limits Validate enforces. They are generous — orders of
// magnitude beyond any datacenter operating point — but finite: the Eq. 11
// residual and the Eq. 9/10 fixed-point algebra are only guaranteed
// NaN-free and overflow-free inside these bounds (subnormal timers can
// drive the residual to 0/0, and a Pmax below ~1e-6 with a Kmax near 1e12
// overflows q*; both found by FuzzDCQCNValidateSolve).
const (
	MaxFlows   = 1e9  // N
	MinRate    = 1e-3 // C, RAI, packets/s
	MaxRate    = 1e12 // C, RAI, packets/s (8 Pb/s at 1 KB packets)
	MinTimer   = 1e-9 // Tau, TauPrime, T, s
	MaxTimer   = 10.0 // Tau, TauPrime, T, TauStar, s
	MinPackets = 1e-6 // B
	MaxPackets = 1e12 // B, Kmin, Kmax
	MinPmax    = 1e-6
	MaxStages  = 1e3 // F
)

// Validate reports whether the parameters are physically meaningful. Every
// float must be finite: NaN compares false against any threshold, so without
// the explicit check a NaN capacity or timer would sail through the range
// tests below and poison the Eq. 11 bisection (found by FuzzDCQCNValidateSolve).
// The magnitude bounds guarantee SolveDCQCN neither panics nor returns a
// non-finite "fixed point" on any accepted input — the contract the fuzz
// test pins.
func (p DCQCNParams) Validate() error {
	for _, v := range []float64{p.C, p.RAI, p.Tau, p.TauPrime, p.T, p.B, p.F,
		p.Kmin, p.Kmax, p.Pmax, p.G, p.TauStar} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return errors.New("dcqcn params: all parameters must be finite")
		}
	}
	switch {
	case p.N <= 0:
		return errors.New("dcqcn params: N must be positive")
	case float64(p.N) > MaxFlows:
		return errors.New("dcqcn params: N is beyond any physical fabric")
	case p.C <= 0, p.RAI <= 0:
		return errors.New("dcqcn params: rates must be positive")
	case p.C < MinRate, p.C > MaxRate, p.RAI < MinRate, p.RAI > MaxRate:
		return errors.New("dcqcn params: rates must be physical (packets/s)")
	case p.Tau <= 0, p.TauPrime <= 0, p.T <= 0:
		return errors.New("dcqcn params: timers must be positive")
	case p.Tau < MinTimer, p.Tau > MaxTimer,
		p.TauPrime < MinTimer, p.TauPrime > MaxTimer,
		p.T < MinTimer, p.T > MaxTimer:
		return errors.New("dcqcn params: timers must be physical (seconds)")
	case p.TauStar < 0 || p.TauStar > MaxTimer:
		return errors.New("dcqcn params: feedback delay must be in [0, MaxTimer]")
	case p.B <= 0, p.F <= 0:
		return errors.New("dcqcn params: byte counter and F must be positive")
	case p.B < MinPackets, p.B > MaxPackets, p.F > MaxStages:
		return errors.New("dcqcn params: byte counter or F beyond physical range")
	case p.Kmax <= p.Kmin, p.Kmin < 0:
		return errors.New("dcqcn params: need 0 <= Kmin < Kmax")
	case p.Kmax > MaxPackets:
		return errors.New("dcqcn params: Kmax beyond physical range")
	case p.Pmax <= 0 || p.Pmax > 1:
		return errors.New("dcqcn params: Pmax must be in (0,1]")
	case p.Pmax < MinPmax:
		return errors.New("dcqcn params: Pmax below the solvable range")
	case p.G <= 0 || p.G >= 1:
		return errors.New("dcqcn params: g must be in (0,1)")
	}
	return nil
}

// DCQCNFixedPoint is the unique operating point of Theorem 1.
type DCQCNFixedPoint struct {
	P     float64 // marking probability p*
	Q     float64 // queue length q*, packets (Eq. 9)
	Alpha float64 // α* (Eq. 10)
	RC    float64 // per-flow rate C/N, packets/s
	RT    float64 // target rate at the fixed point, packets/s
}

// Eq12 evaluates the event-rate terms a..e of Eq. 12 and the α target of
// Eq. 10 at one marking probability p. Every power of (1-p) is taken as
// exp(x·log(1-p)), which stays accurate for tiny p. NewEq12 does the work
// that depends on p alone (log(1-p), b and c), so a right-hand side that
// applies one delayed p to N flows pays for it once; Terms and
// AlphaTarget do the rest per rate.
type Eq12 struct {
	pr   DCQCNParams
	p    float64
	lp   float64 // log(1-p)
	b, c float64
}

// eq12Limit is the marking probability below which Eq. 12 takes its p→0
// limits: at p = 0 the closed forms are 0/0.
const eq12Limit = 1e-12

// NewEq12 builds the evaluator for marking probability p.
func NewEq12(pr DCQCNParams, p float64) Eq12 {
	eq := Eq12{pr: pr, p: p, lp: math.Log1p(-p)}
	if p < eq12Limit {
		eq.b = 1 / pr.B
		eq.c = 1 / pr.B
		return eq
	}
	denB := math.Expm1(-pr.B * eq.lp) // (1-p)^{-B} - 1
	eq.b = p / denB
	eq.c = math.Exp(pr.F*pr.B*eq.lp) * p / denB
	return eq
}

// Terms returns a..e at rate rc. Below p = 1e-12 it returns the limits
// b,c → 1/B and d,e → 1/(T·rc), with a → τ·rc·p.
func (eq *Eq12) Terms(rc float64) (a, b, c, d, e float64) {
	pr := &eq.pr
	if eq.p < eq12Limit {
		d = 1 / (pr.T * rc)
		return pr.Tau * rc * eq.p, eq.b, eq.c, d, d
	}
	a = -math.Expm1(pr.Tau * rc * eq.lp)   // 1-(1-p)^{τ rc}
	denT := math.Expm1(-pr.T * rc * eq.lp) // (1-p)^{-T rc} - 1
	d = eq.p / denT
	e = math.Exp(pr.F*pr.T*rc*eq.lp) * eq.p / denT
	return a, eq.b, eq.c, d, e
}

// AlphaTarget returns 1-(1-p)^{τ' r}, the marked fraction α tracks at
// rate r (Eq. 5) and α* at the fixed point (Eq. 10). It needs no p→0
// limit.
func (eq *Eq12) AlphaTarget(r float64) float64 {
	return -math.Expm1(eq.pr.TauPrime * r * eq.lp)
}

// Eq57 is the DCQCN rate law of Eq. 5-7 for one flow: the derivatives of
// α, R_T and R_C at state (alpha, rt, rc) and delayed rate rcHat, given
// the Eq. 12 terms a..e at that rate and target = 1-(1-p)^{τ' rcHat}
// (Eq12.Terms and AlphaTarget). The fluid model, its loop reduction and
// the hybrid background aggregate all call it; it is small enough to
// inline into the fluid right-hand side's per-flow loop.
func (pr *DCQCNParams) Eq57(a, b, c, d, e, target, alpha, rt, rc, rcHat float64) (dAlpha, dRT, dRC float64) {
	// Eq. 5: α tracks the marked fraction over the τ' window.
	dAlpha = pr.G / pr.TauPrime * (target - alpha)
	// Eq. 6: the target rate resets on cuts and rises with the byte
	// counter and timer once past the F fast-recovery stages.
	dRT = -(rt-rc)/pr.Tau*a + pr.RAI*rcHat*(c+e)
	// Eq. 7: multiplicative decrease on CNPs, fast recovery toward R_T on
	// byte-counter and timer events.
	dRC = -rc*alpha/(2*pr.Tau)*a + (rt-rc)/2*rcHat*(b+d)
	return dAlpha, dRT, dRC
}

// DCQCNResidual is the left-hand side minus right-hand side of Eq. 11 at
// marking probability p with per-flow rate rc = C/N. It is negative for
// p below the fixed point and positive above it. Below p = 1e-12 the Eq. 12
// terms take their p→0 limits (SolveDCQCN never bisects there).
func DCQCNResidual(pr DCQCNParams, p float64) float64 {
	rc := pr.C / float64(pr.N)
	eq := NewEq12(pr, p)
	a, b, c, d, e := eq.Terms(rc)
	return a*a*eq.AlphaTarget(rc)/((b+d)*(c+e)) - pr.Tau*pr.Tau*pr.RAI*rc
}

// SolveDCQCN finds the unique fixed point of Theorem 1 by bisection of
// Eq. 11 over p in (0, 1).
func SolveDCQCN(pr DCQCNParams) (DCQCNFixedPoint, error) {
	if err := pr.Validate(); err != nil {
		return DCQCNFixedPoint{}, err
	}
	rc := pr.C / float64(pr.N)
	f := func(p float64) float64 { return DCQCNResidual(pr, p) }
	p, err := Bisect(f, 1e-12, 1-1e-9, 1e-14)
	if err != nil {
		return DCQCNFixedPoint{}, fmt.Errorf("dcqcn fixed point: %w", err)
	}
	eq := NewEq12(pr, p)
	fp := DCQCNFixedPoint{
		P:     p,
		Q:     pr.QFromP(p),       // Eq. 9
		Alpha: eq.AlphaTarget(rc), // Eq. 10
		RC:    rc,
	}
	// R_T* from dR_T/dt = 0 (see the derivation of Eq. 11):
	// (R_T - R_C) a/τ = R_AI R_C (c+e).
	a, _, c, _, e := eq.Terms(rc)
	fp.RT = rc + pr.Tau*pr.RAI*rc*(c+e)/a
	return fp, nil
}

// DCQCNPStarApprox is the closed-form Taylor approximation of p* (Eq. 14):
//
//	p* ≈ cbrt( R_AI N² / (τ' C²) · (1/B + N/(T C))² ).
func DCQCNPStarApprox(pr DCQCNParams) float64 {
	n := float64(pr.N)
	inner := 1/pr.B + n/(pr.T*pr.C)
	return math.Cbrt(pr.RAI * n * n / (pr.TauPrime * pr.C * pr.C) * inner * inner)
}

// REDMark is the RED marking profile of Eq. 3: zero up to kmin, a linear
// ramp to pmax at kmax, and 1 beyond. It is the switch's profile: the
// packet marker calls it on byte counts, and the fluid model under
// StrictRED on packets.
func REDMark(q, kmin, kmax, pmax float64) float64 {
	switch {
	case q <= kmin:
		return 0
	case q <= kmax:
		return (q - kmin) / (kmax - kmin) * pmax
	default:
		return 1
	}
}

// REDMarkExtended is the Eq. 3 profile with the ramp extended past kmax and
// capped at probability 1, the profile QFromP inverts. The Eq. 9 fixed
// point admits q* > Kmax (64 flows at the default parameters), which is
// consistent only with a ramp that continues past Kmax, so the fluid
// models, their loops and the hybrid background aggregate use this form.
func REDMarkExtended(q, kmin, kmax, pmax float64) float64 {
	if q <= kmin {
		return 0
	}
	p := (q - kmin) / (kmax - kmin) * pmax
	if p > 1 {
		return 1
	}
	return p
}

// QFromP maps a marking probability to the RED steady-state queue (Eq. 9).
func (pr DCQCNParams) QFromP(p float64) float64 {
	return p/pr.Pmax*(pr.Kmax-pr.Kmin) + pr.Kmin
}

// PatchedWeight is the Eq. 30 rate-decrease weight of Algorithm 2: a
// linear ramp from 0 to 1 over RTT gradients in [-1/4, 1/4]. The packet
// sender and the patched TIMELY fluid model both call it.
func PatchedWeight(g float64) float64 {
	switch {
	case g <= -0.25:
		return 0
	case g >= 0.25:
		return 1
	default:
		return 2*g + 0.5
	}
}

// PatchedTimelyQStar is the patched-TIMELY fixed-point queue of Eq. 31:
//
//	q* = N δ q' / (β C) + q'
//
// with q' the reference queue (C·T_low in the paper), δ the additive step,
// β the decrease factor and C the bottleneck capacity. Any consistent unit
// system works (the paper uses bytes and bytes/second).
func PatchedTimelyQStar(n int, delta, beta, c, qPrime float64) float64 {
	return float64(n)*delta*qPrime/(beta*c) + qPrime
}
