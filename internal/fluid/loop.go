package fluid

import (
	"fmt"

	"ecndelay/internal/fixedpoint"
)

// This file provides the symmetric-flow loop reductions consumed by
// internal/stability (they satisfy stability.LoopModel structurally): one
// representative flow's dynamics, driven by delayed observations of the
// shared queue, with the queue integrator factored out.

// DCQCNLoop reduces the DCQCN fluid model to its per-flow rate subsystem
// for the §3.2 phase-margin analysis. State z = (α, R_T, R_C). The rate
// self-feedback lags τ* (lag 0); the marking reads the queue at the last
// lag, which is that same τ* under egress marking and τ* + q*/C under
// ingress marking (NewDCQCNIngressLoop).
type DCQCNLoop struct {
	sys    *DCQCNSystem
	delays []float64
}

// NewDCQCNLoop builds the egress-marking reduction for the given
// parameters: a single feedback lag τ*.
func NewDCQCNLoop(params fixedpoint.DCQCNParams) (*DCQCNLoop, error) {
	sys, err := NewDCQCN(DCQCNConfig{Params: params})
	if err != nil {
		return nil, err
	}
	return &DCQCNLoop{sys: sys, delays: []float64{params.TauStar}}, nil
}

// NewDCQCNIngressLoop builds the reduction with ingress marking
// (Figure 17): the marking path gains a second lag τ* + q*/C, the
// queueing delay frozen at the Theorem 1 fixed point, while the rate
// self-feedback keeps τ*. The phase-margin gap to NewDCQCNLoop is the
// analytical content of §5.2's egress-marking argument.
func NewDCQCNIngressLoop(params fixedpoint.DCQCNParams) (*DCQCNLoop, error) {
	l, err := NewDCQCNLoop(params)
	if err != nil {
		return nil, err
	}
	fp, err := fixedpoint.SolveDCQCN(params)
	if err != nil {
		return nil, err
	}
	l.delays = append(l.delays, params.TauStar+fp.Q/params.C)
	return l, nil
}

// StateDim implements stability.LoopModel.
func (l *DCQCNLoop) StateDim() int { return 3 }

// Delays implements stability.LoopModel: τ*, then the ingress marking lag
// if there is one.
func (l *DCQCNLoop) Delays() []float64 { return l.delays }

// RateIndex implements stability.LoopModel: R_C is z[2].
func (l *DCQCNLoop) RateIndex() int { return 2 }

// FlowCount implements stability.LoopModel.
func (l *DCQCNLoop) FlowCount() int { return l.sys.cfg.Params.N }

// Equilibrium implements stability.LoopModel via Theorem 1.
func (l *DCQCNLoop) Equilibrium() ([]float64, float64, error) {
	fp, err := fixedpoint.SolveDCQCN(l.sys.cfg.Params)
	if err != nil {
		return nil, 0, err
	}
	return []float64{fp.Alpha, fp.RT, fp.RC}, fp.Q, nil
}

// Derivs implements stability.LoopModel: the per-flow slice of Eq. 5-7,
// with the rate fed back at lag 0 and the marking probability taken from
// the queue at the last lag.
func (l *DCQCNLoop) Derivs(z []float64, zd [][]float64, qd []float64, dzdt []float64) {
	pr := &l.sys.cfg.Params
	rcHat := zd[0][2]
	eq := fixedpoint.NewEq12(*pr, fixedpoint.REDMarkExtended(qd[len(qd)-1], pr.Kmin, pr.Kmax, pr.Pmax))
	a, b, c, d, e := eq.Terms(max(rcHat, l.sys.rmin))
	dzdt[0], dzdt[1], dzdt[2] = pr.Eq57(a, b, c, d, e, eq.AlphaTarget(rcHat), z[0], z[1], z[2], rcHat)
}

// PatchedTimelyLoop reduces the patched TIMELY model (Eq. 29) for the
// Figure 11 phase-margin analysis. State z = (R, g); two feedback lags:
// τ₁ = τ'(q*) and τ₂ = τ₁ + τ*, both frozen at the Eq. 31 fixed point.
type PatchedTimelyLoop struct {
	base  *timelyBase
	qStar float64
	tau1  float64
	tau2  float64
}

// NewPatchedTimelyLoop builds the reduction. It fails if the Eq. 31 fixed
// point falls outside the (C·T_low, C·T_high) gradient band, where the
// middle-branch linearisation would not apply.
func NewPatchedTimelyLoop(cfg TimelyConfig) (*PatchedTimelyLoop, error) {
	b, err := newTimelyBase(cfg, true)
	if err != nil {
		return nil, err
	}
	qStar := fixedpoint.PatchedTimelyQStar(cfg.N, cfg.Delta, cfg.Beta, cfg.C, b.qref)
	if qStar <= cfg.C*cfg.TLow || qStar >= cfg.C*cfg.THigh {
		return nil, fmt.Errorf("fluid: patched TIMELY fixed point q*=%.0fB outside gradient band (%.0f, %.0f)",
			qStar, cfg.C*cfg.TLow, cfg.C*cfg.THigh)
	}
	l := &PatchedTimelyLoop{base: b, qStar: qStar}
	l.tau1 = b.feedbackDelay(qStar)
	l.tau2 = l.tau1 + b.tauStar(cfg.C/float64(cfg.N))
	return l, nil
}

// StateDim implements stability.LoopModel.
func (l *PatchedTimelyLoop) StateDim() int { return 2 }

// Delays implements stability.LoopModel.
func (l *PatchedTimelyLoop) Delays() []float64 { return []float64{l.tau1, l.tau2} }

// RateIndex implements stability.LoopModel: R is z[0].
func (l *PatchedTimelyLoop) RateIndex() int { return 0 }

// FlowCount implements stability.LoopModel.
func (l *PatchedTimelyLoop) FlowCount() int { return l.base.cfg.N }

// Equilibrium implements stability.LoopModel via Theorem 5 / Eq. 31.
func (l *PatchedTimelyLoop) Equilibrium() ([]float64, float64, error) {
	return []float64{l.base.cfg.C / float64(l.base.cfg.N), 0}, l.qStar, nil
}

// Derivs implements stability.LoopModel: the per-flow slice of Eq. 29 with
// qd[0] = q(t-τ₁) and qd[1] = q(t-τ₂).
func (l *PatchedTimelyLoop) Derivs(z []float64, zd [][]float64, qd []float64, dzdt []float64) {
	r, g := z[0], z[1]
	ts := l.base.tauStar(r)
	dzdt[0] = l.base.patchedRate(r, g, ts, qd[0])
	dzdt[1] = l.base.gradient(g, ts, qd[0], qd[1])
}
