package fluid

import (
	"errors"
	"fmt"

	"ecndelay/internal/ode"
)

// TimelyConfig configures the TIMELY fluid model of Figure 7 (and, via
// NewPatchedTimely, the patched model of Eq. 29). Units: bytes and
// bytes/second, matching the paper's KB segments and Gb/s link rates.
//
// The paper's recommended values (footnote 4): C = 10 Gb/s, β = 0.8,
// EWMA α = 0.875, T_low = 50 µs, T_high = 500 µs, D_minRTT = 20 µs,
// δ = 10 Mb/s. Patched TIMELY changes β to 0.008 and Seg to 16 KB.
type TimelyConfig struct {
	N            int     // flows at the bottleneck
	C            float64 // bottleneck bandwidth, bytes/s
	EWMA         float64 // α in Algorithm 1 line 3
	Beta         float64 // multiplicative decrease factor β
	Delta        float64 // additive increase step δ, bytes/s
	TLow         float64 // low RTT threshold, s
	THigh        float64 // high RTT threshold, s
	DminRTT      float64 // normalisation / minimum update interval, s
	DProp        float64 // propagation delay, s
	MTU          float64 // bytes
	Seg          float64 // burst size per completion event, bytes
	LineRate     float64 // per-NIC clamp; zero means C
	InitialRates []float64
	// StartTimes staggers flow activation (Figure 9b). Nil means all
	// flows start at t=0. A flow contributes no traffic before its start.
	StartTimes []float64
	// StrictZeroIncrease selects the original Algorithm 1 line 9
	// (gradient <= 0 → additive increase), the convention under which
	// Theorem 3 shows the model has no fixed point. False selects the
	// Eq. 28 variant (gradient >= 0 → multiplicative decrease), which has
	// infinitely many fixed points (Theorem 4). The trajectories are
	// indistinguishable in practice; the flag exists so both theorems can
	// be exercised.
	StrictZeroIncrease bool
	// JitterMax adds uniform [0, JitterMax) noise to the feedback delay
	// τ' each step (Figure 20).
	JitterMax float64
	Seed      int64
	// RTTRef is the patched-TIMELY reference RTT (Algorithm 2 line 11)
	// expressed as the reference queue q' in bytes. Zero means C·T_low,
	// the paper's choice.
	QRef float64
}

// Validate reports configuration errors.
func (c TimelyConfig) Validate() error {
	switch {
	case c.N <= 0:
		return errors.New("timely config: N must be positive")
	case c.C <= 0, c.Delta <= 0:
		return errors.New("timely config: C and Delta must be positive")
	case c.EWMA <= 0 || c.EWMA > 1:
		return errors.New("timely config: EWMA must be in (0,1]")
	case c.Beta <= 0 || c.Beta >= 1:
		return errors.New("timely config: Beta must be in (0,1)")
	case c.TLow < 0 || c.THigh <= c.TLow:
		return errors.New("timely config: need 0 <= TLow < THigh")
	case c.DminRTT <= 0:
		return errors.New("timely config: DminRTT must be positive")
	case c.MTU <= 0 || c.Seg <= 0:
		return errors.New("timely config: MTU and Seg must be positive")
	case c.InitialRates != nil && len(c.InitialRates) != c.N:
		return fmt.Errorf("timely config: len(InitialRates)=%d, want N=%d", len(c.InitialRates), c.N)
	case c.StartTimes != nil && len(c.StartTimes) != c.N:
		return fmt.Errorf("timely config: len(StartTimes)=%d, want N=%d", len(c.StartTimes), c.N)
	}
	return nil
}

// DefaultTimelyConfig returns the footnote-4 parameters for n flows on a
// 10 Gb/s bottleneck with per-packet (MTU-sized segment) pacing.
func DefaultTimelyConfig(n int) TimelyConfig {
	c := 10e9 / 8.0 // bytes/s
	return TimelyConfig{
		N: n, C: c,
		EWMA:    0.875,
		Beta:    0.8,
		Delta:   10e6 / 8.0,
		TLow:    50e-6,
		THigh:   500e-6,
		DminRTT: 20e-6,
		DProp:   4e-6,
		MTU:     1000,
		Seg:     16000,
	}
}

// DefaultPatchedTimelyConfig returns the §4.3 parameters: identical to
// TIMELY except β = 0.008 and Seg = 16 KB.
func DefaultPatchedTimelyConfig(n int) TimelyConfig {
	c := DefaultTimelyConfig(n)
	c.Beta = 0.008
	c.Seg = 16000
	return c
}

// timelyBase holds the machinery shared by the original and patched models.
// State layout: y[0] = queue (bytes); flow i: y[1+2i] = R_i (bytes/s),
// y[2+2i] = g_i (dimensionless RTT gradient).
type timelyBase struct {
	cfg      TimelyConfig
	lineRate float64
	rmin     float64
	jit      *jitterSource
	started  []bool
	patched  bool
	qref     float64
}

func newTimelyBase(cfg TimelyConfig, patched bool) (*timelyBase, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	b := &timelyBase{cfg: cfg, patched: patched}
	b.lineRate = cfg.LineRate
	if b.lineRate == 0 {
		b.lineRate = cfg.C
	}
	b.rmin = b.lineRate / 1e4
	b.jit = newJitterSource(cfg.JitterMax, cfg.Seed)
	b.started = make([]bool, cfg.N)
	b.qref = cfg.QRef
	if b.qref == 0 {
		b.qref = cfg.C * cfg.TLow
	}
	return b, nil
}

// Dim implements ode.System.
func (b *timelyBase) Dim() int { return 1 + 2*b.cfg.N }

// QIndex returns the state index of the queue.
func (b *timelyBase) QIndex() int { return 0 }

// RateIndex returns the state index of flow i's rate.
func (b *timelyBase) RateIndex(i int) int { return 1 + 2*i }

// GradIndex returns the state index of flow i's RTT gradient.
func (b *timelyBase) GradIndex(i int) int { return 2 + 2*i }

// Initial returns the initial state. Flows default to the C/N "new flow"
// start rate of [21] unless InitialRates overrides; flows with a future
// start time hold rate 0 until activation.
func (b *timelyBase) Initial() []float64 {
	y := make([]float64, b.Dim())
	for i := 0; i < b.cfg.N; i++ {
		r := b.cfg.C / float64(b.cfg.N)
		if b.cfg.InitialRates != nil {
			r = b.cfg.InitialRates[i]
		}
		if b.cfg.StartTimes != nil && b.cfg.StartTimes[i] > 0 {
			r = 0
		}
		y[b.RateIndex(i)] = r
		b.started[i] = !(b.cfg.StartTimes != nil && b.cfg.StartTimes[i] > 0)
	}
	return y
}

func (b *timelyBase) active(i int, t float64) bool {
	return b.cfg.StartTimes == nil || t >= b.cfg.StartTimes[i]
}

// tauStar is the per-flow rate-update interval of Eq. 23.
func (b *timelyBase) tauStar(r float64) float64 {
	if r < b.rmin {
		r = b.rmin
	}
	ts := b.cfg.Seg / r
	if ts < b.cfg.DminRTT {
		ts = b.cfg.DminRTT
	}
	return ts
}

// feedbackDelay is τ' of Eq. 24 evaluated at the current queue, as the
// paper writes it. The lookup time t − τ'(t) then advances at
// 1 − q'(t)/C = (2C − ΣR)/C, so while ΣR > 2C it runs backward: a run that
// starts there reads every delayed queue from the initial history, sees
// the initial queue, and has no feedback until ΣR falls below 2C. From
// start rates of several C it may never fall: rates climb to line rate
// and the queue grows without bound. A packet FIFO has no such regime:
// the delay a sample carries is q(s)/C at its enqueue instant s, and
// s + q(s)/C never decreases (the relation DCQCNConfig.IngressMarking
// solves for the marking lag).
func (b *timelyBase) feedbackDelay(q float64) float64 {
	if q < 0 {
		q = 0
	}
	return q/b.cfg.C + b.cfg.MTU/b.cfg.C + b.cfg.DProp
}

// recentQueue returns τ' at queue q and q(t-τ'), the newer of the two
// delayed queue observations the TIMELY gradient needs; olderQueue gives
// the other. Feedback jitter both delays each sample and — unlike for ECN
// — adds directly to the measured RTT, so each observation is inflated by
// jitter·C bytes of apparent queue (§5.2: "for delay based schemes you
// have delayed AND noisy feedback"). Both results are the same for every
// flow at one t, so a right-hand side reads them once.
func (b *timelyBase) recentQueue(t, q float64, past ode.History) (tauP, qd float64) {
	tauP = b.feedbackDelay(q)
	j1, _ := b.jit.pair()
	return tauP, past.Value(t-tauP-j1, 0) + j1*b.cfg.C
}

// olderQueue returns q(t-τ'-τ*), the observation one update interval ts
// before recentQueue's. It depends on the flow's own τ*.
func (b *timelyBase) olderQueue(t, tauP, ts float64, past ode.History) float64 {
	_, j2 := b.jit.pair()
	return past.Value(t-tauP-j2-ts, 0) + j2*b.cfg.C
}

// Derivs implements the shared queue and gradient dynamics, dispatching the
// rate law to original (Eq. 21) or patched (Eq. 29) form.
func (b *timelyBase) Derivs(t float64, y []float64, past ode.History, dydt []float64) {
	cfg := &b.cfg
	sum := 0.0
	for i := 0; i < cfg.N; i++ {
		if b.active(i, t) {
			sum += y[b.RateIndex(i)]
		}
	}
	dq := sum - cfg.C
	if y[0] <= 0 && dq < 0 {
		dq = 0
	}
	dydt[0] = dq

	sampled := false
	var tauP, qd float64
	for i := 0; i < cfg.N; i++ {
		ri := b.RateIndex(i)
		gi := b.GradIndex(i)
		if !b.active(i, t) {
			dydt[ri] = 0
			dydt[gi] = 0
			continue
		}
		r := y[ri]
		g := y[gi]
		ts := b.tauStar(r)

		// Eq. 22: EWMA of the normalised RTT difference. The RTT diff
		// between consecutive completion events (τ* apart) is the queue
		// change over that window divided by C, normalised by D_minRTT.
		if !sampled {
			sampled = true
			tauP, qd = b.recentQueue(t, y[0], past)
		}
		qd2 := b.olderQueue(t, tauP, ts, past)
		dydt[gi] = cfg.EWMA / ts * (-g + (qd-qd2)/(cfg.C*cfg.DminRTT))

		switch {
		case qd < cfg.C*cfg.TLow:
			dydt[ri] = cfg.Delta / ts
		case qd > cfg.C*cfg.THigh:
			dydt[ri] = -cfg.Beta / ts * (1 - cfg.C*cfg.THigh/qd) * r
		default:
			if b.patched {
				// Eq. 29 middle branch with the Eq. 30 weight.
				w := PatchedWeight(g)
				dydt[ri] = (1-w)*cfg.Delta/ts - w*cfg.Beta*r/ts*(qd-b.qref)/b.qref
			} else {
				increase := g < 0 || (b.cfg.StrictZeroIncrease && g == 0)
				if increase {
					dydt[ri] = cfg.Delta / ts
				} else {
					dydt[ri] = -g * cfg.Beta / ts * r
				}
			}
		}
	}
}

// PostStep implements ode.PostStepper.
func (b *timelyBase) PostStep(t float64, y []float64) {
	if y[0] < 0 {
		y[0] = 0
	}
	for i := 0; i < b.cfg.N; i++ {
		if !b.active(i, t) {
			y[b.RateIndex(i)] = 0
			y[b.GradIndex(i)] = 0
			continue
		}
		if !b.started[i] {
			// Activation: late flows start at C/(N+1) per [21], or at
			// the configured initial rate.
			b.started[i] = true
			r := b.cfg.C / float64(b.cfg.N+1)
			if b.cfg.InitialRates != nil && b.cfg.InitialRates[i] > 0 {
				r = b.cfg.InitialRates[i]
			}
			y[b.RateIndex(i)] = r
		}
		y[b.RateIndex(i)] = clamp(y[b.RateIndex(i)], b.rmin, b.lineRate)
		y[b.GradIndex(i)] = clamp(y[b.GradIndex(i)], -100, 100)
	}
	b.jit.resample()
}

// MaxDelay bounds the history lag: τ' at a 16 MB queue plus one update
// interval at minimum rate. The 16 MB is a lag budget, not a buffer
// limit, and runs do pass it: while ΣR > 2C the queue grows without bound
// (patched runs from start rates of 5–7 C end near 200 MB after 20 ms),
// but a run that starts there reads only the initial history (see
// feedbackDelay). A run whose queue passes 16 MB while it reads stored
// history can ask for a lag past this bound, on which the solver panics
// once its ring has wrapped.
func (b *timelyBase) MaxDelay() float64 {
	maxQ := 16e6
	return b.feedbackDelay(maxQ) + b.cfg.Seg/b.rmin + b.cfg.JitterMax
}

// TimelySystem is the original TIMELY fluid model (Figure 7).
type TimelySystem struct{ timelyBase }

// NewTimely validates cfg and builds the original TIMELY model.
func NewTimely(cfg TimelyConfig) (*TimelySystem, error) {
	b, err := newTimelyBase(cfg, false)
	if err != nil {
		return nil, err
	}
	return &TimelySystem{*b}, nil
}

// PatchedTimelySystem is the patched TIMELY model (Eq. 29-30).
type PatchedTimelySystem struct{ timelyBase }

// NewPatchedTimely validates cfg and builds the patched model.
func NewPatchedTimely(cfg TimelyConfig) (*PatchedTimelySystem, error) {
	b, err := newTimelyBase(cfg, true)
	if err != nil {
		return nil, err
	}
	return &PatchedTimelySystem{*b}, nil
}

// FixedPointQueue returns the Eq. 31 steady-state queue for the patched
// model, in bytes.
func (p *PatchedTimelySystem) FixedPointQueue() float64 {
	n := float64(p.cfg.N)
	return n*p.cfg.Delta*p.qref/(p.cfg.Beta*p.cfg.C) + p.qref
}

// PatchedWeight is the Eq. 30 rate-decrease weight: a linear ramp from 0 to
// 1 over gradient in [-1/4, 1/4].
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
