package fluid

import (
	"errors"
	"fmt"

	"ecndelay/internal/fixedpoint"
	"ecndelay/internal/ode"
)

// TimelyConfig configures the TIMELY fluid model of Figure 7 (and, via
// NewPatchedTimely, the patched model of Eq. 29). Units: bytes and
// bytes/second, matching the paper's KB segments and Gb/s link rates.
//
// The paper's recommended values (footnote 4): C = 10 Gb/s, β = 0.8,
// EWMA α = 0.875, T_low = 50 µs, T_high = 500 µs, D_minRTT = 20 µs,
// δ = 10 Mb/s. Patched TIMELY changes only β, to 0.008.
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
	Seg          float64 // burst size per completion event, bytes
	InitialRates []float64
	// StartTimes staggers flow activation (Figure 9b). Nil means all
	// flows start at t=0. A flow contributes no traffic before its start.
	StartTimes []float64
	// JitterMax adds uniform [0, JitterMax) noise to the feedback delay
	// τ' each step (Figure 20).
	JitterMax float64
	Seed      int64
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
	case c.Seg <= 0:
		return errors.New("timely config: Seg must be positive")
	case c.InitialRates != nil && len(c.InitialRates) != c.N:
		return fmt.Errorf("timely config: len(InitialRates)=%d, want N=%d", len(c.InitialRates), c.N)
	case c.StartTimes != nil && len(c.StartTimes) != c.N:
		return fmt.Errorf("timely config: len(StartTimes)=%d, want N=%d", len(c.StartTimes), c.N)
	}
	return nil
}

// timelyMTU is the packet size in bytes whose serialisation time MTU/C
// Eq. 24's feedback delay τ' adds to the queueing and propagation delays.
const timelyMTU = 1000

// DefaultTimelyConfig returns the footnote-4 parameters for n flows on a
// 10 Gb/s bottleneck with 16 KB segments.
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
		Seg:     16000,
	}
}

// DefaultPatchedTimelyConfig returns the §4.3 parameters: identical to
// TIMELY except β = 0.008.
func DefaultPatchedTimelyConfig(n int) TimelyConfig {
	c := DefaultTimelyConfig(n)
	c.Beta = 0.008
	return c
}

// timelyBase holds the machinery shared by the original, patched and
// host-PI models. State layout: y[0] = queue (bytes); flow i:
// y[1+2i] = R_i (bytes/s), y[2+2i] = g_i (dimensionless RTT gradient).
// The host-PI model gives each flow a third slot, p_i (stride 3).
type timelyBase struct {
	cfg      TimelyConfig
	lineRate float64
	rmin     float64
	jit      *jitterSource
	started  []bool
	patched  bool
	qref     float64
	// pi, when set, is the end-host controller of Eq. 32 (TimelyPISystem):
	// flow i's output p_i sits after its gradient and replaces (q-q')/q'
	// in the Eq. 29 middle branch.
	pi     *PIConfig
	stride int // state slots per flow
}

func newTimelyBase(cfg TimelyConfig, patched bool) (*timelyBase, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// Every NIC runs at the bottleneck rate C, and the patched reference
	// queue q' is C·T_low (Algorithm 2 line 11), the paper's choice.
	b := &timelyBase{cfg: cfg, patched: patched, lineRate: cfg.C, rmin: cfg.C / 1e4, qref: cfg.C * cfg.TLow, stride: 2}
	b.jit = newJitterSource(cfg.JitterMax, cfg.Seed)
	b.started = make([]bool, cfg.N)
	return b, nil
}

// Dim implements ode.System.
func (b *timelyBase) Dim() int { return 1 + b.stride*b.cfg.N }

// QIndex returns the state index of the queue.
func (b *timelyBase) QIndex() int { return 0 }

// RateIndex returns the state index of flow i's rate.
func (b *timelyBase) RateIndex(i int) int { return 1 + b.stride*i }

// Initial returns the initial state. Flows default to the C/N "new flow"
// start rate of [21] unless InitialRates overrides; flows with a future
// start time hold rate 0 until activation. Gradients and PI outputs start
// at 0.
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
	return q/b.cfg.C + timelyMTU/b.cfg.C + b.cfg.DProp
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

// gradient is Eq. 22: dg/dt for a flow with gradient g and update
// interval ts, given the two queue observations qd and qd2 one completion
// event (τ* = ts) apart. The RTT difference between the events is the
// queue change divided by C, normalised by D_minRTT.
func (b *timelyBase) gradient(g, ts, qd, qd2 float64) float64 {
	return b.cfg.EWMA / ts * (-g + (qd-qd2)/(b.cfg.C*b.cfg.DminRTT))
}

// patchedRate is the middle branch of Eq. 29 with the Eq. 30 weight: dR/dt
// for a flow at rate r with gradient g and update interval ts, which
// observes queue qd against the reference q'.
func (b *timelyBase) patchedRate(r, g, ts, qd float64) float64 {
	w := fixedpoint.PatchedWeight(g)
	return (1-w)*b.cfg.Delta/ts - w*b.cfg.Beta*r/ts*(qd-b.qref)/b.qref
}

// Derivs implements the shared queue and gradient dynamics, dispatching the
// rate law to original (Eq. 21) or patched (Eq. 29) form; hostPI then
// adds the host-PI model's controller.
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

	stride := b.stride
	sampled := false
	var tauP, qd float64
	for i, ri := 0, b.RateIndex(0); i < cfg.N; i, ri = i+1, ri+stride {
		gi := ri + 1
		if !b.active(i, t) {
			clear(dydt[ri : ri+stride])
			continue
		}
		r := y[ri]
		g := y[gi]
		ts := b.tauStar(r)
		if !sampled {
			sampled = true
			tauP, qd = b.recentQueue(t, y[0], past)
		}
		qd2 := b.olderQueue(t, tauP, ts, past)
		dydt[gi] = b.gradient(g, ts, qd, qd2)

		switch {
		case qd < cfg.C*cfg.TLow:
			dydt[ri] = cfg.Delta / ts
		case qd > cfg.C*cfg.THigh:
			dydt[ri] = -cfg.Beta / ts * (1 - cfg.C*cfg.THigh/qd) * r
		case b.patched:
			dydt[ri] = b.patchedRate(r, g, ts, qd)
		case g < 0:
			dydt[ri] = cfg.Delta / ts
		default:
			// Eq. 28: a zero gradient decreases (by nothing), the
			// convention under which the model has infinitely many fixed
			// points (Theorem 4).
			dydt[ri] = -g * cfg.Beta / ts * r
		}
	}
	if b.pi != nil && sampled {
		b.hostPI(t, tauP, qd, y, past, dydt)
	}
}

// hostPI adds the end-host PI controller (Eq. 32) to the derivatives
// Derivs wrote: each active flow's p_i integrates its queueing-delay
// error, and in the Eq. 29 middle band p_i replaces (q-q')/q'. It reads
// the same queue observations as Derivs, so the results are the same as
// in one pass; a pass of its own keeps the PI checks out of the per-flow
// loop the original and patched models run (with them inside, the
// patched model ran about 6% slower on the benchmark's fluid_dde
// workload, 2-vCPU Xeon host). The controller runs once per completion
// event, so its integral action scales with the flow's own update rate
// 1/τ*_i — this per-flow sampling asymmetry is what lets the individual
// integrators settle at different values (Theorem 6: delay can be
// pinned, fairness cannot).
func (b *timelyBase) hostPI(t, tauP, qd float64, y []float64, past ode.History, dydt []float64) {
	cfg, pi := &b.cfg, b.pi
	mid := !(qd < cfg.C*cfg.TLow || qd > cfg.C*cfg.THigh)
	for i, ri := 0, b.RateIndex(0); i < cfg.N; i, ri = i+1, ri+b.stride {
		if !b.active(i, t) {
			continue
		}
		r, g, p := y[ri], y[ri+1], y[ri+2]
		ts := b.tauStar(r)
		qd2 := b.olderQueue(t, tauP, ts, past)
		e := qd/cfg.C - pi.QRef/cfg.C // measured queueing delay - reference
		dedt := (qd - qd2) / ts / cfg.C
		dydt[ri+2] = pi.K1*dedt + pi.K2*e*(cfg.DminRTT/ts)
		if mid {
			w := fixedpoint.PatchedWeight(g)
			dydt[ri] = (1-w)*cfg.Delta/ts - w*cfg.Beta*r/ts*p
		}
	}
}

// PostStep implements ode.PostStepper.
func (b *timelyBase) PostStep(t float64, y []float64) {
	if y[0] < 0 {
		y[0] = 0
	}
	pi, stride := b.pi, b.stride
	for i, ri := 0, b.RateIndex(0); i < b.cfg.N; i, ri = i+1, ri+stride {
		if !b.active(i, t) {
			clear(y[ri : ri+stride])
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
			y[ri] = r
		}
		y[ri] = clamp(y[ri], b.rmin, b.lineRate)
		y[ri+1] = clamp(y[ri+1], -100, 100)
		if pi != nil {
			y[ri+2] = clamp(y[ri+2], -10, 100)
		}
	}
	b.jit.resample()
}

// Delayed lists the components Derivs reads from the history: the queue
// alone, which Eq. 22-24 take at t − τ' and t − τ' − τ*. Rates, gradients
// and PI outputs enter undelayed.
func (b *timelyBase) Delayed() []int { return []int{0} }

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
	return fixedpoint.PatchedTimelyQStar(p.cfg.N, p.cfg.Delta, p.cfg.Beta, p.cfg.C, p.qref)
}
