package fluid

import (
	"fmt"
	"math"

	"ecndelay/internal/fixedpoint"
	"ecndelay/internal/ode"
)

// DCQCNConfig configures the DCQCN fluid model of Figure 1. Params carries
// the Table 1 parameters (packets / packets-per-second units); the remaining
// fields control the simulated scenario.
type DCQCNConfig struct {
	Params fixedpoint.DCQCNParams
	// InitialRC holds per-flow initial rates. Nil means all flows start
	// at line rate, as the DCQCN spec requires.
	InitialRC []float64
	// JitterMax adds uniform [0, JitterMax) noise to the feedback delay
	// τ* each step (Figure 20). Zero disables jitter.
	JitterMax float64
	// Seed seeds the jitter generator.
	Seed int64
	// StrictRED clips the marking probability to 1 as soon as the queue
	// exceeds Kmax, exactly as Eq. 3 is written: it marks with
	// fixedpoint.REDMark, the switch's own function (netsim.REDMarker).
	// The default (false) extends the RED ramp past Kmax
	// (fixedpoint.REDMarkExtended), which is what the paper's own fixed
	// point (Eq. 9, which admits q* > Kmax) and its Figure 4 stability
	// results assume.
	StrictRED bool
	// IngressMarking models the Figure 17 ablation analytically: the
	// mark encodes the queue at packet arrival and then waits out the
	// queueing delay before travelling back, so the marking feedback lag
	// becomes τ* + q/C instead of τ*. Egress marking (the default)
	// decouples the two (§5.2).
	IngressMarking bool
}

// DCQCNSystem is the DCQCN fluid model as an ode.System. State layout:
// y[0] = queue (packets); for flow i: y[1+3i] = α_i, y[2+3i] = R_T^i,
// y[3+3i] = R_C^i (packets/s). DCQCNPISystem shifts the flows one slot to
// make room for its marking probability. It is not safe for concurrent
// use: Derivs updates the Eq. 12 memo and PostStep advances the jitter.
type DCQCNSystem struct {
	cfg      DCQCNConfig
	lineRate float64
	rmin     float64
	jit      *jitterSource
	memo     *eq12Memo // allocated by the first Derivs
	// pi, when set, replaces RED with the switch PI controller of
	// Eq. 32 (DCQCNPISystem): p is state y[1] and the flows start at
	// y[2]. off is the state index of flow 0's α.
	pi  *PIConfig
	off int
}

// eq12Memo keeps the last Eq. 12 evaluations of a DCQCN right-hand side,
// keyed on the exact bits of their inputs. Eq. 12 is a pure function of
// (Params, p, rc), so equal input bits give equal output bits: a hit
// returns what the evaluation would, and no entry ever needs
// invalidating. RK4's stages 2 and 3 run at the same t, and stage 1 of a
// step runs where stage 4 of the step before did, so without jitter they
// mostly read the same delayed p and rates: at the Fig. 4 setup NewEq12
// runs on half the calls and Terms on about two thirds of the flows. It
// also holds the delayed state, so a system that never runs (the loop
// reductions build many) carries one pointer, not the buffers.
type eq12Memo struct {
	eqOK  bool // eq has been built, for the p whose bits are pBits
	pBits uint64
	eq    fixedpoint.Eq12
	flows []flowTerms
	// delayed is the state at t − τ*, read once per right-hand side: the
	// queue (or p) and every flow's rate share that instant. The read
	// writes the components Delayed lists; the others stay zero.
	delayed []float64
}

// flowTerms is one flow's entry: Terms and AlphaTarget at the delayed rate
// whose bits are rBits, under the p whose bits are pBits. ok is false
// until the first evaluation, since zero bits are valid inputs.
type flowTerms struct {
	ok            bool
	pBits, rBits  uint64
	a, b, c, d, e float64
	target        float64
}

// NewDCQCN validates cfg and builds the system.
func NewDCQCN(cfg DCQCNConfig) (*DCQCNSystem, error) {
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	if cfg.InitialRC != nil && len(cfg.InitialRC) != cfg.Params.N {
		return nil, fmt.Errorf("fluid: len(InitialRC)=%d, want N=%d", len(cfg.InitialRC), cfg.Params.N)
	}
	// Every sender has a bottleneck-speed NIC, and the protocol minimum
	// rate is 1/1000 of it.
	s := &DCQCNSystem{cfg: cfg, lineRate: cfg.Params.C, rmin: cfg.Params.C / 1000, off: 1}
	s.jit = newJitterSource(cfg.JitterMax, cfg.Seed)
	return s, nil
}

// Dim implements ode.System.
func (s *DCQCNSystem) Dim() int { return s.off + 3*s.cfg.Params.N }

// Initial returns the initial state vector: empty queue, p = 0 under PI
// marking, α = 1 (the DCQCN initial value), R_T = R_C = line rate unless
// InitialRC overrides.
func (s *DCQCNSystem) Initial() []float64 {
	y := make([]float64, s.Dim())
	for i := 0; i < s.cfg.Params.N; i++ {
		r := s.lineRate
		if s.cfg.InitialRC != nil {
			r = s.cfg.InitialRC[i]
		}
		y[s.AlphaIndex(i)] = 1 // α starts at 1 per the DCQCN spec
		y[s.RTIndex(i)] = r
		y[s.RCIndex(i)] = r
	}
	return y
}

// QIndex returns the state index of the queue.
func (s *DCQCNSystem) QIndex() int { return 0 }

// AlphaIndex returns the state index of flow i's α.
func (s *DCQCNSystem) AlphaIndex(i int) int { return s.off + 3*i }

// RTIndex returns the state index of flow i's target rate.
func (s *DCQCNSystem) RTIndex(i int) int { return s.off + 1 + 3*i }

// RCIndex returns the state index of flow i's current rate.
func (s *DCQCNSystem) RCIndex(i int) int { return s.off + 2 + 3*i }

// Derivs implements ode.System with the Figure 1 equations.
func (s *DCQCNSystem) Derivs(t float64, y []float64, past ode.History, dydt []float64) {
	pr := &s.cfg.Params
	delay := pr.TauStar + s.jit.value()
	m := s.memo
	if m == nil {
		m = &eq12Memo{flows: make([]flowTerms, pr.N), delayed: make([]float64, s.Dim())}
		s.memo = m
	}
	d := m.delayed
	past.State(t-delay, d)

	sum := 0.0
	for i, ic := 0, s.RCIndex(0); i < pr.N; i, ic = i+1, ic+3 {
		sum += y[ic]
	}
	dq := sum - pr.C
	if y[0] <= 0 && dq < 0 {
		dq = 0
	}
	dydt[0] = dq

	var pHat float64
	if pi := s.pi; pi != nil {
		// Eq. 32 with e = q - QRef; de/dt = dq/dt. The controller's
		// output reaches the senders τ* later.
		dydt[1] = pi.K1*dq + pi.K2*(y[0]-pi.QRef)
		if y[1] <= 0 && dydt[1] < 0 || y[1] >= pi.PMax && dydt[1] > 0 {
			dydt[1] = 0
		}
		pHat = clamp(d[1], 0, 1)
	} else {
		// Delayed RED marking probability: ECN is marked on egress, so
		// the mark reflects the queue at departure and reaches the
		// sender one propagation delay later (§5.2). Eq. 3 applied to
		// q(t-τ*). With ingress marking the mark rides the packet
		// through the queue, so a mark arriving now encodes the queue at
		// its own enqueue instant s, which satisfies the FIFO relation
		// s + q(s)/C = t - τ*. That equation is monotone in s (its left
		// side grows at ΣR/C ≥ 0), so the total lag L = t - s is found
		// by bisection on h(L) = L - τ* - q(t-L)/C.
		qDelayed := d[0]
		if s.cfg.IngressMarking {
			maxLag := s.MaxDelay()
			lo, hi := delay, maxLag
			if hi-delay-past.Value(t-hi, 0)/pr.C < 0 {
				// Even the oldest history is too fresh (extreme
				// transient): saturate at the stalest available
				// observation.
				lo = hi
			}
			for i := 0; i < 50 && hi-lo > 1e-9; i++ {
				mid := lo + (hi-lo)/2
				if mid-delay-past.Value(t-mid, 0)/pr.C < 0 {
					lo = mid
				} else {
					hi = mid
				}
			}
			qDelayed = past.Value(t-(lo+(hi-lo)/2), 0)
		}
		if s.cfg.StrictRED {
			pHat = fixedpoint.REDMark(qDelayed, pr.Kmin, pr.Kmax, pr.Pmax)
		} else {
			pHat = fixedpoint.REDMarkExtended(qDelayed, pr.Kmin, pr.Kmax, pr.Pmax)
		}
	}
	s.rateDerivs(pHat, y, dydt)
}

// rateDerivs writes Eq. 5-7 for every flow under the delayed marking
// probability p, reading flow i's delayed rate from the memo's delayed
// state. Every flow sees the same p, so its share of Eq. 12 is done once;
// the memo skips any evaluation whose inputs have the bits of the last
// one.
func (s *DCQCNSystem) rateDerivs(p float64, y, dydt []float64) {
	pr := &s.cfg.Params
	off := s.off
	pBits := math.Float64bits(p)
	m := s.memo
	if !m.eqOK || m.pBits != pBits {
		m.eqOK, m.pBits, m.eq = true, pBits, fixedpoint.NewEq12(*pr, p)
	}
	for i := range m.flows {
		ia, it, ic := off+3*i, off+1+3*i, off+2+3*i
		alpha, rt, rc := y[ia], y[it], y[ic]
		rcHat := m.delayed[ic]
		f := &m.flows[i]
		if rBits := math.Float64bits(rcHat); !f.ok || f.pBits != pBits || f.rBits != rBits {
			f.ok, f.pBits, f.rBits = true, pBits, rBits
			f.a, f.b, f.c, f.d, f.e = m.eq.Terms(max(rcHat, s.rmin))
			f.target = m.eq.AlphaTarget(rcHat)
		}
		dydt[ia], dydt[it], dydt[ic] = pr.Eq57(f.a, f.b, f.c, f.d, f.e, f.target, alpha, rt, rc, rcHat)
	}
}

// PostStep implements ode.PostStepper: clamp state to the physical domain
// and refresh the per-step feedback jitter.
func (s *DCQCNSystem) PostStep(_ float64, y []float64) {
	if y[0] < 0 {
		y[0] = 0
	}
	if s.pi != nil {
		y[1] = clamp(y[1], 0, s.pi.PMax)
	}
	for i, ia := 0, s.AlphaIndex(0); i < s.cfg.Params.N; i, ia = i+1, ia+3 {
		y[ia] = clamp(y[ia], 0, 1)
		y[ia+1] = clamp(y[ia+1], s.rmin, s.lineRate)
		y[ia+2] = clamp(y[ia+2], s.rmin, s.lineRate)
	}
	s.jit.resample()
}

// Delayed lists the components Derivs reads from the history: the queue
// (p under PI marking) and every flow's current rate R_C, which Eq. 3-7
// take at t − τ*. α and R_T enter undelayed.
func (s *DCQCNSystem) Delayed() []int {
	marked := 0
	if s.pi != nil {
		marked = 1
	}
	d := make([]int, 0, 1+s.cfg.Params.N)
	d = append(d, marked)
	for i := 0; i < s.cfg.Params.N; i++ {
		d = append(d, s.RCIndex(i))
	}
	return d
}

// MaxDelay reports the largest history lag the model requests, for sizing
// the solver's history buffer.
func (s *DCQCNSystem) MaxDelay() float64 {
	d := s.cfg.Params.TauStar + s.cfg.JitterMax
	if s.cfg.IngressMarking {
		// Ingress marks lag by the queueing delay of their own packet.
		// The line-rate start transient peaks near twice the queue at
		// which the extended RED ramp saturates (p = 1), so budget 2.5x
		// that queueing delay.
		pr := s.cfg.Params
		qCap := pr.Kmin + (pr.Kmax-pr.Kmin)/pr.Pmax
		d += 2.5 * qCap / pr.C
	}
	return d
}
