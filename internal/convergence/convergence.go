// Package convergence implements the discrete synchronised-AIMD model of
// §3.3 (Theorem 2, Appendix B): DCQCN rate updates in units of the timer
// τ', with all flows cutting together at queue-marking peaks (Figure 6/22).
//
// The model exposes the quantities the proof manipulates — the per-cycle
// peak rates, the α sequence and its fixed point α* (Eq. 42), and the
// pairwise rate gaps whose exponential decay is the theorem's content.
package convergence

import (
	"errors"
	"math"
)

// Config parameterises the discrete model. Rates are in packets per second;
// the model advances in steps of TauPrime (both the rate-increase timer T
// and the α-update interval, which the defaults of [31] set to the same
// 55 µs).
type Config struct {
	N            int
	C            float64 // bottleneck capacity, packets/s
	RAI          float64 // additive increase per time unit, packets/s
	G            float64 // DCTCP gain g
	QECN         float64 // queue level that triggers a synchronised mark, packets
	TauPrime     float64 // time unit, s
	InitialRates []float64
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.N <= 0:
		return errors.New("convergence: N must be positive")
	case c.C <= 0 || c.RAI <= 0:
		return errors.New("convergence: C and RAI must be positive")
	case c.G <= 0 || c.G >= 1:
		return errors.New("convergence: g must be in (0,1)")
	case c.QECN <= 0:
		return errors.New("convergence: QECN must be positive")
	case c.TauPrime <= 0:
		return errors.New("convergence: TauPrime must be positive")
	case c.InitialRates != nil && len(c.InitialRates) != c.N:
		return errors.New("convergence: len(InitialRates) != N")
	}
	return nil
}

// Default returns the model at the [31] defaults on a 40 Gb/s link with
// 1 KB packets and a 200-packet marking threshold.
func Default(n int) Config {
	return Config{
		N:        n,
		C:        5e6,
		RAI:      5e3,
		G:        1.0 / 256,
		QECN:     200,
		TauPrime: 55e-6,
	}
}

// Cycle records the state at one synchronised marking peak T_k.
type Cycle struct {
	// Time is the peak time in seconds.
	Time float64
	// DeltaT is the cycle length ΔT_k in τ' units.
	DeltaT int
	// Rates are the per-flow peak rates R_C(T_k).
	Rates []float64
	// Alphas are the per-flow α(T_k) just before the cut.
	Alphas []float64
	// MaxGap is max_{i,j} |R_C^i - R_C^j| at the peak.
	MaxGap float64
	// AlphaGap is max_{i,j} |α^i - α^j| at the peak.
	AlphaGap float64
}

// Run simulates the discrete model until the requested number of marking
// cycles have completed and returns one record per cycle.
func Run(cfg Config, cycles int) ([]Cycle, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.N
	rc := make([]float64, n)
	rt := make([]float64, n)
	alpha := make([]float64, n)
	for i := range rc {
		r := cfg.C // line-rate start per the DCQCN spec
		if cfg.InitialRates != nil {
			r = cfg.InitialRates[i]
		}
		rc[i] = r
		rt[i] = r
		alpha[i] = 1 // the DCQCN initial value
	}

	var out []Cycle
	q := 0.0
	step := 0
	sinceCut := 0
	maxSteps := cycles*100000 + 100000 // hard bound against degenerate configs
	for len(out) < cycles && step < maxSteps {
		sum := 0.0
		for i := range rc {
			sum += rc[i]
		}
		q += (sum - cfg.C) * cfg.TauPrime
		if q < 0 {
			q = 0
		}
		if q >= cfg.QECN {
			// Synchronised mark: record the peak, then every flow cuts
			// (Eq. 1 with the footnote-3 simplification R_T = R_C).
			cyc := Cycle{
				Time:   float64(step) * cfg.TauPrime,
				DeltaT: sinceCut,
				Rates:  append([]float64(nil), rc...),
				Alphas: append([]float64(nil), alpha...),
			}
			cyc.MaxGap = spread(rc)
			cyc.AlphaGap = spread(alpha)
			out = append(out, cyc)
			// Footnote 3 simplification: R_T is reset to the post-cut
			// R_C, so recovery does not reopen the pre-cut gap and
			// Eq. 15 holds: R_T(T_{k+1}) = (1-α/2)R_C(T_k) + (ΔT-1)R_AI.
			for i := range rc {
				rc[i] *= 1 - alpha[i]/2
				rt[i] = rc[i]
				alpha[i] = (1-cfg.G)*alpha[i] + cfg.G
			}
			q = 0
			sinceCut = 0
		} else {
			// One unit of additive increase (Eq. 35-36) and α decay
			// (Eq. 2: no feedback in this τ' interval).
			for i := range rc {
				rt[i] += cfg.RAI
				rc[i] = (rc[i] + rt[i]) / 2
				if rc[i] > cfg.C*float64(n) {
					rc[i] = cfg.C * float64(n)
				}
				alpha[i] *= 1 - cfg.G
			}
			sinceCut++
		}
		step++
	}
	if len(out) < cycles {
		return out, errors.New("convergence: model did not reach the requested number of cycles")
	}
	return out, nil
}

func spread(xs []float64) float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return hi - lo
}

// AlphaFixedPoint solves Eq. 42, α* = (1-g)^{ΔT*}((1-g)α* + g), jointly
// with the cycle-length estimate of Eq. 40-41, by fixed-point iteration.
// It returns α* and the corresponding ΔT* (in τ' units).
func AlphaFixedPoint(cfg Config) (alphaStar float64, deltaTStar float64, err error) {
	if err := cfg.Validate(); err != nil {
		return 0, 0, err
	}
	// Eq. 41: t ≤ (−1 + sqrt(1 + 8·K/(N·R_AI·τ')))/2, the ramp time from
	// ΣR = C to the queue reaching the marking threshold.
	tRamp := (-1 + math.Sqrt(1+8*cfg.QECN/(float64(cfg.N)*cfg.RAI*cfg.TauPrime))) / 2
	alpha := 1.0
	for iter := 0; iter < 10000; iter++ {
		// Eq. 40: ΔT = 2 + (t/2 + C/(2N R_AI)) α.
		dt := 2 + (tRamp/2+cfg.C/(2*float64(cfg.N)*cfg.RAI))*alpha
		next := math.Pow(1-cfg.G, dt) * ((1-cfg.G)*alpha + cfg.G)
		if math.Abs(next-alpha) < 1e-14 {
			return next, 2 + (tRamp/2+cfg.C/(2*float64(cfg.N)*cfg.RAI))*next, nil
		}
		alpha = next
	}
	return 0, 0, errors.New("convergence: α* iteration did not converge")
}

// GapDecayRate fits the per-cycle geometric decay factor of the peak rate
// gap over the given cycles (ignoring cycles whose gap is already below
// floor, where float noise dominates). A value well below 1 demonstrates
// Theorem 2's exponential convergence.
func GapDecayRate(cycles []Cycle, floor float64) float64 {
	var ratios []float64
	for i := 1; i < len(cycles); i++ {
		prev, cur := cycles[i-1].MaxGap, cycles[i].MaxGap
		if prev <= floor || cur <= floor {
			continue
		}
		ratios = append(ratios, cur/prev)
	}
	if len(ratios) == 0 {
		return 0
	}
	// Geometric mean.
	s := 0.0
	for _, r := range ratios {
		s += math.Log(r)
	}
	return math.Exp(s / float64(len(ratios)))
}
