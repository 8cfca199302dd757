// Package fluid implements the delay-differential fluid models the paper
// analyses:
//
//   - DCQCN (Figure 1, Eq. 3-7), per-flow states, extended as in §3.1 to
//     flows with unequal rates;
//   - TIMELY (Figure 7, Eq. 20-24), including the original Algorithm 1
//     sign convention and the Eq. 28 variant;
//   - Patched TIMELY (Algorithm 2, Eq. 29-30);
//   - DCQCN with a PI marking controller at the switch (Eq. 32, Fig. 18);
//   - Patched TIMELY with an end-host PI controller (Fig. 19).
//
// Each PI model is its base system with the controller switched on, and
// loop.go reduces the DCQCN and patched TIMELY models to the per-flow
// loops the stability analysis linearises (one DCQCN loop: ingress
// marking is a second lag). The laws have one implementation each, which
// every model, loop and the hybrid background aggregate call: Eq. 3 is
// REDMark/REDMarkExtended, Eq. 5-7 fixedpoint's DCQCNParams.Eq57, Eq. 22
// and the Eq. 29 middle branch the TIMELY base's gradient and patchedRate,
// Eq. 24 its feedbackDelay and Eq. 31 fixedpoint.PatchedTimelyQStar.
//
// Unit conventions: the DCQCN models work in packets and packets/second
// (matching the per-packet marking probability); the TIMELY models work in
// bytes and bytes/second (matching the paper's KB segments and Gb/s rates).
// Time is always seconds.
//
// Every model implements ode.System (plus ode.PostStepper for clamping), so
// they integrate with the solver in internal/ode. Optional uniform feedback
// jitter reproduces the Figure 20 experiment.
package fluid

import (
	"math/rand"
)

// REDMark is the RED-like marking profile of Eq. 3: zero below kmin, a
// linear ramp to pmax at kmax, and 1 beyond.
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

// REDMarkExtended is the marking profile with the ramp extended past kmax
// (capped at probability 1). The paper's fixed point Eq. 9 admits q* > Kmax
// (e.g. 64 flows at the default parameters), which is only consistent with
// the ramp continuing past Kmax; the fluid model therefore uses this form by
// default, while the packet-level switch implements the strict Eq. 3.
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

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// jitterSource produces per-step frozen uniform jitter in [0, max). Two
// independent draws are kept per step because the TIMELY gradient compares
// two RTT samples, each carrying its own feedback-path jitter. A zero max
// always yields zeros.
type jitterSource struct {
	max float64
	rng *rand.Rand
	cur [2]float64
}

func newJitterSource(max float64, seed int64) *jitterSource {
	js := &jitterSource{max: max}
	if max > 0 {
		js.rng = rand.New(rand.NewSource(seed))
		js.resample()
	}
	return js
}

func (js *jitterSource) resample() {
	if js.rng != nil {
		js.cur[0] = js.rng.Float64() * js.max
		js.cur[1] = js.rng.Float64() * js.max
	}
}

// value returns the first jitter draw frozen for the current step.
func (js *jitterSource) value() float64 { return js.cur[0] }

// pair returns both per-step draws.
func (js *jitterSource) pair() (float64, float64) { return js.cur[0], js.cur[1] }
