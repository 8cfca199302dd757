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
// every model, loop and the hybrid background aggregate call. This package
// holds the ones only the fluid layer runs: Eq. 22 and the Eq. 29 middle
// branch are the TIMELY base's gradient and patchedRate, and Eq. 24 its
// feedbackDelay. The laws the packet layer or the fixed point share live
// in fixedpoint: Eq. 3 (REDMark, REDMarkExtended), Eq. 5-7
// (DCQCNParams.Eq57), Eq. 30 (PatchedWeight) and Eq. 31
// (PatchedTimelyQStar).
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
