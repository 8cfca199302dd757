package fluid

import (
	"math"

	"ecndelay/internal/fixedpoint"
	"ecndelay/internal/ode"
)

// Model is the interface all fluid systems in this package satisfy: an ODE
// system that knows its own initial state and maximum history lag.
type Model interface {
	ode.System
	Initial() []float64
	MaxDelay() float64
}

// Sample is one recorded point of a trajectory.
type Sample struct {
	T float64
	Y []float64 // copy of the full state
}

// Walk integrates m from 0 to t1 with step h and calls visit with the state
// every sampleEvery seconds (clamped to at least one step), the initial and
// final states included. y is the solver's own state, valid only during the
// call, so a walk holds no sample after visit returns.
func Walk(m Model, h, t1, sampleEvery float64, visit func(t float64, y []float64)) {
	if sampleEvery < h {
		sampleEvery = h
	}
	stride := int(math.Round(sampleEvery / h))
	solver := &ode.Solver{Sys: m, H: h, MaxDelay: m.MaxDelay(), Y0: m.Initial()}
	step := 0
	steps := int(math.Round(t1 / h))
	solver.Integrate(0, t1, func(t float64, y []float64) {
		if step%stride == 0 || step == steps {
			visit(t, y)
		}
		step++
	})
}

// Run is Walk that returns the recorded trajectory, a copy of the state at
// every sample.
func Run(m Model, h, t1, sampleEvery float64) []Sample {
	var out []Sample
	Walk(m, h, t1, sampleEvery, func(t float64, y []float64) {
		out = append(out, Sample{T: t, Y: append([]float64(nil), y...)})
	})
	return out
}

// DefaultDCQCNParams returns the [31] default parameters for n flows on a
// 40 Gb/s bottleneck with 1 KB packets, in packet units: C = 5e6 pkt/s,
// R_AI = 40 Mb/s, τ = 50 µs, τ' = T = 55 µs, B = 10 MB, F = 5,
// K_min/K_max = 5/200 KB, P_max = 1%, g = 1/256, τ* = 4 µs.
func DefaultDCQCNParams(n int) fixedpoint.DCQCNParams {
	return fixedpoint.DCQCNParams{
		N:        n,
		C:        40e9 / 8 / 1000,
		RAI:      40e6 / 8 / 1000,
		Tau:      50e-6,
		TauPrime: 55e-6,
		T:        55e-6,
		B:        10e6 / 1000,
		F:        5,
		Kmin:     5,
		Kmax:     200,
		Pmax:     0.01,
		G:        1.0 / 256,
		TauStar:  4e-6,
	}
}
