package fluid

import (
	"math"

	"ecndelay/internal/fixedpoint"
	"ecndelay/internal/ode"
)

// Model is the interface all fluid systems in this package satisfy: an ODE
// system that knows its own initial state and its history: MaxDelay says
// how far back the right-hand side reads, Delayed which components it
// reads (the ode.Solver field of that name).
type Model interface {
	ode.System
	Initial() []float64
	MaxDelay() float64
	Delayed() []int
}

// Sample is one recorded point of a trajectory.
type Sample struct {
	T float64
	Y []float64 // copy of the full state
}

// Walk integrates m from 0 to t1 with step h and calls visit with the state
// every sampleEvery seconds (clamped to at least one step), the initial and
// final states included. y is the solver's own state, valid only during the
// call, so a walk holds no sample after visit returns. A NaN sampleEvery
// panics.
func Walk(m Model, h, t1, sampleEvery float64, visit func(t float64, y []float64)) {
	solver := &ode.Solver{Sys: m, H: h, MaxDelay: m.MaxDelay(), Delayed: m.Delayed(), Y0: m.Initial()}
	var step, steps, stride int
	solver.Integrate(0, t1, func(t float64, y []float64) {
		if step == 0 {
			steps, stride, _ = sampling(h, t1, sampleEvery)
		}
		if step%stride == 0 || step == steps {
			visit(t, y)
		}
		step++
	})
}

// sampling returns the steps a walk from 0 to t1 at step h takes, the
// stride between its samples in steps and the number of samples it
// visits. The stride is sampleEvery/h rounded, at least 1; it is formed in
// float64 and capped at the step count before it becomes an int, since Go
// leaves the conversion of NaN, ±Inf and out-of-range values to the
// platform. So a sampleEvery at or past the horizon, +Inf included, keeps
// the initial and final states alone. h and t1 must be values
// ode.Solver.Integrate accepts, which it checks before its first visit.
func sampling(h, t1, sampleEvery float64) (steps, stride, count int) {
	if math.IsNaN(sampleEvery) {
		panic("fluid: sampling interval sampleEvery is NaN")
	}
	n := max(math.Round(t1/h), 0)
	steps = int(n)
	stride = int(max(min(math.Round(sampleEvery/h), n), 1))
	count = steps/stride + 1
	if steps%stride != 0 {
		count++
	}
	return steps, stride, count
}

// Run is Walk that returns the recorded trajectory, a copy of the state at
// every sample. The samples share one backing array, allocated at the
// first visit, once the solver has accepted h and t1; each Y is capped at
// its own values, so an append to one sample cannot overwrite the next.
func Run(m Model, h, t1, sampleEvery float64) []Sample {
	var out []Sample
	var buf []float64
	Walk(m, h, t1, sampleEvery, func(t float64, y []float64) {
		if out == nil {
			_, _, count := sampling(h, t1, sampleEvery)
			out = make([]Sample, 0, count)
			buf = make([]float64, count*len(y))
		}
		k := len(out) * len(y)
		row := buf[k : k+len(y) : k+len(y)]
		copy(row, y)
		out = append(out, Sample{T: t, Y: row})
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
