// Package ecndelay is a from-scratch Go reproduction of "ECN or Delay:
// Lessons Learnt from Analysis of DCQCN and TIMELY" (Zhu, Ghobadi, Misra,
// Padhye — CoNEXT 2016).
//
// The module contains every system the paper builds on:
//
//   - the delay-differential fluid models of DCQCN (Fig. 1), TIMELY
//     (Fig. 7), patched TIMELY (Eq. 29-30) and their PI-controller variants
//     (Eq. 32), on a purpose-built RK4 solver with dense delay history;
//   - the fixed-point theory (Theorems 1 and 5, Eq. 9-14 and 31) and the
//     discrete convergence model of Theorem 2;
//   - the control-theoretic stability analysis (Appendix A): numeric
//     linearisation, Laplace-domain loop transfer functions, Bode phase
//     margins;
//   - an NS3-analogous deterministic packet-level simulator: switches with
//     shared-buffer egress/ingress ECN marking, PFC, PI AQM, and full
//     DCQCN (RP/NP/CP) and TIMELY (per-packet and per-burst pacing)
//     endpoints;
//   - the §5.1 workload generator (DCTCP web-search flow sizes, Poisson
//     arrivals) and flow-completion-time harness;
//   - one registered, runnable experiment per table and figure in the
//     paper's evaluation (see Runners).
//
// The implementation lives in internal/ packages, which the commands in
// cmd/ drive directly. This root package is the small public door for
// outside callers: the fluid models, the Theorem 1 and Eq. 31 fixed
// points, the Theorem 2 convergence model, the phase-margin analysis, a
// DCQCN star network, the FCT harness with its workload and statistics,
// and the experiment registry. See DESIGN.md for the system inventory and
// EXPERIMENTS.md for the paper-versus-measured record.
//
// # Quick start
//
//	sys, err := ecndelay.NewDCQCNFluid(ecndelay.DCQCNFluidConfig{
//		Params: ecndelay.DefaultDCQCNParams(2),
//	})
//	if err != nil { ... }
//	trajectory := ecndelay.RunFluid(sys, 1e-6, 0.1, 1e-4)
//
// runs the two-flow DCQCN fluid model for 100 ms. See examples/ for
// runnable programs covering the fluid models, the stability analysis, the
// packet simulator, and the FCT benchmark.
package ecndelay

import (
	"ecndelay/internal/convergence"
	"ecndelay/internal/dcqcn"
	"ecndelay/internal/des"
	"ecndelay/internal/exp"
	"ecndelay/internal/fixedpoint"
	"ecndelay/internal/fluid"
	"ecndelay/internal/netsim"
	"ecndelay/internal/stability"
	"ecndelay/internal/stats"
	"ecndelay/internal/workload"
)

// ---- Simulation time ----

// Time is an absolute simulation time in nanoseconds; Duration a span.
type (
	Time     = des.Time
	Duration = des.Duration
)

// Re-exported duration units.
const (
	Microsecond = des.Microsecond
	Millisecond = des.Millisecond
)

// ---- Fluid models (Figures 1 and 7, Eq. 29-30) ----

// Fluid model configuration and system types.
type (
	// DCQCNParams are the Table 1 parameters in packet units.
	DCQCNParams = fixedpoint.DCQCNParams
	// DCQCNFluidConfig configures the DCQCN fluid model.
	DCQCNFluidConfig = fluid.DCQCNConfig
	// DCQCNFluid is the Figure 1 model as an integrable system.
	DCQCNFluid = fluid.DCQCNSystem
	// TimelyFluidConfig configures the TIMELY fluid models (Table 2).
	TimelyFluidConfig = fluid.TimelyConfig
	// TimelyFluid is the Figure 7 model.
	TimelyFluid = fluid.TimelySystem
	// PatchedTimelyFluid is the Eq. 29-30 model.
	PatchedTimelyFluid = fluid.PatchedTimelySystem
	// FluidModel is any of the above: an ODE system with initial state.
	FluidModel = fluid.Model
	// FluidSample is one recorded trajectory point.
	FluidSample = fluid.Sample
)

// DefaultDCQCNParams returns the [31] defaults for n flows at 40 Gb/s.
func DefaultDCQCNParams(n int) DCQCNParams { return fluid.DefaultDCQCNParams(n) }

// DefaultTimelyFluidConfig returns the footnote-4 TIMELY parameters.
func DefaultTimelyFluidConfig(n int) TimelyFluidConfig { return fluid.DefaultTimelyConfig(n) }

// DefaultPatchedTimelyFluidConfig returns the §4.3 patched parameters.
func DefaultPatchedTimelyFluidConfig(n int) TimelyFluidConfig {
	return fluid.DefaultPatchedTimelyConfig(n)
}

// NewDCQCNFluid builds the Figure 1 model.
func NewDCQCNFluid(cfg DCQCNFluidConfig) (*DCQCNFluid, error) { return fluid.NewDCQCN(cfg) }

// NewTimelyFluid builds the Figure 7 model.
func NewTimelyFluid(cfg TimelyFluidConfig) (*TimelyFluid, error) { return fluid.NewTimely(cfg) }

// NewPatchedTimelyFluid builds the Eq. 29-30 model.
func NewPatchedTimelyFluid(cfg TimelyFluidConfig) (*PatchedTimelyFluid, error) {
	return fluid.NewPatchedTimely(cfg)
}

// RunFluid integrates a fluid model from 0 to t1 with step h, sampling
// every sampleEvery seconds.
func RunFluid(m FluidModel, h, t1, sampleEvery float64) []FluidSample {
	return fluid.Run(m, h, t1, sampleEvery)
}

// ---- Fixed points and convergence (Theorems 1, 2, 5) ----

// Fixed-point types.
type (
	// DCQCNFixedPoint is the unique Theorem 1 operating point.
	DCQCNFixedPoint = fixedpoint.DCQCNFixedPoint
	// ConvergenceConfig parameterises the Theorem 2 discrete model.
	ConvergenceConfig = convergence.Config
	// ConvergenceCycle records one synchronised marking peak.
	ConvergenceCycle = convergence.Cycle
)

// SolveDCQCNFixedPoint solves Eq. 11 exactly (Theorem 1).
func SolveDCQCNFixedPoint(p DCQCNParams) (DCQCNFixedPoint, error) {
	return fixedpoint.SolveDCQCN(p)
}

// PatchedTimelyQStar is the Eq. 31 fixed-point queue.
func PatchedTimelyQStar(n int, delta, beta, c, qPrime float64) float64 {
	return fixedpoint.PatchedTimelyQStar(n, delta, beta, c, qPrime)
}

// DefaultConvergenceConfig returns the discrete model at [31] defaults.
func DefaultConvergenceConfig(n int) ConvergenceConfig { return convergence.Default(n) }

// RunConvergence simulates the Theorem 2 discrete AIMD model.
func RunConvergence(cfg ConvergenceConfig, cycles int) ([]ConvergenceCycle, error) {
	return convergence.Run(cfg, cycles)
}

// AlphaFixedPoint solves Eq. 42 for α* and ΔT*.
func AlphaFixedPoint(cfg ConvergenceConfig) (alphaStar, deltaTStar float64, err error) {
	return convergence.AlphaFixedPoint(cfg)
}

// GapDecayRate fits the per-cycle geometric contraction of the rate gap.
func GapDecayRate(cycles []ConvergenceCycle, floor float64) float64 {
	return convergence.GapDecayRate(cycles, floor)
}

// ---- Stability analysis (§3.2, §4.3, Appendix A) ----

// Stability analysis types.
type (
	// LoopModel is a symmetric-flow loop reduction (see internal/stability).
	LoopModel = stability.LoopModel
	// StabilityResult is a phase-margin verdict.
	StabilityResult = stability.Result
	// DCQCNLoop is the DCQCN loop reduction.
	DCQCNLoop = fluid.DCQCNLoop
	// PatchedTimelyLoop is the patched TIMELY loop reduction.
	PatchedTimelyLoop = fluid.PatchedTimelyLoop
)

// PhaseMargin linearises the model at its fixed point and runs the Bode
// analysis of §3.2.
func PhaseMargin(m LoopModel) (StabilityResult, error) { return stability.PhaseMargin(m) }

// NewDCQCNLoop builds the DCQCN loop reduction for given parameters.
func NewDCQCNLoop(p DCQCNParams) (*DCQCNLoop, error) { return fluid.NewDCQCNLoop(p) }

// NewPatchedTimelyLoop builds the patched TIMELY loop reduction.
func NewPatchedTimelyLoop(cfg TimelyFluidConfig) (*PatchedTimelyLoop, error) {
	return fluid.NewPatchedTimelyLoop(cfg)
}

// ---- Packet-level simulator: a DCQCN star ----

// Packet-level simulator types.
type (
	// Network owns the event engine, nodes and RNG.
	Network = netsim.Network
	// Host is an end station.
	Host = netsim.Host
	// Port models one direction of a link.
	Port = netsim.Port
	// Marker is an ECN marking policy.
	Marker = netsim.Marker
	// REDMarker is the Eq. 3 profile.
	REDMarker = netsim.REDMarker
	// Star is the §3.1/§4.1 validation topology.
	Star = netsim.Star
	// StarConfig parameterises it.
	StarConfig = netsim.StarConfig
	// LinkConfig describes one direction of a link.
	LinkConfig = netsim.LinkConfig

	// DCQCNEndpoint is the per-host DCQCN engine (RP+NP roles).
	DCQCNEndpoint = dcqcn.Endpoint
	// DCQCNSender is the reaction point for one flow.
	DCQCNSender = dcqcn.Sender
	// DCQCNProtoParams are the wire-unit protocol parameters.
	DCQCNProtoParams = dcqcn.Params
)

// NewNetwork creates an empty deterministic network.
func NewNetwork(seed int64) *Network { return netsim.New(seed) }

// NewStar wires the N-senders-one-receiver validation topology.
func NewStar(nw *Network, cfg StarConfig) *Star { return netsim.NewStar(nw, cfg) }

// DefaultDCQCNProtoParams returns the [31] protocol defaults.
func DefaultDCQCNProtoParams() DCQCNProtoParams { return dcqcn.DefaultParams() }

// NewDCQCNEndpoint attaches a DCQCN engine to a host.
func NewDCQCNEndpoint(h *Host, p DCQCNProtoParams) (*DCQCNEndpoint, error) {
	return dcqcn.NewEndpoint(h, p)
}

// MonitorQueueBytes samples a port's queue occupancy into a time series,
// from one interval in, as the series "queue_bytes".
func MonitorQueueBytes(nw *Network, p *Port, every Duration) *Series {
	return nw.Sample(every, netsim.QueueSignal("queue_bytes", p))[0]
}

// ---- Workload and statistics ----

// Workload and statistics types.
type (
	// FlowSizeDist is a piecewise-linear empirical distribution.
	FlowSizeDist = workload.Empirical
	// Series is a scalar time series.
	Series = stats.Series
	// Summary holds moments and extremes of a sample.
	Summary = stats.Summary
)

// WebSearchSizes is the DCTCP [2] web-search flow-size distribution.
func WebSearchSizes() *FlowSizeDist { return workload.WebSearch() }

// Percentile returns the p-th percentile of xs.
func Percentile(xs []float64, p float64) (float64, error) { return stats.Percentile(xs, p) }

// Summarize computes moments and extremes.
func Summarize(xs []float64) Summary { return stats.Summarize(xs) }

// JainIndex is Jain's fairness index.
func JainIndex(xs []float64) float64 { return stats.JainIndex(xs) }

// ---- Experiments (one per paper table/figure) ----

// Experiment types.
type (
	// Experiment is a registered paper experiment.
	Experiment = exp.Runner
	// ExperimentOptions configure a run.
	ExperimentOptions = exp.Options
	// Report is an experiment result.
	Report = exp.Report
	// FCTConfig drives the §5.1 flow-completion-time runs.
	FCTConfig = exp.FCTConfig
	// FCTResult aggregates one FCT run.
	FCTResult = exp.FCTResult
	// Protocol selects the congestion-control scheme.
	Protocol = exp.Protocol
)

// Experiment fidelity levels and protocols.
const (
	Quick = exp.Quick
	Full  = exp.Full

	ProtoDCQCN         = exp.ProtoDCQCN
	ProtoTimely        = exp.ProtoTimely
	ProtoPatchedTimely = exp.ProtoPatchedTimely
)

// Runners lists every registered experiment.
func Runners() []Experiment { return exp.Runners() }

// GetRunner finds an experiment by id (e.g. "fig14").
func GetRunner(id string) (Experiment, bool) { return exp.Get(id) }

// RunFCT executes one §5.1 flow-completion-time run.
func RunFCT(cfg FCTConfig) (*FCTResult, error) { return exp.RunFCT(cfg) }
