// Package ecndelay is a from-scratch Go reproduction of "ECN or Delay:
// Lessons Learnt from Analysis of DCQCN and TIMELY" (Zhu, Ghobadi, Misra,
// Padhye — CoNEXT 2016).
//
// It contains every system the paper builds on:
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
// This root package is the public API: it re-exports the library's types
// and constructors. The implementation lives in internal/ packages; see
// DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured record.
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
	"fmt"
	"io"

	"ecndelay/internal/convergence"
	"ecndelay/internal/dcqcn"
	"ecndelay/internal/des"
	"ecndelay/internal/exp"
	"ecndelay/internal/fault"
	"ecndelay/internal/fixedpoint"
	"ecndelay/internal/fluid"
	"ecndelay/internal/hybrid"
	"ecndelay/internal/netsim"
	"ecndelay/internal/obs"
	"ecndelay/internal/ode"
	"ecndelay/internal/stability"
	"ecndelay/internal/stats"
	"ecndelay/internal/sweep"
	"ecndelay/internal/timely"
	"ecndelay/internal/topo"
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
	Nanosecond  = des.Nanosecond
	Microsecond = des.Microsecond
	Millisecond = des.Millisecond
	Second      = des.Second
)

// DurationFromSeconds converts seconds to a simulation Duration.
func DurationFromSeconds(s float64) Duration { return des.DurationFromSeconds(s) }

// ---- Fluid models (Figures 1 and 7, Eq. 29-32) ----

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
	// PIConfig holds Eq. 32 controller gains.
	PIConfig = fluid.PIConfig
	// DCQCNPIConfig configures DCQCN with switch-side PI marking (Fig. 18).
	DCQCNPIConfig = fluid.DCQCNPIConfig
	// DCQCNPIFluid is that model.
	DCQCNPIFluid = fluid.DCQCNPISystem
	// TimelyPIConfig configures patched TIMELY with host-side PI (Fig. 19).
	TimelyPIConfig = fluid.TimelyPIConfig
	// TimelyPIFluid is that model.
	TimelyPIFluid = fluid.TimelyPISystem
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

// NewDCQCNPIFluid builds DCQCN with PI marking at the switch.
func NewDCQCNPIFluid(cfg DCQCNPIConfig) (*DCQCNPIFluid, error) { return fluid.NewDCQCNPI(cfg) }

// NewTimelyPIFluid builds patched TIMELY with an end-host PI controller.
func NewTimelyPIFluid(cfg TimelyPIConfig) (*TimelyPIFluid, error) { return fluid.NewTimelyPI(cfg) }

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

// DCQCNPStarApprox is the closed-form Eq. 14 approximation of p*.
func DCQCNPStarApprox(p DCQCNParams) float64 { return fixedpoint.DCQCNPStarApprox(p) }

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
	// DCQCNIngressLoop is the DCQCN loop reduction with ingress marking
	// (the Figure 17 ablation, analytically).
	DCQCNIngressLoop = fluid.DCQCNIngressLoop
	// PatchedTimelyLoop is the patched TIMELY loop reduction.
	PatchedTimelyLoop = fluid.PatchedTimelyLoop
)

// PhaseMargin linearises the model at its fixed point and runs the Bode
// analysis of §3.2.
func PhaseMargin(m LoopModel) (StabilityResult, error) { return stability.PhaseMargin(m) }

// LoopGain evaluates the open-loop transfer function at jω.
func LoopGain(m LoopModel, omega float64) (complex128, error) { return stability.LoopGain(m, omega) }

// NewDCQCNLoop builds the DCQCN loop reduction for given parameters.
func NewDCQCNLoop(p DCQCNParams) (*DCQCNLoop, error) { return fluid.NewDCQCNLoop(p) }

// NewDCQCNIngressLoop builds the ingress-marking loop reduction, whose
// marking feedback path carries the extra queueing-delay lag of §5.2.
func NewDCQCNIngressLoop(p DCQCNParams) (*DCQCNIngressLoop, error) {
	return fluid.NewDCQCNIngressLoop(p)
}

// NewPatchedTimelyLoop builds the patched TIMELY loop reduction.
func NewPatchedTimelyLoop(cfg TimelyFluidConfig) (*PatchedTimelyLoop, error) {
	return fluid.NewPatchedTimelyLoop(cfg)
}

// ---- Packet-level simulator ----

// Packet-level simulator types.
type (
	// Network owns the event engine, nodes and RNG.
	Network = netsim.Network
	// Node is anything attached to the fabric.
	Node = netsim.Node
	// Host is an end station.
	Host = netsim.Host
	// Switch is a shared-buffer output-queued switch.
	Switch = netsim.Switch
	// Port models one direction of a link.
	Port = netsim.Port
	// Packet is the simulated wire unit.
	Packet = netsim.Packet
	// Marker is an ECN marking policy.
	Marker = netsim.Marker
	// REDMarker is the Eq. 3 profile.
	REDMarker = netsim.REDMarker
	// PIMarker is the Eq. 32 switch AQM.
	PIMarker = netsim.PIMarker
	// PFCConfig sets Priority Flow Control thresholds.
	PFCConfig = netsim.PFCConfig
	// Star is the §3.1/§4.1 validation topology.
	Star = netsim.Star
	// StarConfig parameterises it.
	StarConfig = netsim.StarConfig
	// Dumbbell is the Figure 13 topology.
	Dumbbell = netsim.Dumbbell
	// DumbbellConfig parameterises it.
	DumbbellConfig = netsim.DumbbellConfig
	// ParkingLot is the §7 multi-bottleneck chain.
	ParkingLot = netsim.ParkingLot
	// ParkingLotConfig parameterises it.
	ParkingLotConfig = netsim.ParkingLotConfig
	// Clos is a wired datacenter fabric (leaf-spine or 3-tier fat tree)
	// with seeded flow-consistent ECMP across the equal-cost up paths.
	Clos = topo.Clos
	// ClosConfig parameterises NewClos.
	ClosConfig = topo.ClosConfig
	// LinkConfig describes one direction of a link.
	LinkConfig = netsim.LinkConfig

	// DCQCNEndpoint is the per-host DCQCN engine (RP+NP roles).
	DCQCNEndpoint = dcqcn.Endpoint
	// DCQCNSender is the reaction point for one flow.
	DCQCNSender = dcqcn.Sender
	// DCQCNCompletion reports a finished DCQCN flow at the receiver.
	DCQCNCompletion = dcqcn.Completion
	// DCQCNProtoParams are the wire-unit protocol parameters.
	DCQCNProtoParams = dcqcn.Params
	// TimelyEndpoint is the per-host TIMELY engine.
	TimelyEndpoint = timely.Endpoint
	// TimelySender runs Algorithm 1 (or 2) for one flow.
	TimelySender = timely.Sender
	// TimelyCompletion reports a finished TIMELY flow at the receiver.
	TimelyCompletion = timely.Completion
	// TimelyProtoParams are the wire-unit protocol parameters.
	TimelyProtoParams = timely.Params
)

// NewNetwork creates an empty deterministic network.
func NewNetwork(seed int64) *Network { return netsim.New(seed) }

// NewStar wires the N-senders-one-receiver validation topology.
func NewStar(nw *Network, cfg StarConfig) *Star { return netsim.NewStar(nw, cfg) }

// NewDumbbell wires the Figure 13 topology.
func NewDumbbell(nw *Network, cfg DumbbellConfig) *Dumbbell { return netsim.NewDumbbell(nw, cfg) }

// NewParkingLot wires the §7 multi-bottleneck chain.
func NewParkingLot(nw *Network, cfg ParkingLotConfig) *ParkingLot {
	return netsim.NewParkingLot(nw, cfg)
}

// NewClos generates a deterministic Clos fabric (2-tier leaf-spine or
// 3-tier k-ary fat tree) on nw: pinned down routes, ECMP up routes, per-
// switch hash salts derived from cfg.ECMPSeed.
func NewClos(nw *Network, cfg ClosConfig) (*Clos, error) { return topo.NewClos(nw, cfg) }

// DefaultDCQCNProtoParams returns the [31] protocol defaults.
func DefaultDCQCNProtoParams() DCQCNProtoParams { return dcqcn.DefaultParams() }

// DefaultTimelyProtoParams returns the [21] footnote-4 protocol defaults.
func DefaultTimelyProtoParams() TimelyProtoParams { return timely.DefaultParams() }

// DefaultPatchedTimelyProtoParams returns the §4.3 patched defaults.
func DefaultPatchedTimelyProtoParams() TimelyProtoParams { return timely.DefaultPatchedParams() }

// NewDCQCNEndpoint attaches a DCQCN engine to a host.
func NewDCQCNEndpoint(h *Host, p DCQCNProtoParams) (*DCQCNEndpoint, error) {
	return dcqcn.NewEndpoint(h, p)
}

// NewTimelyEndpoint attaches a TIMELY engine to a host.
func NewTimelyEndpoint(h *Host, p TimelyProtoParams) (*TimelyEndpoint, error) {
	return timely.NewEndpoint(h, p)
}

// MonitorQueueBytes samples a port's queue occupancy into a time series.
func MonitorQueueBytes(nw *Network, p *Port, every Duration) *Series {
	return netsim.MonitorQueueBytes(nw.Sim, p, every)
}

// MonitorThroughput samples a port's delivered rate into a time series.
func MonitorThroughput(nw *Network, p *Port, every Duration) *Series {
	return netsim.MonitorThroughput(nw.Sim, p, every)
}

// ---- Fault injection and loss recovery ----

// Fault-injection types (internal/fault, internal/netsim). A FaultPlan is
// a declarative, seeded schedule of packet loss and link flaps; applying
// an empty plan — or none — leaves a run bit-identical to a fault-free
// one.
type (
	// FaultSelector is a bitmask choosing the packet kinds a loss rule
	// applies to.
	FaultSelector = fault.Selector
	// GilbertElliott parameterises bursty two-state loss.
	GilbertElliott = fault.GilbertElliott
	// Loss is one loss rule on a link.
	Loss = fault.Loss
	// Flap takes a link down at a set time, optionally back up later.
	Flap = fault.Flap
	// LinkFaults binds loss rules and flaps to one port.
	LinkFaults = fault.LinkFaults
	// FaultPlan is a complete deterministic fault schedule.
	FaultPlan = fault.Plan
	// AppliedFaults is a live plan on a network; Remove detaches it.
	AppliedFaults = fault.Applied

	// PFCWatchdog flags sustained PAUSE (pause storms) and pauses still
	// open at the end of a run (suspected deadlock).
	PFCWatchdog = netsim.PFCWatchdog
	// PauseStorm is one watchdog detection.
	PauseStorm = netsim.PauseStorm

	// DCQCNRecoveryStats summarises a DCQCN sender's go-back-N work.
	DCQCNRecoveryStats = dcqcn.RecoveryStats
	// TimelyRecoveryStats summarises a TIMELY sender's go-back-N work.
	TimelyRecoveryStats = timely.RecoveryStats
)

// Loss-rule selectors.
const (
	SelData = fault.SelData
	SelAck  = fault.SelAck
	SelCNP  = fault.SelCNP
	SelNack = fault.SelNack
	SelPFC  = fault.SelPFC
	SelCtrl = fault.SelCtrl
	SelAll  = fault.SelAll
)

// NewPFCWatchdog creates a watchdog that flags any pause sustained past
// threshold. Attach ports with Watch/WatchHost/WatchSwitch and call
// Finish after the run.
func NewPFCWatchdog(nw *Network, threshold Duration) *PFCWatchdog {
	return netsim.NewPFCWatchdog(nw.Sim, threshold)
}

// ---- Workload and statistics ----

// Workload and statistics types.
type (
	// FlowSizeDist is a piecewise-linear empirical distribution.
	FlowSizeDist = workload.Empirical
	// Flow is one generated transfer.
	Flow = workload.Flow
	// WorkloadConfig drives traffic generation.
	WorkloadConfig = workload.Config
	// PoissonStream yields the Generate sequence lazily, one flow per
	// Next call, so churn length costs simulated time rather than memory.
	PoissonStream = workload.PoissonStream
	// IncastConfig drives GenerateIncast.
	IncastConfig = workload.IncastConfig
	// ShuffleConfig drives GenerateShuffle.
	ShuffleConfig = workload.ShuffleConfig
	// BurstConfig drives GenerateStorageBursts.
	BurstConfig = workload.BurstConfig
	// Series is a scalar time series.
	Series = stats.Series
	// Summary holds moments and extremes of a sample.
	Summary = stats.Summary
	// CDFPoint is one step of an empirical CDF.
	CDFPoint = stats.CDFPoint
)

// WebSearchSizes is the DCTCP [2] web-search flow-size distribution.
func WebSearchSizes() *FlowSizeDist { return workload.WebSearch() }

// GenerateWorkload produces a Poisson flow arrival sequence.
func GenerateWorkload(cfg WorkloadConfig) ([]Flow, error) { return workload.Generate(cfg) }

// NewPoissonStream validates cfg and returns the lazy arrival generator
// behind GenerateWorkload.
func NewPoissonStream(cfg WorkloadConfig) (*PoissonStream, error) {
	return workload.NewPoissonStream(cfg)
}

// GenerateIncast produces the N-to-1 partition-aggregate pattern.
func GenerateIncast(cfg IncastConfig) ([]Flow, error) { return workload.Incast(cfg) }

// GenerateShuffle produces the all-to-all exchange.
func GenerateShuffle(cfg ShuffleConfig) ([]Flow, error) { return workload.Shuffle(cfg) }

// GenerateStorageBursts produces Poisson replicated-write bursts.
func GenerateStorageBursts(cfg BurstConfig) ([]Flow, error) { return workload.StorageBursts(cfg) }

// Percentile returns the p-th percentile of xs.
func Percentile(xs []float64, p float64) (float64, error) { return stats.Percentile(xs, p) }

// Summarize computes moments and extremes.
func Summarize(xs []float64) Summary { return stats.Summarize(xs) }

// CDF builds an empirical CDF.
func CDF(xs []float64) []CDFPoint { return stats.CDF(xs) }

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

// ODESolver re-exports the delay-aware RK4 solver for users who want to
// integrate their own models against the same machinery.
type ODESolver = ode.Solver

// ODESystem is the interface such models implement.
type ODESystem = ode.System

// ---- Parallel experiment orchestration (internal/sweep) ----

// Sweep engine types.
type (
	// SweepJob is one unit of work in a parameter sweep.
	SweepJob = sweep.Job
	// SweepConfig tunes one engine invocation (workers, timeout,
	// retries, base seed, progress reporting).
	SweepConfig = sweep.Config
	// SweepResult is the deterministic outcome record of one job.
	SweepResult = sweep.Result
	// SweepSummary aggregates one sweep run.
	SweepSummary = sweep.Summary
	// SweepSink receives completed job results.
	SweepSink = sweep.Sink
	// SweepJSONLSink checkpoints results as JSONL with resume support.
	SweepJSONLSink = sweep.JSONLSink
	// SweepMemorySink collects results in memory.
	SweepMemorySink = sweep.MemorySink
)

// RunSweep fans jobs out over a bounded worker pool with per-job fault
// isolation; output is deterministic across worker counts.
func RunSweep(cfg SweepConfig, jobs []SweepJob, sink SweepSink) (SweepSummary, error) {
	return sweep.Run(cfg, jobs, sink)
}

// DeriveSweepSeed maps (baseSeed, job index) to the per-job seed the
// engine hands each job, independent of scheduling order.
func DeriveSweepSeed(base int64, index int) int64 { return sweep.DeriveSeed(base, index) }

// OpenSweepJSONL opens (resume=true) or truncates a JSONL checkpoint.
func OpenSweepJSONL(path string, resume bool) (*SweepJSONLSink, error) {
	return sweep.OpenJSONL(path, resume)
}

// MarshalSweepResults renders results as JSONL sorted by job ID — the
// canonical byte-comparable form of a sweep's output.
func MarshalSweepResults(rs []SweepResult) ([]byte, error) { return sweep.MarshalResults(rs) }

// ReadSweepResults parses a JSONL checkpoint file: last row
// per job ID, first-seen order, torn trailing lines tolerated, missing
// file yields no rows.
func ReadSweepResults(path string) ([]SweepResult, error) { return sweep.ReadResults(path) }

// ExperimentSweepJobs builds one sweep job per (experiment id, seed)
// pair from the registry. With an empty seeds slice each experiment
// becomes a single job using the engine-derived seed; otherwise one
// job per listed seed, pinned to it.
//
// A shared opts.Observer is safe for any worker count: each job runs with
// a shallow copy of it whose ProbePrefix is extended with "<jobID>.", so
// probes from different jobs land in the shared ProbeSet under distinct,
// scheduling-independent names, and the invariant checker already scopes
// its books per network run.
func ExperimentSweepJobs(ids []string, opts ExperimentOptions, seeds []int64) ([]SweepJob, error) {
	var jobs []SweepJob
	for _, id := range ids {
		r, ok := exp.Get(id)
		if !ok {
			return nil, fmt.Errorf("unknown experiment %q", id)
		}
		runWith := func(jobID string, o ExperimentOptions) (map[string]float64, error) {
			o.Observer = JobObserver(o.Observer, jobID)
			rep, err := r.Run(o)
			if err != nil {
				return nil, err
			}
			return rep.Metrics, nil
		}
		if len(seeds) == 0 {
			jobID := r.ID
			jobs = append(jobs, SweepJob{
				ID:   jobID,
				Meta: map[string]string{"exp": r.ID, "figure": r.Figure},
				Run: func(seed int64) (map[string]float64, error) {
					o := opts
					o.Seed = seed
					return runWith(jobID, o)
				},
			})
			continue
		}
		for _, s := range seeds {
			s := s
			jobID := fmt.Sprintf("%s/seed%d", r.ID, s)
			jobs = append(jobs, SweepJob{
				ID:   jobID,
				Meta: map[string]string{"exp": r.ID, "figure": r.Figure, "seed": fmt.Sprint(s)},
				Run: func(int64) (map[string]float64, error) {
					o := opts
					o.Seed = s
					return runWith(jobID, o)
				},
			})
		}
	}
	return jobs, nil
}

// JobObserver returns a shallow copy of o with jobID appended to its
// ProbePrefix, so per-job probe series (and histograms) registered on a
// shared set stay distinguishable and export deterministically. A nil
// observer stays nil; the copy shares every facility (Metrics, Trace,
// Check, Probes, Hists) with the original — except that an observer with
// TracePerJob set gets a private per-job tracer instead of the shared
// Trace, so trace streams don't interleave jobs by completion order; an
// observer with AuditPerJob set likewise gets a private per-job audit
// trail.
func JobObserver(o *Observer, jobID string) *Observer {
	if o == nil {
		return nil
	}
	jo := *o
	jo.ProbePrefix = jo.ProbePrefix + jobID + "."
	if o.TracePerJob != nil {
		jo.Trace = o.TracePerJob(jobID)
	}
	if o.AuditPerJob != nil {
		jo.Audit = o.AuditPerJob(jobID)
	}
	return &jo
}

// ---- Observability (internal/obs) ----

// Observability facade: the zero-overhead-when-disabled instrumentation
// layer. Attach an Observer to a Network (or pass it through FCTConfig /
// ExperimentOptions) before building topology and endpoints.
type (
	// Observer bundles the observability facilities for one or more runs.
	Observer = obs.NetObserver
	// MetricsRegistry holds hierarchical counters and gauges.
	MetricsRegistry = obs.Registry
	// MetricsCounter is a monotonically increasing metric.
	MetricsCounter = obs.Counter
	// MetricsGauge is a last-value-wins metric.
	MetricsGauge = obs.Gauge
	// MetricsSnapshot is one instrument in a registry snapshot.
	MetricsSnapshot = obs.Metric
	// PortCounters is the per-port instrument set netsim registers.
	PortCounters = obs.PortCounters
	// EndpointCounters is the per-endpoint instrument set the protocol
	// engines register.
	EndpointCounters = obs.EndpointCounters
	// Probe is a fixed-cadence time series in a preallocated ring buffer.
	Probe = obs.Probe
	// ProbeSet is a collection of probes with canonical JSONL/CSV export.
	ProbeSet = obs.ProbeSet
	// ProbeSample is one recorded probe point.
	ProbeSample = obs.Sample
	// Tracer fans simulator events out to sinks.
	Tracer = obs.Tracer
	// TraceEvent is one trace record.
	TraceEvent = obs.Event
	// TraceEventType labels an instrumented simulator action.
	TraceEventType = obs.EventType
	// TraceSink receives trace events.
	TraceSink = obs.Sink
	// TraceMemorySink retains trace events in memory.
	TraceMemorySink = obs.MemorySink
	// TraceJSONLSink streams trace events as JSONL.
	TraceJSONLSink = obs.JSONLSink
	// AuditTrail fans control-loop decisions out to sinks.
	AuditTrail = obs.AuditTrail
	// AuditDecision is one control-loop audit record.
	AuditDecision = obs.Decision
	// AuditDecisionType labels a control-loop decision.
	AuditDecisionType = obs.DecisionType
	// AuditSink receives audit decisions.
	AuditSink = obs.DecisionSink
	// AuditMemorySink retains audit decisions in memory.
	AuditMemorySink = obs.AuditMemorySink
	// AuditJSONLSink buffers decisions and writes canonically sorted JSONL
	// on Close.
	AuditJSONLSink = obs.AuditJSONLSink
	// ExportHeader is the self-describing first record of a probe/trace/
	// audit JSONL export.
	ExportHeader = obs.Header
	// InvariantChecker verifies runtime invariants from the event stream.
	InvariantChecker = obs.Checker
	// InvariantViolation is one detected invariant breach.
	InvariantViolation = obs.Violation
	// InvariantClass identifies one of the checked invariant classes.
	InvariantClass = obs.Invariant
	// Hist is a streaming log-bucketed latency histogram.
	Hist = obs.Hist
	// HistSet is a collection of named histograms with canonical export.
	HistSet = obs.HistSet
	// HistSummary is one histogram's canonical export row.
	HistSummary = obs.HistSummary
	// TelemetryServer serves /metrics, /progress, /probes and pprof for a
	// live run.
	TelemetryServer = obs.Server
	// SweepStatus is a live job-state board for the /progress endpoint.
	SweepStatus = sweep.Status
	// SweepStatusSnapshot is the JSON shape /progress serves.
	SweepStatusSnapshot = sweep.StatusSnapshot
)

// Trace record types.
const (
	TraceEnqueue    = obs.Enqueue
	TraceDequeue    = obs.Dequeue
	TraceMark       = obs.Mark
	TracePause      = obs.Pause
	TraceResume     = obs.Resume
	TraceWireDrop   = obs.WireDrop
	TraceBufDrop    = obs.BufDrop
	TraceDeliver    = obs.Deliver
	TraceRetx       = obs.Retx
	TraceDoubleFree = obs.DoubleFree
)

// Control-loop audit decision types.
const (
	AuditMarkOpen      = obs.DecMarkOpen
	AuditMarkClose     = obs.DecMarkClose
	AuditRateCut       = obs.DecRateCut
	AuditAlphaFeedback = obs.DecAlphaFeedback
	AuditAlphaDecay    = obs.DecAlphaDecay
	AuditFastRecovery  = obs.DecFastRecovery
	AuditAdditiveInc   = obs.DecAdditiveInc
	AuditHyperInc      = obs.DecHyperInc
	AuditRTTSample     = obs.DecRTTSample
	AuditGradient      = obs.DecGradient
	AuditTimelyAdd     = obs.DecTimelyAdd
	AuditTimelyMD      = obs.DecTimelyMD
	AuditTimelyBrake   = obs.DecTimelyBrake
	AuditTimelyPatched = obs.DecTimelyPatched
)

// Invariant classes.
const (
	InvConservation = obs.InvConservation
	InvQueueBounds  = obs.InvQueueBounds
	InvPFCPairing   = obs.InvPFCPairing
	InvDoubleFree   = obs.InvDoubleFree
)

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewProbe creates a probe with a preallocated ring (cap <= 0: default).
func NewProbe(name string, capacity int) *Probe { return obs.NewProbe(name, capacity) }

// NewProbeSet returns an empty probe set.
func NewProbeSet() *ProbeSet { return obs.NewProbeSet() }

// NewTracer returns a tracer emitting to the given sinks.
func NewTracer(sinks ...TraceSink) *Tracer { return obs.NewTracer(sinks...) }

// NewTraceMemorySink preallocates an in-memory trace sink.
func NewTraceMemorySink(capacity int) *TraceMemorySink { return obs.NewMemorySink(capacity) }

// NewTraceJSONLSink wraps w as a streaming JSONL trace sink.
func NewTraceJSONLSink(w io.Writer) *TraceJSONLSink { return obs.NewJSONLSink(w) }

// NewAuditTrail returns a control-loop audit trail emitting to the given
// sinks.
func NewAuditTrail(sinks ...AuditSink) *AuditTrail { return obs.NewAuditTrail(sinks...) }

// NewAuditMemorySink preallocates an in-memory audit sink.
func NewAuditMemorySink(capacity int) *AuditMemorySink { return obs.NewAuditMemorySink(capacity) }

// NewAuditJSONLSink wraps w as a buffer-and-sort audit JSONL sink; Close
// writes the canonically ordered records.
func NewAuditJSONLSink(w io.Writer, capacity int) *AuditJSONLSink {
	return obs.NewAuditJSONLSink(w, capacity)
}

// NewInvariantChecker returns a checker with no recorded state.
func NewInvariantChecker() *InvariantChecker { return obs.NewChecker() }

// FullObserver returns an observer with every facility enabled.
func FullObserver() *Observer { return obs.Full() }

// NewHist returns an empty streaming histogram.
func NewHist(name string) *Hist { return obs.NewHist(name) }

// NewHistSet returns an empty histogram set.
func NewHistSet() *HistSet { return obs.NewHistSet() }

// NewTelemetryServer wraps an observer for live HTTP telemetry; Start it
// on an address and Close it when the run finishes.
func NewTelemetryServer(o *Observer) *TelemetryServer { return obs.NewServer(o) }

// NewSweepStatus returns an empty live sweep status board.
func NewSweepStatus() *SweepStatus { return sweep.NewStatus() }

// WritePrometheus renders an observer's instruments in the Prometheus
// text exposition format (the same body /metrics serves).
func WritePrometheus(w io.Writer, o *Observer) error { return obs.WritePrometheus(w, o) }

// ---- Hybrid fluid↔packet co-simulation (internal/hybrid) ----

// DataMTU is the data segment size shared by the analytic layer (which
// counts packets of this many bytes) and the packet simulator.
const DataMTU = hybrid.MTU

// Hybrid co-simulation types: equilibrium warm starts, fluid background
// aggregates superimposed on real switch queues, and the fluid-vs-packet
// cross-validation harness that uses the paper's fixed points as a
// regression oracle (the "crossval" experiment / CI gate).
type (
	// HybridWarmStart carries the analytic operating point in wire units,
	// ready to apply to packet-sim senders and queues.
	HybridWarmStart = hybrid.WarmStart
	// HybridPrefillFlow names one flow identity for queue prefilling.
	HybridPrefillFlow = hybrid.PrefillFlow
	// HybridDCQCNScenario is a matched fluid/packet DCQCN operating point.
	HybridDCQCNScenario = hybrid.DCQCNScenario
	// HybridTimelyScenario is the patched-TIMELY counterpart.
	HybridTimelyScenario = hybrid.TimelyScenario
	// HybridBackgroundConfig sizes a fluid background aggregate.
	HybridBackgroundConfig = hybrid.BackgroundConfig
	// HybridBackgroundAggregate is the ODE co-simulated with the packet net.
	HybridBackgroundAggregate = hybrid.BackgroundAggregate
	// HybridTolerance bounds acceptable fluid↔packet disagreement.
	HybridTolerance = hybrid.Tolerance
	// HybridOpPoint names one cross-validation operating point.
	HybridOpPoint = hybrid.OpPoint
	// HybridCheck is one oracle-vs-measured agreement test.
	HybridCheck = hybrid.Check
	// HybridResult is the outcome of cross-validating one operating point.
	HybridResult = hybrid.Result
	// HybridSettle quantifies time and DES events to steady state.
	HybridSettle = hybrid.Settle
)

// NewHybridDCQCNScenario returns the Table 1 operating point for n DCQCN
// flows on a 40 Gb/s bottleneck, realisable as fluid or packets.
func NewHybridDCQCNScenario(n int, seed int64) HybridDCQCNScenario {
	return hybrid.NewDCQCNScenario(n, seed)
}

// NewHybridTimelyScenario returns the §4.3 patched-TIMELY operating point.
func NewHybridTimelyScenario(n int, seed int64) HybridTimelyScenario {
	return hybrid.NewTimelyScenario(n, seed)
}

// SolveDCQCNWarmStart solves the Theorem 1 fixed point and converts it to
// wire units for packet-sim warm starting.
func SolveDCQCNWarmStart(pr DCQCNParams) (*HybridWarmStart, error) {
	return hybrid.DCQCNWarmStart(pr)
}

// SolveTimelyWarmStart builds the Eq. 31 patched-TIMELY warm start; qPrime
// <= 0 uses the default C·T_low.
func SolveTimelyWarmStart(n int, delta, beta, c, tLow, qPrime float64) (*HybridWarmStart, error) {
	return hybrid.TimelyWarmStart(n, delta, beta, c, tLow, qPrime)
}

// AttachFluidBackground couples a fluid background aggregate to port's
// queue; call before running the network.
func AttachFluidBackground(port *Port, cfg HybridBackgroundConfig) (*HybridBackgroundAggregate, error) {
	return hybrid.AttachBackground(port, cfg)
}

// DefaultHybridTolerance returns the bounds the crossval CI gate enforces.
func DefaultHybridTolerance() HybridTolerance { return hybrid.DefaultTolerance() }

// HybridCIOperatingPoints returns the operating points the crossval CI
// gate covers (two per protocol).
func HybridCIOperatingPoints() []HybridOpPoint { return hybrid.CIOperatingPoints() }

// RunHybridCrossVal cross-validates one operating point with the default
// tolerances; use the Result's Err for the verdict.
func RunHybridCrossVal(op HybridOpPoint, seed int64) (HybridResult, error) {
	return hybrid.RunOp(op, seed)
}
