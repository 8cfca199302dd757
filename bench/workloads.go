package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"ecndelay/internal/convergence"
	"ecndelay/internal/dcqcn"
	"ecndelay/internal/des"
	"ecndelay/internal/fixedpoint"
	"ecndelay/internal/fluid"
	"ecndelay/internal/netsim"
	"ecndelay/internal/obs"
	"ecndelay/internal/ode"
	"ecndelay/internal/stability"
	"ecndelay/internal/sweep"
	"ecndelay/internal/timely"
	"ecndelay/internal/topo"
	"ecndelay/internal/workload"
)

// workloadDef is one benchmark workload. run executes one iteration and
// returns the FNV-64 digest of its simulated output.
type workloadDef struct {
	name string
	// perSecond is the number of timed iterations per second of -seconds.
	// It is a fixed count, not a time budget: every run at the same
	// -seconds covers the same number of seeds. It was sized on a 2-CPU
	// host so that the timed part takes about -seconds there, except that
	// fct_dumbbell runs 1.4 times as long: its heavy-tailed flow sizes make
	// its iterations vary most from seed to seed.
	perSecond float64
	run       func(it *iter) (uint64, error)
}

var workloads = []workloadDef{
	{"fct_dumbbell", 7, fctDumbbell},
	{"incast_clos_observed", 6, incastClosObserved},
	{"fluid_dde", 7, fluidDDE},
	{"pm_sweep", 6, pmSweep},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// digest accumulates an iteration's simulated output.
type digest struct{ h hash.Hash64 }

func newDigest() digest { return digest{fnv.New64a()} }

func (d digest) int(v int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	d.h.Write(b[:])
}

func (d digest) float(v float64) { d.int(int64(math.Float64bits(v))) }

func (d digest) str(s string) { d.h.Write([]byte(s)) }

// fcts hashes (flow id, FCT in ns) pairs in flow id order.
func (d digest) fcts(fct map[int]int64) {
	ids := make([]int, 0, len(fct))
	for id := range fct {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		d.int(int64(id))
		d.int(fct[id])
	}
}

func at(seconds float64) des.Time { return des.Time(des.DurationFromSeconds(seconds)) }

var link10G = netsim.LinkConfig{Bandwidth: 10e9 / 8, PropDelay: des.Microsecond}

func redMarker(nw *netsim.Network) netsim.MarkerFactory {
	return func() netsim.Marker {
		return &netsim.REDMarker{Kmin: 5000, Kmax: 200000, Pmax: 0.01, Rng: nw.Rng}
	}
}

// The Fig. 13 dumbbell FCT experiment (exp.RunFCT's network at Quick scale).
const (
	fctHosts   = 10
	fctLoad    = 0.8 // of 8 Gb/s, the paper's load factor
	fctHorizon = 0.15
	fctWarmup  = 0.04
	fctDrain   = 0.15
)

// fctDumbbell runs one Poisson web-search flow list on the dumbbell under
// DCQCN and then under TIMELY. Its digest covers each protocol's (flow,
// FCT) pairs for flows started after the warm-up and the bottleneck's
// transmitted bytes.
func fctDumbbell(it *iter) (uint64, error) {
	dg := newDigest()
	var flows []workload.Flow
	for _, proto := range []string{"dcqcn", "timely"} {
		ph := it.beginSetup()
		sp := it.span("netsim.New", ph.spanRef)
		nw := netsim.New(it.seed)
		sp.end()
		if it.traced() {
			// Packet, mark and CNP counts come from the registry; the
			// untraced run has no observer at all.
			nw.SetObserver(&obs.NetObserver{Metrics: obs.NewRegistry()})
		}
		var mark netsim.MarkerFactory
		if proto == "dcqcn" {
			mark = redMarker(nw)
		}
		sp = it.span("netsim.NewDumbbell", ph.spanRef)
		d := netsim.NewDumbbell(nw, netsim.DumbbellConfig{Senders: fctHosts, Receivers: fctHosts, Link: link10G, Mark: mark})
		sp.end()
		if flows == nil {
			sp = it.span("workload.Generate", ph.spanRef)
			var err error
			flows, err = workload.Generate(workload.Config{
				Load:    fctLoad * 1e9,
				Sizes:   workload.WebSearch(),
				Senders: fctHosts, Receivers: fctHosts,
				Horizon: fctHorizon,
				Seed:    it.seed + 1,
			})
			sp.end()
			if err != nil {
				ph.done()
				return 0, err
			}
			it.c.flows += int64(len(flows))
		}
		hosts := append(append([]*netsim.Host(nil), d.Senders...), d.Receivers...)
		fct := make(map[int]int64, len(flows))
		done := 0
		err := attach(it, ph.spanRef, proto, hosts, flows,
			func(f workload.Flow) int { return f.Sender },
			func(f workload.Flow) int { return fctHosts + f.Recv },
			func(f workload.Flow, end des.Time) {
				done++
				if f.Start >= fctWarmup {
					fct[f.ID] = int64(end - at(f.Start))
				}
			})
		ph.done()
		if err != nil {
			return 0, err
		}
		it.runNet(nw, at(fctHorizon+fctDrain))
		it.c.unfinished += int64(len(flows) - done)
		it.countPorts(nw)
		dg.str(proto)
		dg.fcts(fct)
		dg.int(d.Bottleneck.TxBytes)
	}
	return dg.h.Sum64(), nil
}

// attach puts one protocol endpoint on every host and schedules every flow
// from host src(f) to host dst(f); done fires at each flow's completion.
// Endpoints use the protocols' default parameters; TIMELY paces 16 KB
// bursts, as deployed (§4.2).
func attach(it *iter, parent spanRef, proto string, hosts []*netsim.Host, flows []workload.Flow,
	src, dst func(workload.Flow) int, done func(f workload.Flow, end des.Time)) error {
	byID := make(map[int]workload.Flow, len(flows))
	for _, f := range flows {
		byID[f.ID] = f
	}
	switch proto {
	case "dcqcn":
		eps := make([]*dcqcn.Endpoint, len(hosts))
		for i, h := range hosts {
			sp := it.span("dcqcn.NewEndpoint", parent)
			ep, err := dcqcn.NewEndpoint(h, dcqcn.DefaultParams())
			sp.end()
			if err != nil {
				return err
			}
			ep.OnComplete = func(c dcqcn.Completion) { done(byID[c.Flow], c.At) }
			eps[i] = ep
		}
		for _, f := range flows {
			sp := it.span("dcqcn.NewFlow", parent)
			_, err := eps[src(f)].NewFlow(f.ID, hosts[dst(f)].ID(), f.Size, at(f.Start))
			sp.end()
			if err != nil {
				return err
			}
		}
	case "timely":
		params := timely.DefaultParams()
		params.Burst = true
		eps := make([]*timely.Endpoint, len(hosts))
		for i, h := range hosts {
			sp := it.span("timely.NewEndpoint", parent)
			ep, err := timely.NewEndpoint(h, params)
			sp.end()
			if err != nil {
				return err
			}
			ep.OnComplete = func(c timely.Completion) { done(byID[c.Flow], c.At) }
			eps[i] = ep
		}
		for _, f := range flows {
			sp := it.span("timely.NewFlow", parent)
			_, err := eps[src(f)].NewFlow(f.ID, hosts[dst(f)].ID(), f.Size, at(f.Start), 0)
			sp.end()
			if err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("unknown protocol %q", proto)
	}
	return nil
}

// The observed Clos incast: repeated 32→1 rounds on a k=8 fat tree.
const (
	incastRadix    = 8 // 128 hosts, 80 switches
	incastFanin    = 32
	incastSize     = 64e3
	incastRounds   = 16
	incastStart    = 2e-4
	incastInterval = 2e-3
	incastDrain    = 20e-3
)

// incastClosObserved runs DCQCN incast rounds on a three-tier fat tree with
// ECMP, PFC, the PFC watchdog and every observer facility attached. The
// seed picks the receiver and the senders. The digest covers the (flow,
// FCT) pairs and the bytes of the audit export.
func incastClosObserved(it *iter) (uint64, error) {
	ph := it.beginSetup()
	rng := rand.New(rand.NewSource(it.seed))
	perm := rng.Perm(incastRadix * incastRadix * incastRadix / 4)
	recv, senders := perm[0], perm[1:1+incastFanin]
	sp := it.span("workload.Incast", ph.spanRef)
	flows, err := workload.Incast(workload.IncastConfig{
		Fanin: incastFanin, Size: incastSize, Start: incastStart,
		Rounds: incastRounds, Interval: incastInterval,
	})
	sp.end()
	if err != nil {
		ph.done()
		return 0, err
	}
	it.c.flows += int64(len(flows))

	audit := newCountingWriter()
	auditSink := obs.NewAuditJSONLSink(audit, 0)
	ob := &obs.NetObserver{
		Metrics: obs.NewRegistry(),
		Hists:   obs.NewHistSet(),
		Probes:  obs.NewProbeSet(),
		Check:   obs.NewChecker(),
		Audit:   obs.NewAuditTrail(auditSink),
	}
	nw := netsim.New(it.seed)
	nw.SetObserver(ob)
	sp = it.span("topo.NewClos", ph.spanRef)
	cl, err := topo.NewClos(nw, topo.ClosConfig{
		Radix: incastRadix, Tiers: 3,
		HostLink: link10G,
		Mark:     redMarker(nw),
		PFC:      netsim.PFCConfig{PauseBytes: 50e3, ResumeBytes: 25e3},
		ECMPSeed: it.seed,
	})
	sp.end()
	if err != nil {
		ph.done()
		return 0, err
	}
	it.c.nodes += int64(nw.NodeCount())
	sp = it.span("netsim.NewPFCWatchdog", ph.spanRef)
	wd := netsim.NewPFCWatchdog(nw.Sim, 100*des.Microsecond)
	for _, sw := range cl.Switches() {
		wd.WatchSwitch(sw)
	}
	for _, h := range cl.Hosts {
		wd.WatchHost(h)
	}
	sp.end()
	fct := make(map[int]int64, len(flows))
	err = attach(it, ph.spanRef, "dcqcn", cl.Hosts, flows,
		func(f workload.Flow) int { return senders[f.Sender] },
		func(workload.Flow) int { return recv },
		func(f workload.Flow, end des.Time) { fct[f.ID] = int64(end - at(f.Start)) })
	if err == nil {
		q := cl.HostPorts[recv].Queue()
		ob.Probes.NewProbe("incast_queue_bytes", 0).Drive(nw.Sim, ob.ProbeCadence(), func() float64 {
			return float64(q.Bytes())
		})
	}
	ph.done()
	if err != nil {
		return 0, err
	}

	it.runNet(nw, at(incastStart+incastRounds*incastInterval+incastDrain))
	wd.Finish()
	ob.Check.Finish(nw.Sim.Now())
	it.c.unfinished += int64(len(flows) - len(fct))
	it.countPorts(nw)

	ex := it.span("export", it.root)
	sp = it.span("obs.AuditJSONLSink.Close", ex)
	err = auditSink.Close()
	sp.end()
	exported := newCountingWriter()
	if err == nil {
		sp = it.span("obs.ProbeSet.WriteJSONL", ex)
		err = ob.Probes.WriteJSONL(exported)
		sp.end()
	}
	if err == nil {
		sp = it.span("obs.HistSet.WriteJSONL", ex)
		err = ob.Hists.WriteJSONL(exported)
		sp.end()
	}
	ex.end()
	if err != nil {
		return 0, err
	}
	it.c.auditRecords += ob.Audit.Total()
	it.c.exportBytes += audit.n + exported.n
	if v := ob.Check.Violations(); len(v) > 0 {
		it.c.violations += int64(len(v))
		return 0, fmt.Errorf("invariant checker: %d violations, first %v", len(v), v[0])
	}
	dg := newDigest()
	dg.fcts(fct)
	dg.int(audit.n)
	dg.int(int64(audit.h.Sum64()))
	return dg.h.Sum64(), nil
}

// countingWriter discards what it is given but keeps its length and hash.
type countingWriter struct {
	n int64
	h hash.Hash64
}

func newCountingWriter() *countingWriter { return &countingWriter{h: fnv.New64a()} }

func (w *countingWriter) Write(b []byte) (int, error) {
	w.n += int64(len(b))
	return w.h.Write(b)
}

// The Fig. 4 fluid case and the patched TIMELY fluid model.
const (
	fluidN       = 10
	fluidTauStar = 85e-6
	fluidHorizon = 20e-3
	fluidStep    = 1e-6
	fluidSample  = 10e-6
)

// fluidDDE integrates the DCQCN fluid model at N=10, τ*=85 µs (the
// oscillating Fig. 4 case) and then the patched TIMELY fluid model at N=10,
// each from per-flow initial rates drawn from the seed. The digest covers
// the sampled queue trajectories.
func fluidDDE(it *iter) (uint64, error) {
	rng := rand.New(rand.NewSource(it.seed))
	dg := newDigest()

	ph := it.beginSetup()
	p := fluid.DefaultDCQCNParams(fluidN)
	p.TauStar = fluidTauStar
	sp := it.span("fluid.NewDCQCN", ph.spanRef)
	dc, err := fluid.NewDCQCN(fluid.DCQCNConfig{Params: p, InitialRC: initialRates(rng, p.C)})
	sp.end()
	ph.done()
	if err != nil {
		return 0, err
	}
	it.runFluid(dc, dc.QIndex(), dg)

	ph = it.beginSetup()
	cfg := fluid.DefaultPatchedTimelyConfig(fluidN)
	cfg.InitialRates = initialRates(rng, cfg.C)
	sp = it.span("fluid.NewPatchedTimely", ph.spanRef)
	pt, err := fluid.NewPatchedTimely(cfg)
	sp.end()
	ph.done()
	if err != nil {
		return 0, err
	}
	it.runFluid(pt, pt.QIndex(), dg)
	return dg.h.Sum64(), nil
}

// initialRates draws one start rate per flow, uniform in [0.1, 1] × c.
func initialRates(rng *rand.Rand, c float64) []float64 {
	r := make([]float64, fluidN)
	for i := range r {
		r[i] = c * (0.1 + 0.9*rng.Float64())
	}
	return r
}

// runFluid integrates m over the fluid horizon and hashes the sampled
// queue (state index q). When traced, m is wrapped to count right-hand-side
// evaluations.
func (it *iter) runFluid(m fluid.Model, q int, dg digest) {
	if it.traced() {
		m = &countingModel{Model: m, evals: &it.c.rhsEvals}
	}
	sp := it.span("fluid.Run", it.root)
	samples := fluid.Run(m, fluidStep, fluidHorizon, fluidSample)
	sp.end()
	for _, s := range samples {
		dg.float(s.T)
		dg.float(s.Y[q])
	}
}

// countingModel counts Derivs calls and forwards PostStep, so the solver
// sees exactly the wrapped model.
type countingModel struct {
	fluid.Model
	evals *int64
}

func (m *countingModel) Derivs(t float64, y []float64, past ode.History, dydt []float64) {
	*m.evals++
	m.Model.Derivs(t, y, past, dydt)
}

func (m *countingModel) PostStep(t float64, y []float64) {
	if ps, ok := m.Model.(ode.PostStepper); ok {
		ps.PostStep(t, y)
	}
}

// The stability grid: Fig. 3 DCQCN cells, Fig. 11 patched TIMELY rows and
// Theorem 2 convergence runs.
const (
	pmDCQCNFlows  = 16 // × pmDCQCNDelays DCQCN cells
	pmDCQCNDelays = 8
	pmPatched     = 64
	pmConvergence = 64
	pmMaxFlows    = 64
	pmMaxDelay    = 120e-6
	pmCycles      = 50
	pmWorkers     = 2
)

// pmSweep runs one jittered stability grid through sweep.Run with two
// workers into a JSONL checkpoint. The digest covers the rows in their
// canonical (sweep.MarshalResults) form.
func pmSweep(it *iter) (uint64, error) {
	ph := it.beginSetup()
	rng := rand.New(rand.NewSource(it.seed))
	// Jobs open their spans under the run span, which opens only when the
	// setup ends.
	var run spanRef
	jobs := pmJobs(it, &run, rng)
	dir, err := os.MkdirTemp(it.out, "pm_sweep-")
	if err != nil {
		ph.done()
		return 0, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "rows.jsonl")
	sp := it.span("sweep.OpenJSONL", ph.spanRef)
	sink, err := sweep.OpenJSONL(path, false)
	sp.end()
	ph.done()
	if err != nil {
		return 0, err
	}
	var s sweep.Sink = sink
	if it.traced() {
		s = &timedSink{Sink: sink, it: it, parent: &run}
	}

	run = it.span("run", it.root)
	sp = it.span("sweep.Run", run)
	_, err = sweep.Run(sweep.Config{Workers: pmWorkers, BaseSeed: it.seed}, jobs, s)
	sp.end()
	run.end()
	if cerr := sink.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, err
	}

	ex := it.span("export", it.root)
	sp = it.span("sweep.ReadResults", ex)
	rows, err := sweep.ReadResults(path)
	sp.end()
	var b []byte
	if err == nil {
		b, err = sweep.MarshalResults(rows)
	}
	ex.end()
	if err != nil {
		return 0, err
	}
	if len(rows) != len(jobs) {
		return 0, fmt.Errorf("sweep: %d rows for %d jobs", len(rows), len(jobs))
	}
	for _, r := range rows {
		if r.Err != "" {
			return 0, fmt.Errorf("sweep: job %s (%v): %s", r.JobID, r.Meta, r.Err)
		}
	}
	it.c.jobs += int64(len(jobs))
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64(), nil
}

// pmJobs builds the grid. N and τ* are stratified: each cell draws its
// value uniformly inside its own stratum, so every iteration covers the
// whole range with different points.
func pmJobs(it *iter, parent *spanRef, rng *rand.Rand) []sweep.Job {
	strat := func(i, n int, lo, hi float64) float64 {
		return lo + (hi-lo)*(float64(i)+rng.Float64())/float64(n)
	}
	flows := func(i, n, lo int) int { return int(strat(i, n, float64(lo), pmMaxFlows+1)) }
	var jobs []sweep.Job
	for i := 0; i < pmDCQCNFlows; i++ {
		for j := 0; j < pmDCQCNDelays; j++ {
			p := fluid.DefaultDCQCNParams(flows(i, pmDCQCNFlows, 1))
			p.TauStar = strat(j, pmDCQCNDelays, 1e-6, pmMaxDelay)
			jobs = append(jobs, it.job(parent, fmt.Sprintf("dcqcn/%02d/%d", i, j), func(_ int64, job spanRef) (map[string]float64, error) {
				sp := it.span("fixedpoint.SolveDCQCN", job)
				fp, err := fixedpoint.SolveDCQCN(p)
				sp.end()
				if err != nil {
					return nil, err
				}
				loop, err := fluid.NewDCQCNLoop(p)
				if err != nil {
					return nil, err
				}
				m, err := it.phaseMargin(loop, job)
				if err != nil {
					return nil, err
				}
				m["p_star"], m["q_star"] = fp.P, fp.Q
				return m, nil
			}))
		}
	}
	for i := 0; i < pmPatched; i++ {
		cfg := fluid.DefaultPatchedTimelyConfig(flows(i, pmPatched, 1))
		jobs = append(jobs, it.job(parent, fmt.Sprintf("patched/%02d", i), func(_ int64, job spanRef) (map[string]float64, error) {
			loop, err := fluid.NewPatchedTimelyLoop(cfg)
			if err != nil {
				return nil, err
			}
			return it.phaseMargin(loop, job)
		}))
	}
	for i := 0; i < pmConvergence; i++ {
		// One flow at line rate never overflows the queue, so the model
		// needs two flows to mark at all.
		n := flows(i, pmConvergence, 2)
		jobs = append(jobs, it.job(parent, fmt.Sprintf("thm2/%02d", i), func(seed int64, job spanRef) (map[string]float64, error) {
			cfg := convergence.Default(n)
			r := rand.New(rand.NewSource(seed))
			cfg.InitialRates = make([]float64, n)
			for k := range cfg.InitialRates {
				cfg.InitialRates[k] = cfg.C * (0.05 + 0.95*r.Float64()) / float64(n)
			}
			sp := it.span("convergence.Run", job)
			cycles, err := convergence.Run(cfg, pmCycles)
			sp.end()
			if err != nil {
				return nil, err
			}
			return map[string]float64{
				"gap_decay": convergence.GapDecayRate(cycles, 1),
				"t_end_s":   cycles[len(cycles)-1].Time,
			}, nil
		}))
	}
	return jobs
}

// job wraps run as a sweep job whose execution is a "sweep.job" span
// under *parent.
func (it *iter) job(parent *spanRef, id string, run func(seed int64, job spanRef) (map[string]float64, error)) sweep.Job {
	model, _, _ := strings.Cut(id, "/")
	return sweep.Job{
		ID:   id,
		Meta: map[string]string{"model": model},
		Run: func(seed int64) (map[string]float64, error) {
			sp := it.span("sweep.job", *parent)
			defer sp.end()
			return run(seed, sp)
		},
	}
}

// phaseMargin evaluates the loop's phase margin. An unbounded margin (the
// loop gain never reaches 1) is reported as its own metric, because JSON
// has no infinity.
func (it *iter) phaseMargin(loop stability.LoopModel, parent spanRef) (map[string]float64, error) {
	sp := it.span("stability.PhaseMargin", parent)
	res, err := stability.PhaseMargin(loop)
	sp.end()
	if err != nil {
		return nil, err
	}
	if math.IsInf(res.PhaseMarginDeg, 1) {
		return map[string]float64{"pm_unbounded": 1}, nil
	}
	return map[string]float64{"pm_deg": res.PhaseMarginDeg, "crossover_rad_s": res.CrossoverRadPerSec}, nil
}

// timedSink times the sweep's checkpoint writes.
type timedSink struct {
	sweep.Sink
	it     *iter
	parent *spanRef
}

func (s *timedSink) Write(r sweep.Result) error {
	sp := s.it.span("sweep.Sink.Write", *s.parent)
	defer sp.end()
	return s.Sink.Write(r)
}
