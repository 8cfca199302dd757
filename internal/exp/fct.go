package exp

import (
	"fmt"
	"math/rand"

	"ecndelay/internal/dcqcn"
	"ecndelay/internal/des"
	"ecndelay/internal/fault"
	"ecndelay/internal/hybrid"
	"ecndelay/internal/netsim"
	"ecndelay/internal/obs"
	"ecndelay/internal/stats"
	"ecndelay/internal/timely"
	"ecndelay/internal/workload"
)

// Protocol selects the congestion control scheme for the FCT experiments.
type Protocol int

// The three schemes Figure 14-16 compare.
const (
	ProtoDCQCN Protocol = iota
	ProtoTimely
	ProtoPatchedTimely
)

func (p Protocol) String() string {
	switch p {
	case ProtoDCQCN:
		return "DCQCN"
	case ProtoTimely:
		return "TIMELY"
	case ProtoPatchedTimely:
		return "Patched TIMELY"
	}
	return "?"
}

// The Figure 13 dumbbell and its accounting: 10 senders and 10 receivers,
// a small flow is one under 100 KB, and the bottleneck queue is sampled
// every 100 µs.
const (
	fctHosts         = 10
	smallFlowBytes   = 100e3
	queueSampleEvery = 100 * des.Microsecond
)

// FCTConfig drives one §5.1 flow-completion-time run on the Figure 13
// dumbbell (10 senders, 10 receivers, all links 10 Gb/s with 1 µs latency).
type FCTConfig struct {
	Protocol   Protocol
	LoadFactor float64 // 1.0 = 8 Gb/s average on the bottleneck
	Horizon    float64 // seconds of workload generation
	Warmup     float64 // flows starting earlier are excluded from stats
	Drain      float64 // extra simulated seconds to let flows finish
	Seed       int64

	// Fault injection and loss recovery. All-zero means a fault-free run
	// that is bit-identical to the pre-fault revision of this experiment.
	DataLossRate float64 // i.i.d. drop probability for data on the forward trunk
	CtrlLossRate float64 // i.i.d. drop probability for acks/NACKs/CNPs on the reverse trunk
	FaultSeed    int64   // seed for the loss draws, independent of Seed
	// Recovery enables go-back-N loss recovery, with the protocol's
	// default timeout, at every endpoint; without it a single lost data
	// packet permanently wedges its flow.
	Recovery bool
	// SwitchQueueCap bounds every switch egress queue in bytes (0:
	// unbounded, the lossless default); overflow tail-drops.
	SwitchQueueCap int

	// Observer attaches the observability layer to the run's network. When
	// it carries a ProbeSet, the run registers a bottleneck-occupancy probe
	// at the observer's cadence; when it carries a Checker, the end-of-run
	// conservation closure is checked automatically. Nil — the default —
	// keeps the run bit-identical to an unobserved one.
	Observer *obs.NetObserver
	// ProbeName names the auto-registered bottleneck probe (default
	// "queue_bytes"), further qualified by the observer's ProbePrefix.
	// Callers running several observed FCT configs against one ProbeSet
	// (the fig14/15/16 load×protocol grids) set it per sub-run so the
	// exported series stay distinguishable.
	ProbeName string
	// HistPrefix prefixes the run's flow-completion-time histogram names
	// ("fct_all_s", "fct_small_s") before the observer's ProbeName
	// qualification, playing the same per-sub-run role as ProbeName for
	// the latency distributions.
	HistPrefix string
}

// FCTResult aggregates one run.
type FCTResult struct {
	SmallFCT  []float64 // seconds, flows under 100 KB
	AllFCT    []float64
	Generated int
	Completed int
	Queue     *stats.Series // bottleneck occupancy, bytes
	// Utilisation is delivered bottleneck bytes over capacity×time in
	// [Warmup, Horizon].
	Utilisation float64

	// Degradation metrics — what the injected faults cost the run. All
	// zero on a fault-free, recovery-off run.
	WireDrops   int64 // packets destroyed by injected loss or downed links
	BufferDrops int64 // packets tail-dropped by finite switch buffers
	RetxBytes   int64 // bytes retransmitted by go-back-N
	Goodput     int64 // in-order payload bytes delivered at the receivers
	RawTxBytes  int64 // bytes the bottleneck trunk carried (retransmissions included)
	// RecoveryTime is total sender-seconds spent inside recovery episodes
	// (first rewind until the cumulative ack catches the high-water mark).
	RecoveryTime float64
	Unfinished   int // flows generated but never completed
}

// RunFCT executes the experiment.
func RunFCT(cfg FCTConfig) (*FCTResult, error) {
	if cfg.LoadFactor <= 0 || cfg.Horizon <= 0 {
		return nil, fmt.Errorf("exp: bad FCT config %+v", cfg)
	}

	const linkBW = 10e9 / 8 // bytes/s
	nw := netsim.New(cfg.Seed)
	// Before the topology and endpoints exist, so ports and protocol
	// engines bind their counters as they are created.
	nw.SetObserver(cfg.Observer)
	var marker netsim.MarkerFactory
	if cfg.Protocol == ProtoDCQCN {
		marker = hybrid.NewDCQCNScenario(fctHosts, cfg.Seed).Marker(nw)
	}
	d := netsim.NewDumbbell(nw, netsim.DumbbellConfig{
		Senders: fctHosts, Receivers: fctHosts,
		Link:           netsim.LinkConfig{Bandwidth: linkBW, PropDelay: des.Microsecond},
		Mark:           marker,
		SwitchQueueCap: cfg.SwitchQueueCap,
	})

	// Loss on the trunk: data forward, protocol feedback on the way back.
	// A nil plan keeps the run byte-identical to a fault-free one.
	var applied *fault.Applied
	if cfg.DataLossRate > 0 || cfg.CtrlLossRate > 0 {
		plan := &fault.Plan{Seed: cfg.FaultSeed}
		if cfg.DataLossRate > 0 {
			plan.Links = append(plan.Links, fault.LinkFaults{
				Port: d.Bottleneck,
				Loss: []fault.Loss{{Kinds: fault.SelData, Rate: cfg.DataLossRate}},
			})
		}
		if cfg.CtrlLossRate > 0 {
			plan.Links = append(plan.Links, fault.LinkFaults{
				Port: d.Reverse,
				Loss: []fault.Loss{{Kinds: fault.SelCtrl, Rate: cfg.CtrlLossRate}},
			})
		}
		applied = plan.Apply(nw)
	}

	flows, err := workload.Generate(workload.Config{
		Load:    cfg.LoadFactor * 1e9, // load 1.0 = 8 Gb/s = 1e9 B/s
		Sizes:   workload.WebSearch(),
		Senders: fctHosts, Receivers: fctHosts,
		Horizon: cfg.Horizon,
		Seed:    cfg.Seed + 1,
	})
	if err != nil {
		return nil, err
	}

	// Hosts 0-9 send, hosts 10-19 receive. The TIMELY implementation
	// paces 16 KB chunks at line rate (§4.2); the FCT comparison runs it
	// as deployed.
	hosts := append(append([]*netsim.Host(nil), d.Senders...), d.Receivers...)
	fr, err := newFlowRun(nw, cfg.Observer, hosts, cfg.Protocol, true, cfg.Recovery,
		func(f workload.Flow) int { return fctHosts + f.Recv }, cfg.HistPrefix)
	if err != nil {
		return nil, err
	}
	fr.warmup = cfg.Warmup
	senders, err := fr.startAll(flows)
	if err != nil {
		return nil, err
	}

	res := &FCTResult{Generated: len(flows)}
	res.Queue = netsim.MonitorQueueBytes(nw.Sim, d.Bottleneck, queueSampleEvery)
	name := cfg.ProbeName
	if name == "" {
		name = "queue_bytes"
	}
	fr.probe(name, d.Bottleneck)
	var txAtWarm, txAtEnd int64
	nw.Sim.At(at(cfg.Warmup), func() { txAtWarm = d.Bottleneck.TxBytes })
	nw.Sim.At(at(cfg.Horizon), func() { txAtEnd = d.Bottleneck.TxBytes })
	if err := fr.run(cfg.Horizon + cfg.Drain); err != nil {
		return nil, err
	}

	res.AllFCT = fr.fcts
	smallH := cfg.Observer.Hist(cfg.HistPrefix + "fct_small_s")
	for i, fct := range fr.fcts {
		if fr.sizes[i] < smallFlowBytes {
			res.SmallFCT = append(res.SmallFCT, fct)
			if smallH != nil {
				smallH.Record(fct)
			}
		}
	}
	res.Completed = fr.completed
	res.Utilisation = float64(txAtEnd-txAtWarm) / (linkBW * (cfg.Horizon - cfg.Warmup))
	res.Unfinished = res.Generated - res.Completed
	res.RawTxBytes = d.Bottleneck.TxBytes
	for _, ep := range fr.eps {
		res.Goodput += ep.TotalRxBytes()
	}
	for _, s := range senders {
		st := s.Recovery()
		res.RetxBytes += st.RetxBytes
		res.RecoveryTime += st.RecoveryTime.Seconds()
	}
	if applied != nil {
		res.WireDrops = applied.Drops()
	}
	for _, sw := range []*netsim.Switch{d.SW1, d.SW2} {
		for _, p := range sw.Ports() {
			res.BufferDrops += p.Queue().Drops()
		}
	}
	return res, nil
}

// flowRun is the flow-completion harness under RunFCT and runClos: one
// endpoint of the protocol on every host, flows started from a list or
// pulled lazily from a PoissonStream, and one accounting that turns each
// completion into an FCT sample and a histogram record. The callers build
// the fabric around it and read their own fabric counters.
type flowRun struct {
	nw     *netsim.Network
	ob     *obs.NetObserver
	eps    []*netsim.Endpoint // one per host, in host order
	warmup float64            // flows starting earlier complete untimed
	// newFlow starts flow f on its sender's endpoint.
	newFlow  func(f workload.Flow) (*netsim.Sender, error)
	inFlight map[int]workload.Flow // started, not yet complete
	fctH     *obs.Hist
	err      error // the stream flow that failed to start

	generated, completed, peakInFlight int
	fcts                               []float64 // timed completions, in completion order
	sizes                              []int64   // their flow sizes
}

// newFlowRun puts one endpoint of proto on every host; recvOf maps a flow
// to its receiving host's index. TIMELY paces 16 KB bursts when burst is
// set, and recovery turns on go-back-N at every endpoint. The run's FCTs
// feed the observer's histPrefix+"fct_all_s" histogram.
func newFlowRun(nw *netsim.Network, ob *obs.NetObserver, hosts []*netsim.Host, proto Protocol,
	burst, recovery bool, recvOf func(workload.Flow) int, histPrefix string) (*flowRun, error) {
	r := &flowRun{nw: nw, ob: ob, inFlight: make(map[int]workload.Flow), fctH: ob.Hist(histPrefix + "fct_all_s")}
	dst := func(f workload.Flow) int { return hosts[recvOf(f)].ID() }
	switch proto {
	case ProtoDCQCN:
		params := dcqcn.DefaultParams()
		params.Recovery = recovery
		eps := make([]*dcqcn.Endpoint, len(hosts))
		for i, h := range hosts {
			ep, err := dcqcn.NewEndpoint(h, params)
			if err != nil {
				return nil, err
			}
			ep.OnComplete = r.complete
			eps[i] = ep
			r.eps = append(r.eps, &ep.Endpoint)
		}
		r.newFlow = func(f workload.Flow) (*netsim.Sender, error) {
			s, err := eps[f.Sender].NewFlow(f.ID, dst(f), f.Size, at(f.Start))
			if err != nil {
				return nil, err
			}
			return &s.Sender, nil
		}
	case ProtoTimely, ProtoPatchedTimely:
		params := timely.DefaultParams()
		if proto == ProtoPatchedTimely {
			params = timely.DefaultPatchedParams()
		}
		params.Burst = burst
		params.Recovery = recovery
		eps := make([]*timely.Endpoint, len(hosts))
		for i, h := range hosts {
			ep, err := timely.NewEndpoint(h, params)
			if err != nil {
				return nil, err
			}
			ep.OnComplete = r.complete
			eps[i] = ep
			r.eps = append(r.eps, &ep.Endpoint)
		}
		r.newFlow = func(f workload.Flow) (*netsim.Sender, error) {
			s, err := eps[f.Sender].NewFlow(f.ID, dst(f), f.Size, at(f.Start), 0)
			if err != nil {
				return nil, err
			}
			return &s.Sender, nil
		}
	default:
		return nil, fmt.Errorf("exp: unknown protocol %v", proto)
	}
	return r, nil
}

// start schedules flow f and counts it in flight.
func (r *flowRun) start(f workload.Flow) (*netsim.Sender, error) {
	r.inFlight[f.ID] = f
	r.generated++
	r.peakInFlight = max(r.peakInFlight, len(r.inFlight))
	return r.newFlow(f)
}

// startAll schedules every flow of a list before the clock runs and
// returns their senders in list order.
func (r *flowRun) startAll(flows []workload.Flow) ([]*netsim.Sender, error) {
	senders := make([]*netsim.Sender, 0, len(flows))
	for _, f := range flows {
		s, err := r.start(f)
		if err != nil {
			return nil, err
		}
		senders = append(senders, s)
	}
	return senders, nil
}

// stream plays lazy churn: each arrival event starts its flow and pulls
// the next one from the stream, so the run never holds the horizon's
// worth of arrivals. The first pull happens before the clock runs. A flow
// that fails to start ends the stream, and run returns its error.
func (r *flowRun) stream(s *workload.PoissonStream, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	var arm func(f workload.Flow)
	arm = func(f workload.Flow) {
		r.nw.Sim.At(at(f.Start), func() {
			if _, err := r.start(f); err != nil {
				r.err = err
				return
			}
			if next, ok := s.Next(rng); ok {
				arm(next)
			}
		})
	}
	if f, ok := s.Next(rng); ok {
		arm(f)
	}
}

// complete is every endpoint's OnComplete: one flow of the run has
// delivered its last byte.
func (r *flowRun) complete(c netsim.Completion) {
	f, ok := r.inFlight[c.Flow]
	if !ok {
		return
	}
	delete(r.inFlight, c.Flow)
	r.completed++
	if f.Start < r.warmup {
		return
	}
	fct := c.At.Seconds() - f.Start
	r.fcts = append(r.fcts, fct)
	r.sizes = append(r.sizes, f.Size)
	if r.fctH != nil {
		r.fctH.Record(fct)
	}
}

// probe samples port's queue occupancy into the observer's ProbeSet, if
// it has one, as the series name at the observer's cadence.
func (r *flowRun) probe(name string, port *netsim.Port) {
	if o := r.ob; o != nil && o.Probes != nil {
		q := port.Queue()
		o.Probes.NewProbe(o.ProbeName(name), 0).Drive(r.nw.Sim, o.ProbeCadence(), func() float64 {
			return float64(q.Bytes())
		})
	}
}

// run runs the network until the given second, then closes the invariant
// books of the observer's checker.
func (r *flowRun) run(until float64) error {
	r.nw.RunUntil(at(until))
	if o := r.ob; o != nil && o.Check != nil {
		o.Check.Finish(r.nw.Sim.Now())
	}
	return r.err
}

// at converts seconds to a simulated instant.
func at(seconds float64) des.Time { return des.Time(des.DurationFromSeconds(seconds)) }
