package exp

import (
	"fmt"

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

// FCTConfig drives one §5.1 flow-completion-time run on the Figure 13
// dumbbell (10 senders, 10 receivers, all links 10 Gb/s with 1 µs latency).
type FCTConfig struct {
	Protocol   Protocol
	LoadFactor float64 // 1.0 = 8 Gb/s average on the bottleneck
	Horizon    float64 // seconds of workload generation
	Warmup     float64 // flows starting earlier are excluded from stats
	Drain      float64 // extra simulated seconds to let flows finish
	Seed       int64
	Senders    int   // default 10
	Receivers  int   // default 10
	SmallBytes int64 // small-flow threshold, default 100 KB
	// TimelyPerPacket switches TIMELY to idealised per-packet pacing;
	// the default (false) is the implementation's per-burst chunk pacing.
	TimelyPerPacket bool
	// TimelySeg overrides the TIMELY segment/chunk size in bytes.
	TimelySeg int
	// TimelyHAI enables hyper-active increase (part of Algorithm 1 in
	// [21]; the fluid analysis ignores it).
	TimelyHAI bool
	// TimelyGradClamp bounds the normalised gradient (see timely.Params).
	TimelyGradClamp float64
	// QueueSampleEvery controls bottleneck queue monitoring (default 100µs).
	QueueSampleEvery des.Duration

	// Fault injection and loss recovery. All-zero means a fault-free run
	// that is bit-identical to the pre-fault revision of this experiment.
	DataLossRate float64 // i.i.d. drop probability for data on the forward trunk
	CtrlLossRate float64 // i.i.d. drop probability for acks/NACKs/CNPs on the reverse trunk
	FaultSeed    int64   // seed for the loss draws, independent of Seed
	// Recovery enables go-back-N loss recovery at every endpoint; without
	// it a single lost data packet permanently wedges its flow.
	Recovery bool
	RTO      des.Duration // retransmission timeout under Recovery (0: protocol default)
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
	SmallFCT  []float64 // seconds, flows < SmallBytes
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
	if cfg.Senders == 0 {
		cfg.Senders = 10
	}
	if cfg.Receivers == 0 {
		cfg.Receivers = 10
	}
	if cfg.SmallBytes == 0 {
		cfg.SmallBytes = 100e3
	}
	if cfg.QueueSampleEvery == 0 {
		cfg.QueueSampleEvery = 100 * des.Microsecond
	}
	if cfg.LoadFactor <= 0 || cfg.Horizon <= 0 {
		return nil, fmt.Errorf("exp: bad FCT config %+v", cfg)
	}

	const linkBW = 10e9 / 8 // bytes/s
	nw := netsim.New(cfg.Seed)
	if cfg.Observer != nil {
		// Before the topology and endpoints exist, so ports and protocol
		// engines bind their counters as they are created.
		nw.SetObserver(cfg.Observer)
	}
	var marker netsim.MarkerFactory
	if cfg.Protocol == ProtoDCQCN {
		marker = hybrid.NewDCQCNScenario(cfg.Senders, cfg.Seed).Marker(nw)
	}
	d := netsim.NewDumbbell(nw, netsim.DumbbellConfig{
		Senders: cfg.Senders, Receivers: cfg.Receivers,
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
		Senders: cfg.Senders, Receivers: cfg.Receivers,
		Horizon: cfg.Horizon,
		Seed:    cfg.Seed + 1,
	})
	if err != nil {
		return nil, err
	}

	res := &FCTResult{Generated: len(flows)}
	start := make(map[int]float64, len(flows))
	size := make(map[int]int64, len(flows))
	for _, f := range flows {
		start[f.ID] = f.Start
		size[f.ID] = f.Size
	}
	// fctAllH/fctSmallH stream the same completion times the slices above
	// collect into mergeable histograms (nil without an observer HistSet).
	fctAllH := cfg.Observer.Hist(cfg.HistPrefix + "fct_all_s")
	fctSmallH := cfg.Observer.Hist(cfg.HistPrefix + "fct_small_s")
	complete := func(flowID int, at des.Time) {
		s, ok := start[flowID]
		if !ok {
			return
		}
		res.Completed++
		if s < cfg.Warmup {
			return
		}
		fct := at.Seconds() - s
		res.AllFCT = append(res.AllFCT, fct)
		if size[flowID] < cfg.SmallBytes {
			res.SmallFCT = append(res.SmallFCT, fct)
		}
		if fctAllH != nil {
			fctAllH.Record(fct)
		}
		if size[flowID] < cfg.SmallBytes && fctSmallH != nil {
			fctSmallH.Record(fct)
		}
	}

	// Attach protocol endpoints and schedule the flows. gatherFaultStats
	// is filled per protocol so the end of the run can sum goodput and
	// recovery work without holding protocol types here.
	var gatherFaultStats func()
	switch cfg.Protocol {
	case ProtoDCQCN:
		params := dcqcn.DefaultParams()
		params.Recovery = cfg.Recovery
		params.RTO = cfg.RTO
		var eps []*dcqcn.Endpoint
		for _, h := range d.Senders {
			ep, err := dcqcn.NewEndpoint(h, params)
			if err != nil {
				return nil, err
			}
			eps = append(eps, ep)
		}
		var rxEps []*dcqcn.Endpoint
		for _, h := range d.Receivers {
			ep, err := dcqcn.NewEndpoint(h, params)
			if err != nil {
				return nil, err
			}
			ep.OnComplete = func(c dcqcn.Completion) { complete(c.Flow, c.At) }
			rxEps = append(rxEps, ep)
		}
		var senders []*dcqcn.Sender
		for _, f := range flows {
			s, err := eps[f.Sender].NewFlow(f.ID, d.Receivers[f.Recv].ID(),
				f.Size, des.Time(des.DurationFromSeconds(f.Start)))
			if err != nil {
				return nil, err
			}
			senders = append(senders, s)
		}
		gatherFaultStats = func() {
			for _, ep := range rxEps {
				res.Goodput += ep.TotalRxBytes()
			}
			for _, s := range senders {
				st := s.Recovery()
				res.RetxBytes += st.RetxBytes
				res.RecoveryTime += st.RecoveryTime.Seconds()
			}
		}
	case ProtoTimely, ProtoPatchedTimely:
		// The TIMELY implementation paces 16-64 KB chunks at line rate
		// (§4.2); the FCT comparison runs it as deployed.
		params := timely.DefaultParams()
		if cfg.Protocol == ProtoPatchedTimely {
			params = timely.DefaultPatchedParams()
		}
		params.Burst = cfg.TimelyPerPacket == false
		if cfg.TimelySeg > 0 {
			params.Seg = cfg.TimelySeg
		}
		params.HAI = cfg.TimelyHAI
		params.GradClamp = cfg.TimelyGradClamp
		params.Recovery = cfg.Recovery
		params.RTO = cfg.RTO
		var eps []*timely.Endpoint
		for _, h := range d.Senders {
			ep, err := timely.NewEndpoint(h, params)
			if err != nil {
				return nil, err
			}
			eps = append(eps, ep)
		}
		var rxEps []*timely.Endpoint
		for _, h := range d.Receivers {
			ep, err := timely.NewEndpoint(h, params)
			if err != nil {
				return nil, err
			}
			ep.OnComplete = func(c timely.Completion) { complete(c.Flow, c.At) }
			rxEps = append(rxEps, ep)
		}
		var senders []*timely.Sender
		for _, f := range flows {
			s, err := eps[f.Sender].NewFlow(f.ID, d.Receivers[f.Recv].ID(),
				f.Size, des.Time(des.DurationFromSeconds(f.Start)), 0)
			if err != nil {
				return nil, err
			}
			senders = append(senders, s)
		}
		gatherFaultStats = func() {
			for _, ep := range rxEps {
				res.Goodput += ep.TotalRxBytes()
			}
			for _, s := range senders {
				st := s.Recovery()
				res.RetxBytes += st.RetxBytes
				res.RecoveryTime += st.RecoveryTime.Seconds()
			}
		}
	default:
		return nil, fmt.Errorf("exp: unknown protocol %v", cfg.Protocol)
	}

	res.Queue = netsim.MonitorQueueBytes(nw.Sim, d.Bottleneck, cfg.QueueSampleEvery)
	if o := cfg.Observer; o != nil && o.Probes != nil {
		name := cfg.ProbeName
		if name == "" {
			name = "queue_bytes"
		}
		q := d.Bottleneck.Queue()
		o.Probes.NewProbe(o.ProbeName(name), 0).Drive(nw.Sim, o.ProbeCadence(), func() float64 {
			return float64(q.Bytes())
		})
	}
	var txAtWarm, txAtEnd int64
	nw.Sim.At(des.Time(des.DurationFromSeconds(cfg.Warmup)), func() { txAtWarm = d.Bottleneck.TxBytes })
	nw.Sim.At(des.Time(des.DurationFromSeconds(cfg.Horizon)), func() { txAtEnd = d.Bottleneck.TxBytes })
	nw.RunUntil(des.Time(des.DurationFromSeconds(cfg.Horizon + cfg.Drain)))
	if o := cfg.Observer; o != nil && o.Check != nil {
		o.Check.Finish(nw.Sim.Now())
	}
	res.Utilisation = float64(txAtEnd-txAtWarm) / (linkBW * (cfg.Horizon - cfg.Warmup))
	res.Unfinished = res.Generated - res.Completed
	res.RawTxBytes = d.Bottleneck.TxBytes
	gatherFaultStats()
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
