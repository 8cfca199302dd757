package exp

// Extensions: the §7 "future work" items the paper names — multiple
// bottlenecks, PFC-induced PAUSE effects, and the PI controller running in
// the switch datapath rather than only in the fluid model.

import (
	"fmt"

	"ecndelay/internal/dcqcn"
	"ecndelay/internal/des"
	"ecndelay/internal/fluid"
	"ecndelay/internal/hybrid"
	"ecndelay/internal/netsim"
	"ecndelay/internal/stats"
)

func init() {
	register(Runner{
		ID: "extmultihop", Title: "Multi-bottleneck (parking lot) fairness", Figure: "§7 future work",
		Run: runExtMultihop,
	})
	register(Runner{
		ID: "extpfc", Title: "PFC-induced PAUSE: head-of-line blocking and the CC rescue", Figure: "§7 future work",
		Run: runExtPFC,
	})
	register(Runner{
		ID: "extpi", Title: "PI marking in the switch datapath (packet level)", Figure: "§7 future work",
		Run: runExtPI,
	})
}

// runExtMultihop puts one long DCQCN flow across every trunk of a 3-switch
// parking lot against a cross flow on each trunk, and reports the
// throughput split: the long flow is marked at two bottlenecks and ends
// below the per-trunk fair share — the multi-bottleneck behaviour the
// single-bottleneck fluid models cannot express.
func runExtMultihop(o Options) (*Report, error) {
	rep := &Report{ID: "extmultihop", Title: "DCQCN on the parking-lot chain"}
	horizon := 0.12
	if o.Scale == Quick {
		horizon = 0.06
	}
	sc := hybrid.NewDCQCNScenario(3, o.Seed)
	nw := netsim.New(o.Seed)
	nw.SetObserver(o.Observer)
	pl := netsim.NewParkingLot(nw, netsim.ParkingLotConfig{
		Hops: 3,
		Link: netsim.LinkConfig{Bandwidth: sc.BwBytes(), PropDelay: des.Microsecond},
		Mark: sc.Marker(nw),
	})
	params := dcqcn.DefaultParams()
	for _, r := range pl.Recvs {
		if _, err := dcqcn.NewEndpoint(r, params); err != nil {
			return nil, err
		}
	}
	// The long flow S0→R2 crosses trunks 0 and 1. Each trunk also gets
	// one single-hop cross flow, chosen so no flow shares a sender NIC
	// with another: R0→S1 loads trunk 0 (any host may send) and S1→R2
	// loads trunk 1.
	type flowDef struct {
		name string
		src  *netsim.Host
		dst  *netsim.Host
	}
	defs := []flowDef{
		{"long S0→R2 (2 trunks)", pl.Senders[0], pl.Recvs[2]},
		{"cross R0→S1 (trunk 0)", pl.Recvs[0], pl.Senders[1]},
		{"cross S1→R2 (trunk 1)", pl.Senders[1], pl.Recvs[2]},
	}
	// The cross destinations must also run endpoints (S1 receives).
	if _, err := dcqcn.NewEndpoint(pl.Senders[1], params); err != nil {
		return nil, err
	}
	var senders []*dcqcn.Sender
	for i, d := range defs {
		var ep *dcqcn.Endpoint
		var err error
		if d.src.Transport == nil {
			ep, err = dcqcn.NewEndpoint(d.src, params)
			if err != nil {
				return nil, err
			}
		} else {
			ep = d.src.Transport.(*dcqcn.Endpoint)
		}
		s, err := ep.NewFlow(i, d.dst.ID(), -1, 0)
		if err != nil {
			return nil, err
		}
		senders = append(senders, s)
	}
	rates := make([]*stats.Series, len(senders))
	for i := range rates {
		rates[i] = &stats.Series{}
	}
	nw.Sim.Every(0, 100*des.Microsecond, func() {
		ts := nw.Sim.Now().Seconds()
		for i, s := range senders {
			rates[i].Add(ts, s.Rate())
		}
	})
	nw.RunUntil(des.Time(des.DurationFromSeconds(horizon)))

	tbl := Table{Cols: []string{"flow", "rate Gb/s", "share of 40G"}}
	var longRate, crossMean float64
	for i, d := range defs {
		m := rates[i].WindowSummary(horizon*0.6, horizon).Mean
		tbl.Rows = append(tbl.Rows, []string{d.name, f2(m * 8 / 1e9), f3(m * 8 / 40e9)})
		if i == 0 {
			longRate = m
		} else {
			crossMean += m / 2
		}
	}
	rep.Tables = append(rep.Tables, tbl)
	rep.AddMetric("long_over_cross", longRate/crossMean)
	rep.Notes = append(rep.Notes,
		"the long flow is marked at every bottleneck it crosses and settles below the single-hop cross flows — proportional-fair-like, not max-min, pressure")
	return rep, nil
}

// rawBlaster pumps MTU packets at a fixed rate with no congestion control,
// standing in for a misbehaving (or simply non-CC) RoCE sender.
type rawBlaster struct {
	h    *netsim.Host
	dst  int
	rate float64
}

func (r *rawBlaster) start() {
	var loop func()
	gap := des.DurationFromSeconds(netsim.DataMTU / r.rate)
	loop = func() {
		r.h.Send(&netsim.Packet{Flow: -1, Dst: r.dst, Size: netsim.DataMTU, Kind: netsim.Data, ECT: true})
		r.h.Sim().Schedule(gap, loop)
	}
	r.h.Sim().Schedule(0, loop)
}

// runExtPFC shows PFC's head-of-line blocking: two line-rate senders
// overload one receiver, and a victim flow toward a different, idle
// receiver collapses once PFC pauses the shared trunk — unless DCQCN keeps
// the queues below the PFC threshold in the first place.
func runExtPFC(o Options) (*Report, error) {
	rep := &Report{ID: "extpfc", Title: "PFC PAUSE propagation on the dumbbell"}
	horizon := 0.05
	if o.Scale == Quick {
		horizon = 0.02
	}
	const bw = 1.25e9 // 10 Gb/s

	run := func(pfc netsim.PFCConfig, useDCQCN bool) (victimShare float64, err error) {
		nw := netsim.New(o.Seed)
		nw.SetObserver(o.Observer)
		var mark netsim.MarkerFactory
		if useDCQCN {
			mark = hybrid.NewDCQCNScenario(3, o.Seed).Marker(nw)
		}
		// Host links 10 Gb/s, trunk 40 Gb/s: the overload forms at the
		// shared receiver's egress inside SW2, and PFC then pauses the
		// trunk that the victim's traffic also crosses.
		d := netsim.NewDumbbell(nw, netsim.DumbbellConfig{
			Senders: 3, Receivers: 2,
			Link:           netsim.LinkConfig{Bandwidth: bw, PropDelay: des.Microsecond},
			TrunkBandwidth: 4 * bw,
			Mark:           mark,
			PFC:            pfc,
		})
		victimRx := d.Receivers[1]
		victimBytes := int64(0)
		countVictim := func(pkt *netsim.Packet) {
			victimBytes += int64(pkt.Size)
		}
		if useDCQCN {
			params := dcqcn.DefaultParams()
			for _, r := range d.Receivers {
				ep, err := dcqcn.NewEndpoint(r, params)
				if err != nil {
					return 0, err
				}
				_ = ep
			}
			// Wrap the victim receiver to count bytes.
			inner := victimRx.Transport
			victimRx.Transport = netsim.TransportFunc(func(h *netsim.Host, pkt *netsim.Packet) {
				countVictim(pkt)
				inner.Handle(h, pkt)
			})
			for i, src := range d.Senders {
				ep, err := dcqcn.NewEndpoint(src, params)
				if err != nil {
					return 0, err
				}
				dst := d.Receivers[0]
				if i == 2 {
					dst = victimRx
				}
				if _, err := ep.NewFlow(i, dst.ID(), -1, 0); err != nil {
					return 0, err
				}
			}
		} else {
			victimRx.Transport = netsim.TransportFunc(func(h *netsim.Host, pkt *netsim.Packet) {
				countVictim(pkt)
			})
			for i, src := range d.Senders {
				dst := d.Receivers[0]
				if i == 2 {
					dst = victimRx
				}
				b := &rawBlaster{h: src, dst: dst.ID(), rate: bw}
				b.start()
			}
		}
		nw.RunUntil(des.Time(des.DurationFromSeconds(horizon)))
		// The victim alone could use the full trunk share it asks for;
		// its fair entitlement here is ~bw/3 of the trunk (three flows),
		// but its own egress is idle, so anything far below bw/3 is HoL
		// damage.
		return float64(victimBytes) / horizon / bw, nil
	}

	tbl := Table{Cols: []string{"scenario", "victim throughput / line rate"}}
	cases := []struct {
		name  string
		pfc   netsim.PFCConfig
		dcqcn bool
		key   string
	}{
		{"raw senders, no PFC (infinite buffer)", netsim.PFCConfig{}, false, "raw_nopfc"},
		{"raw senders, PFC 300KB/150KB", netsim.PFCConfig{PauseBytes: 300e3, ResumeBytes: 150e3}, false, "raw_pfc"},
		{"DCQCN senders, PFC 300KB/150KB", netsim.PFCConfig{PauseBytes: 300e3, ResumeBytes: 150e3}, true, "dcqcn_pfc"},
	}
	for _, c := range cases {
		share, err := run(c.pfc, c.dcqcn)
		if err != nil {
			return nil, err
		}
		tbl.Rows = append(tbl.Rows, []string{c.name, f3(share)})
		rep.AddMetric("victim_share_"+c.key, share)
	}
	rep.Tables = append(rep.Tables, tbl)
	rep.Notes = append(rep.Notes,
		"PFC pauses the whole trunk, so an innocent flow to an idle receiver is blocked behind the incast (head-of-line blocking);",
		"end-to-end congestion control keeps the switch queues below the PAUSE threshold and the victim recovers — the reason RoCEv2 needs DCQCN/TIMELY at all (§2)")
	return rep, nil
}

// runExtPI replaces RED with the Eq. 32 PI controller in the packet-level
// switch and shows the queue pinning at the reference for different flow
// counts — the fluid-model Figure 18 running in the datapath.
func runExtPI(o Options) (*Report, error) {
	rep := &Report{ID: "extpi", Title: "Packet-level DCQCN with PI AQM at the bottleneck"}
	horizon := 0.8
	ns := []int{2, 10}
	if o.Scale == Quick {
		horizon = 0.5
	}
	// The gains are the fluid Figure 18 controller's; PMax is the
	// anti-windup cap sized just above the largest equilibrium marking
	// probability in the sweep.
	pi := &fluid.PIConfig{K1: 2e-5, K2: 1e-3, QRef: 50, PMax: 0.02}
	tbl := Table{Cols: []string{"marking", "N", "queue KB (mean)", "queue CV"}}
	for _, usePI := range []bool{false, true} {
		for _, n := range ns {
			sc := hybrid.NewDCQCNScenario(n, o.Seed)
			if usePI {
				sc.PI = pi
			}
			nw, star, _, err := sc.Star(o.Observer, nil)
			if err != nil {
				return nil, err
			}
			qs := netsim.MonitorQueueBytes(nw.Sim, star.Bottleneck, 100*des.Microsecond)
			nw.RunUntil(des.Time(des.DurationFromSeconds(horizon)))
			q := qs.WindowSummary(horizon*0.6, horizon)
			name := "RED"
			if usePI {
				name = "PI"
			}
			tbl.Rows = append(tbl.Rows, []string{name, fmt.Sprint(n), f1(q.Mean / 1000), f2(q.CV())})
			rep.AddMetric(fmt.Sprintf("%s_q_kb_N%d", name, n), q.Mean/1000)
		}
	}
	rep.Tables = append(rep.Tables, tbl)
	rep.AddMetric("qref_kb", pi.QRef) // packets of 1 KB
	rep.Notes = append(rep.Notes,
		"RED's operating queue grows with N (Eq. 9/14); the PI controller holds the MEAN at the reference independent of N — §7's 'full exploration of PI like controllers' running on packets",
		"the packet-level PI orbit is noisier than the fluid one (Fig. 18): marking is Bernoulli and DCQCN's line-rate starts slam the integrator against its anti-windup cap")
	return rep, nil
}
