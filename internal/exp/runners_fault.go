package exp

// Fault scenarios: the robustness extension. The paper's evaluation
// assumes a lossless PFC fabric, so neither DCQCN nor TIMELY ever sees a
// lost packet. These experiments inject loss with internal/fault and
// measure what go-back-N recovery salvages — and what losing the
// congestion-feedback channel itself does to stability.

import (
	"fmt"

	"ecndelay/internal/des"
	"ecndelay/internal/fault"
	"ecndelay/internal/hybrid"
	"ecndelay/internal/netsim"
	"ecndelay/internal/stats"
)

func init() {
	register(Runner{
		ID: "faultloss", Title: "FCT and goodput under injected packet loss", Figure: "robustness extension",
		Run: runFaultLoss,
	})
	register(Runner{
		ID: "faultcnp", Title: "DCQCN queue stability when CNPs are lost", Figure: "robustness extension",
		Run: runFaultCNP,
	})
}

// runFaultLoss sweeps an i.i.d. loss rate applied to data on the forward
// trunk and to protocol feedback on the reverse trunk of the Figure 13
// dumbbell, with go-back-N recovery at every endpoint. Every flow must
// still finish; the price shows up as FCT inflation, retransmitted bytes
// and goodput efficiency (delivered / carried) below one.
func runFaultLoss(o Options) (*Report, error) {
	rep := &Report{ID: "faultloss", Title: "Loss sweep on the FCT dumbbell with go-back-N recovery"}
	rates := []float64{0, 1e-3, 1e-2}
	horizon, warmup, drain := 0.1, 0.02, 0.4
	if o.Scale == Full {
		rates = []float64{0, 1e-4, 1e-3, 1e-2}
		horizon, warmup, drain = 0.5, 0.1, 1.0
	}
	tbl := Table{Cols: []string{"loss", "protocol", "done/gen", "median ms", "p99 ms", "retx KB", "efficiency"}}
	for _, rate := range rates {
		for _, proto := range []Protocol{ProtoDCQCN, ProtoTimely} {
			r, err := RunFCT(FCTConfig{
				Protocol: proto, LoadFactor: 0.6,
				Horizon: horizon, Warmup: warmup, Drain: drain, Seed: o.Seed,
				DataLossRate: rate, CtrlLossRate: rate,
				FaultSeed:  o.Seed + 100,
				Recovery:   true,
				Observer:   o.Observer,
				ProbeName:  fmt.Sprintf("queue_bytes.loss%g.%s", rate, proto),
				HistPrefix: fmt.Sprintf("loss%g.%s.", rate, proto),
			})
			if err != nil {
				return nil, err
			}
			med, err := stats.Percentile(r.AllFCT, 50)
			if err != nil {
				return nil, err
			}
			p99, _ := stats.Percentile(r.AllFCT, 99)
			eff := 1.0
			if r.RawTxBytes > 0 {
				eff = float64(r.Goodput) / float64(r.RawTxBytes)
			}
			tbl.Rows = append(tbl.Rows, []string{
				eng(rate), proto.String(),
				fmt.Sprintf("%d/%d", r.Completed, r.Generated),
				f3(med * 1e3), f3(p99 * 1e3),
				f1(float64(r.RetxBytes) / 1e3), f3(eff),
			})
			key := fmt.Sprintf("%s_loss%g", proto, rate)
			rep.AddMetric("unfinished_"+key, float64(r.Unfinished))
			rep.AddMetric("p99_ms_"+key, p99*1e3)
			rep.AddMetric("retx_kb_"+key, float64(r.RetxBytes)/1e3)
			rep.AddMetric("efficiency_"+key, eff)
		}
	}
	rep.Tables = append(rep.Tables, tbl)
	rep.Notes = append(rep.Notes,
		"recovery keeps every flow finishing at every loss rate; the damage is paid in tail FCT and in efficiency (goodput over carried bytes), which falls as retransmissions consume trunk capacity")
	return rep, nil
}

// runFaultCNP drops only CNPs — the congestion notifications DCQCN's rate
// control lives on — while data and everything else flow untouched. With
// feedback arriving late, senders cut rate late: the bottleneck queue
// grows and swings harder even though no payload was ever lost.
func runFaultCNP(o Options) (*Report, error) {
	rep := &Report{ID: "faultcnp", Title: "DCQCN bottleneck queue vs CNP loss rate (10 long flows)"}
	horizon := 0.08
	if o.Scale == Full {
		horizon = 0.3
	}
	rates := []float64{0, 0.5, 0.9}
	tbl := Table{Cols: []string{"CNP loss", "queue mean KB", "queue max KB", "queue CV"}}
	sc := hybrid.NewDCQCNScenario(10, o.Seed)
	for _, rate := range rates {
		nw, star, _, err := sc.Star(o.Observer, nil)
		if err != nil {
			return nil, err
		}
		if rate > 0 {
			(&fault.Plan{Seed: o.Seed + 7, Links: []fault.LinkFaults{{
				Port: star.Receiver.Port(),
				Loss: []fault.Loss{{Kinds: fault.SelCNP, Rate: rate}},
			}}}).Apply(nw)
		}
		qs := netsim.MonitorQueueBytes(nw.Sim, star.Bottleneck, 100*des.Microsecond)
		nw.RunUntil(des.Time(des.DurationFromSeconds(horizon)))
		q := qs.WindowSummary(horizon*0.5, horizon)
		tbl.Rows = append(tbl.Rows, []string{
			eng(rate), f1(q.Mean / 1000), f1(q.Max / 1000), f2(q.CV()),
		})
		key := fmt.Sprintf("loss%g", rate)
		rep.AddMetric("q_mean_kb_"+key, q.Mean/1000)
		rep.AddMetric("q_max_kb_"+key, q.Max/1000)
		rep.AddMetric("q_cv_"+key, q.CV())
	}
	rep.Tables = append(rep.Tables, tbl)
	rep.Notes = append(rep.Notes,
		"the feedback channel is part of the control loop: losing CNPs stretches the effective feedback delay, so the queue's operating point and excursions grow with the loss rate even though all data arrives — the same sensitivity Figure 4 shows for added feedback delay")
	return rep, nil
}
