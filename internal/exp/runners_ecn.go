package exp

import (
	"fmt"

	"ecndelay/internal/des"
	"ecndelay/internal/fluid"
	"ecndelay/internal/hybrid"
	"ecndelay/internal/netsim"
	"ecndelay/internal/stability"
	"ecndelay/internal/stats"
)

func init() {
	register(Runner{
		ID: "fig14", Title: "Flow completion time of small flows vs load", Figure: "Figure 14",
		Run: runFig14,
	})
	register(Runner{
		ID: "fig15", Title: "FCT distribution at load 0.8", Figure: "Figure 15",
		Run: runFig15,
	})
	register(Runner{
		ID: "fig16", Title: "Bottleneck queue at load 0.8", Figure: "Figure 16",
		Run: runFig16,
	})
	register(Runner{
		ID: "fig17", Title: "ECN marking on egress vs ingress", Figure: "Figure 17",
		Run: runFig17,
	})
	register(Runner{
		ID: "fig18", Title: "DCQCN with a PI controller at the switch", Figure: "Figure 18",
		Run: runFig18,
	})
	register(Runner{
		ID: "fig19", Title: "Patched TIMELY with an end-host PI controller", Figure: "Figure 19",
		Run: runFig19,
	})
	register(Runner{
		ID: "fig20", Title: "Resilience to feedback jitter", Figure: "Figure 20",
		Run: runFig20,
	})
	register(Runner{
		ID: "thm6", Title: "Fairness/delay tradeoff for delay-based feedback", Figure: "Theorem 6",
		Run: runThm6,
	})
	register(Runner{
		ID: "fig21", Title: "Design choices and desirable properties", Figure: "Figure 21 / §5.3",
		Run: runFig21,
	})
}

func fctScale(o Options) (loads []float64, horizon, warmup, drain float64) {
	if o.Scale == Quick {
		return []float64{0.4, 0.8}, 0.4, 0.1, 0.4
	}
	return []float64{0.2, 0.4, 0.6, 0.8, 1.0}, 2.0, 0.25, 1.5
}

func runFig14(o Options) (*Report, error) {
	rep := &Report{ID: "fig14", Title: "Median and 90th percentile FCT of small flows (<100 KB)"}
	loads, horizon, warmup, drain := fctScale(o)
	tbl := Table{Cols: []string{"load", "protocol", "flows", "median ms", "p90 ms", "p99 ms"}}
	for _, load := range loads {
		for _, proto := range []Protocol{ProtoDCQCN, ProtoTimely, ProtoPatchedTimely} {
			r, err := RunFCT(FCTConfig{
				Protocol: proto, LoadFactor: load,
				Horizon: horizon, Warmup: warmup, Drain: drain, Seed: o.Seed,
				Observer:   o.Observer,
				ProbeName:  fmt.Sprintf("queue_bytes.load%.1f.%s", load, proto),
				HistPrefix: fmt.Sprintf("load%.1f.%s.", load, proto),
			})
			if err != nil {
				return nil, err
			}
			med, err := stats.Percentile(r.SmallFCT, 50)
			if err != nil {
				return nil, err
			}
			p90, _ := stats.Percentile(r.SmallFCT, 90)
			p99, _ := stats.Percentile(r.SmallFCT, 99)
			tbl.Rows = append(tbl.Rows, []string{
				f1(load), proto.String(), fmt.Sprint(len(r.SmallFCT)),
				f3(med * 1e3), f3(p90 * 1e3), f3(p99 * 1e3),
			})
			rep.AddMetric(fmt.Sprintf("p90_ms_load%.1f_%s", load, proto), p90*1e3)
			if load == 0.8 {
				rep.AddMetric(fmt.Sprintf("median_ms_%s", proto), med*1e3)
			}
		}
	}
	rep.Tables = append(rep.Tables, tbl)
	rep.Notes = append(rep.Notes,
		"shape target: DCQCN best at every load; patched TIMELY between DCQCN and TIMELY at the tail; gaps widen with load and percentile")
	return rep, nil
}

func runFig15(o Options) (*Report, error) {
	rep := &Report{ID: "fig15", Title: "CDF of small-flow FCT, load 0.8"}
	_, horizon, warmup, drain := fctScale(o)
	tbl := Table{Cols: []string{"percentile", "DCQCN ms", "TIMELY ms", "Patched ms"}}
	percentiles := []float64{10, 25, 50, 75, 90, 95, 99}
	cols := make(map[Protocol][]float64)
	for _, proto := range []Protocol{ProtoDCQCN, ProtoTimely, ProtoPatchedTimely} {
		r, err := RunFCT(FCTConfig{
			Protocol: proto, LoadFactor: 0.8,
			Horizon: horizon, Warmup: warmup, Drain: drain, Seed: o.Seed,
			Observer:   o.Observer,
			ProbeName:  fmt.Sprintf("queue_bytes.%s", proto),
			HistPrefix: fmt.Sprintf("%s.", proto),
		})
		if err != nil {
			return nil, err
		}
		for _, p := range percentiles {
			v, err := stats.Percentile(r.SmallFCT, p)
			if err != nil {
				return nil, err
			}
			cols[proto] = append(cols[proto], v*1e3)
		}
	}
	for i, p := range percentiles {
		tbl.Rows = append(tbl.Rows, []string{
			f1(p), f3(cols[ProtoDCQCN][i]), f3(cols[ProtoTimely][i]), f3(cols[ProtoPatchedTimely][i]),
		})
	}
	rep.Tables = append(rep.Tables, tbl)
	rep.AddMetric("p99_dcqcn_ms", cols[ProtoDCQCN][6])
	rep.AddMetric("p99_timely_ms", cols[ProtoTimely][6])
	rep.AddMetric("p99_patched_ms", cols[ProtoPatchedTimely][6])
	return rep, nil
}

func runFig16(o Options) (*Report, error) {
	rep := &Report{ID: "fig16", Title: "Bottleneck queue occupancy, load 0.8"}
	_, horizon, warmup, drain := fctScale(o)
	tbl := Table{Cols: []string{"protocol", "mean KB", "sd KB", "p99 KB", "max KB"}}
	for _, proto := range []Protocol{ProtoDCQCN, ProtoTimely, ProtoPatchedTimely} {
		r, err := RunFCT(FCTConfig{
			Protocol: proto, LoadFactor: 0.8,
			Horizon: horizon, Warmup: warmup, Drain: drain, Seed: o.Seed,
			Observer:   o.Observer,
			ProbeName:  fmt.Sprintf("queue_bytes.%s", proto),
			HistPrefix: fmt.Sprintf("%s.", proto),
		})
		if err != nil {
			return nil, err
		}
		vals := r.Queue.Window(warmup, horizon)
		sum := stats.Summarize(vals)
		p99, err := stats.Percentile(vals, 99)
		if err != nil {
			return nil, err
		}
		tbl.Rows = append(tbl.Rows, []string{
			proto.String(), f1(sum.Mean / 1000), f1(sum.Stddev / 1000), f1(p99 / 1000), f1(sum.Max / 1000),
		})
		rep.AddMetric(fmt.Sprintf("qmax_kb_%s", proto), sum.Max/1000)
		rep.AddMetric(fmt.Sprintf("qsd_kb_%s", proto), sum.Stddev/1000)
	}
	rep.Tables = append(rep.Tables, tbl)
	rep.Notes = append(rep.Notes,
		"DCQCN's queue orbits the RED fixed point; the TIMELY variants trade between under-utilisation and multi-hundred-KB excursions")
	return rep, nil
}

func runFig17(o Options) (*Report, error) {
	rep := &Report{ID: "fig17", Title: "DCQCN stability: marking at egress vs ingress (10 Gb/s, 2 flows)"}
	horizon := 0.15
	if o.Scale == Quick {
		horizon = 0.08
	}

	// One operating point for both layers: 2 flows on a 10 Gb/s star.
	sc := hybrid.NewDCQCNScenario(2, o.Seed)
	sc.Par.C = 10e9 / 8 / hybrid.MTU

	// Analytical side first: the loop reductions quantify exactly how
	// much phase margin the queueing delay in the marking path costs.
	egLoop, err := fluid.NewDCQCNLoop(sc.Par)
	if err != nil {
		return nil, err
	}
	egPM, err := stability.PhaseMargin(egLoop)
	if err != nil {
		return nil, err
	}
	inLoop, err := fluid.NewDCQCNIngressLoop(sc.Par)
	if err != nil {
		return nil, err
	}
	inPM, err := stability.PhaseMargin(inLoop)
	if err != nil {
		return nil, err
	}
	anal := Table{Title: "linearised loop: phase margin cost of the marking point",
		Cols: []string{"marking point", "marking feedback lag µs", "phase margin deg"}}
	anal.Rows = append(anal.Rows,
		[]string{"egress", f1(egLoop.Delays()[0] * 1e6), f1(egPM.PhaseMarginDeg)},
		[]string{"ingress", f1(inLoop.Delays()[1] * 1e6), f1(inPM.PhaseMarginDeg)},
	)
	rep.Tables = append(rep.Tables, anal)
	rep.AddMetric("pm_egress", egPM.PhaseMarginDeg)
	rep.AddMetric("pm_ingress", inPM.PhaseMarginDeg)

	tbl := Table{Title: "packet level", Cols: []string{"marking point", "queue KB", "queue CV", "queue max KB"}}
	for _, ingress := range []bool{false, true} {
		sc.Ingress = ingress
		nw, star, _, err := sc.Star(o.Observer, nil)
		if err != nil {
			return nil, err
		}
		name := "egress (at departure)"
		key := "egress"
		if ingress {
			name = "ingress (at arrival)"
			key = "ingress"
		}
		qs := nw.Sample(50*des.Microsecond, netsim.QueueSignal("queue_bytes."+key, star.Bottleneck))[0]
		nw.RunUntil(des.Time(des.DurationFromSeconds(horizon)))
		q := qs.WindowSummary(horizon*0.6, horizon)
		tbl.Rows = append(tbl.Rows, []string{name, f1(q.Mean / 1000), f2(q.CV()), f1(q.Max / 1000)})
		rep.AddMetric("queue_cv_"+key, q.CV())
	}
	rep.Tables = append(rep.Tables, tbl)
	rep.Notes = append(rep.Notes,
		"at this operating point the standing queue is ~100 KB ≈ 80 µs of queueing delay; ingress marks carry that delay into the control loop and the system oscillates — egress marking decouples the two (§5.2)")
	return rep, nil
}

func runFig18(o Options) (*Report, error) {
	rep := &Report{ID: "fig18", Title: "DCQCN with PI marking: queue pinned regardless of N"}
	ns := []int{2, 10, 64}
	horizon := 0.6
	if o.Scale == Quick {
		ns = []int{2, 10}
		horizon = 0.3
	}
	tbl := Table{Cols: []string{"N", "queue KB (mean)", "reference KB", "Jain fairness"}}
	for _, n := range ns {
		p := fluid.DefaultDCQCNParams(n)
		p.TauStar = 85e-6
		sys, err := fluid.NewDCQCNPI(fluid.DCQCNPIConfig{DCQCN: fluid.DCQCNConfig{Params: p}})
		if err != nil {
			return nil, err
		}
		sm := fluid.Run(sys, 1e-6, horizon, 1e-4)
		q := lateStats(sm, sys.QIndex(), horizon*0.75)
		var rates []float64
		for i := 0; i < n; i++ {
			rates = append(rates, lateStats(sm, sys.RCIndex(i), horizon*0.75).Mean)
		}
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprint(n), f2(q.Mean), f2(sys.QRef()), f3(stats.JainIndex(rates)),
		})
		rep.AddMetric(fmt.Sprintf("q_over_ref_N%d", n), q.Mean/sys.QRef())
		rep.AddMetric(fmt.Sprintf("jain_N%d", n), stats.JainIndex(rates))
	}
	rep.Tables = append(rep.Tables, tbl)
	rep.Notes = append(rep.Notes,
		"ECN marking computed by a PI controller achieves fairness AND an N-independent queue — the combination Theorem 6 proves impossible for pure delay feedback")
	return rep, nil
}

func runFig19(o Options) (*Report, error) {
	rep := &Report{ID: "fig19", Title: "End-host PI on patched TIMELY: delay pinned, fairness lost"}
	horizon := 1.2
	if o.Scale == Quick {
		horizon = 0.6
	}
	cfg := fluid.DefaultPatchedTimelyConfig(2)
	cfg.StartTimes = []float64{0, horizon / 12}
	sys, err := fluid.NewTimelyPI(fluid.TimelyPIConfig{Timely: cfg})
	if err != nil {
		return nil, err
	}
	sm := fluid.Run(sys, 1e-6, horizon, 1e-3)
	q := lateStats(sm, sys.QIndex(), horizon*0.8)
	r0 := lateStats(sm, sys.RateIndex(0), horizon*0.8).Mean
	r1 := lateStats(sm, sys.RateIndex(1), horizon*0.8).Mean
	tbl := Table{Cols: []string{"queue KB", "reference KB", "R1 Gb/s", "R2 Gb/s", "ratio"}}
	tbl.Rows = append(tbl.Rows, []string{
		f1(q.Mean / 1000), f1(sys.QRef() / 1000),
		f2(r0 * 8 / 1e9), f2(r1 * 8 / 1e9), f2(r0 / r1),
	})
	rep.Tables = append(rep.Tables, tbl)
	rep.AddMetric("q_over_ref", q.Mean/sys.QRef())
	rep.AddMetric("rate_ratio", r0/r1)
	rep.Notes = append(rep.Notes,
		"the per-flow integrators settle wherever their histories left them: the queue (hence delay) is pinned at the reference, the rate split is arbitrary")
	return rep, nil
}

func runFig20(o Options) (*Report, error) {
	rep := &Report{ID: "fig20", Title: "Uniform [0,100µs] feedback jitter: DCQCN vs patched TIMELY"}
	horizon := 0.6
	if o.Scale == Quick {
		horizon = 0.3
	}
	tbl := Table{Cols: []string{"protocol", "jitter", "queue CV", "rate CV"}}
	// DCQCN fluid, with and without jitter.
	for _, jit := range []float64{0, 100e-6} {
		q, r, err := runDCQCNFluid(2, 4e-6, horizon*0.4, jit, o.Seed+3)
		if err != nil {
			return nil, err
		}
		tbl.Rows = append(tbl.Rows, []string{
			"DCQCN", fmt.Sprintf("%.0fµs", jit*1e6), f3(q.CV()), f3(r.CV()),
		})
		rep.AddMetric(fmt.Sprintf("dcqcn_queue_cv_jit%.0f", jit*1e6), q.CV())
	}
	// Patched TIMELY fluid.
	for _, jit := range []float64{0, 100e-6} {
		cfg := fluid.DefaultPatchedTimelyConfig(2)
		cfg.InitialRates = []float64{7e9 / 8, 3e9 / 8}
		cfg.JitterMax = jit
		cfg.Seed = o.Seed + 3
		sys, err := fluid.NewPatchedTimely(cfg)
		if err != nil {
			return nil, err
		}
		sm := fluid.Run(sys, 1e-6, horizon, 1e-3)
		q := lateStats(sm, sys.QIndex(), horizon*0.7)
		r := lateStats(sm, sys.RateIndex(0), horizon*0.7)
		qcv := q.Stddev / maxf(q.Mean, 1)
		tbl.Rows = append(tbl.Rows, []string{
			"patched TIMELY", fmt.Sprintf("%.0fµs", jit*1e6), f3(qcv), f3(r.CV()),
		})
		rep.AddMetric(fmt.Sprintf("timely_queue_cv_jit%.0f", jit*1e6), qcv)
	}
	rep.Tables = append(rep.Tables, tbl)
	rep.Notes = append(rep.Notes,
		"jitter only delays the ECN signal but lands inside the RTT signal: TIMELY gets delayed AND noisy feedback, DCQCN just delayed (§5.2)")
	return rep, nil
}

func runThm6(o Options) (*Report, error) {
	rep := &Report{ID: "thm6", Title: "Delay feedback: fixed delay XOR fairness"}
	horizon := 1.2
	if o.Scale == Quick {
		horizon = 0.6
	}
	tbl := Table{Cols: []string{"controller", "history", "queue/reference", "rate ratio"}}

	// Host-side PI (delay is the only feedback): different histories end
	// at the same queue but different splits.
	for i, stagger := range []float64{horizon / 12, horizon / 6} {
		cfg := fluid.DefaultPatchedTimelyConfig(2)
		cfg.StartTimes = []float64{0, stagger}
		sys, err := fluid.NewTimelyPI(fluid.TimelyPIConfig{Timely: cfg})
		if err != nil {
			return nil, err
		}
		sm := fluid.Run(sys, 1e-6, horizon, 1e-3)
		q := lateStats(sm, sys.QIndex(), horizon*0.85)
		r0 := lateStats(sm, sys.RateIndex(0), horizon*0.85).Mean
		r1 := lateStats(sm, sys.RateIndex(1), horizon*0.85).Mean
		tbl.Rows = append(tbl.Rows, []string{
			"PI at host (delay only)", fmt.Sprintf("stagger %.0f ms", stagger*1e3),
			f3(q.Mean / sys.QRef()), f2(r0 / r1),
		})
		rep.AddMetric(fmt.Sprintf("host_ratio_%d", i), r0/r1)
		rep.AddMetric(fmt.Sprintf("host_q_over_ref_%d", i), q.Mean/sys.QRef())
	}

	// Switch-side PI (common marking signal): same queue AND fair, for
	// any history.
	p := fluid.DefaultDCQCNParams(2)
	sys, err := fluid.NewDCQCNPI(fluid.DCQCNPIConfig{DCQCN: fluid.DCQCNConfig{
		Params: p, InitialRC: []float64{5e6, 1e6},
	}})
	if err != nil {
		return nil, err
	}
	sm := fluid.Run(sys, 1e-6, horizon*0.5, 1e-4)
	q := lateStats(sm, sys.QIndex(), horizon*0.4)
	r0 := lateStats(sm, sys.RCIndex(0), horizon*0.4).Mean
	r1 := lateStats(sm, sys.RCIndex(1), horizon*0.4).Mean
	tbl.Rows = append(tbl.Rows, []string{
		"PI at switch (ECN)", "5:1 initial rates", f3(q.Mean / sys.QRef()), f2(r0 / r1),
	})
	rep.AddMetric("switch_ratio", r0/r1)
	rep.Tables = append(rep.Tables, tbl)
	rep.Notes = append(rep.Notes,
		"R = f(d, p) with p derived purely from the common delay is underdetermined (N+1 equations, 2N unknowns): pinning d surrenders fairness; a common switch-computed p restores it")
	return rep, nil
}

func runFig21(o Options) (*Report, error) {
	rep := &Report{ID: "fig21", Title: "ECN vs delay as the congestion signal (§5.3 summary)"}
	tbl := Table{Cols: []string{"property", "ECN (DCQCN-style)", "delay (TIMELY-style)", "evidence"}}
	tbl.Rows = [][]string{
		{"feedback decoupled from queueing delay", "yes (egress marking)", "no (RTT carries it)", "fig17"},
		{"fairness at a unique fixed point", "yes (Thm 1)", "needs the §4.3 patch (Thm 3-5)", "fig9, fig12"},
		{"fairness AND bounded delay together", "yes with PI marking", "provably not (Thm 6)", "fig18, fig19, thm6"},
		{"resilience to feedback jitter", "delayed only", "delayed and noisy", "fig20"},
		{"small-flow FCT under load", "best", "worst (patch in between)", "fig14, fig15"},
	}
	rep.Tables = append(rep.Tables, tbl)
	rep.Notes = append(rep.Notes,
		"run the referenced experiment ids for the quantitative backing of each row")
	_ = o
	return rep, nil
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
