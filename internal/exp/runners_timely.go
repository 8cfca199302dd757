package exp

import (
	"fmt"

	"ecndelay/internal/des"
	"ecndelay/internal/fluid"
	"ecndelay/internal/hybrid"
	"ecndelay/internal/netsim"
	"ecndelay/internal/stats"
	"ecndelay/internal/timely"
)

func init() {
	register(Runner{
		ID: "fig8", Title: "TIMELY fluid model vs packet-level simulation", Figure: "Figure 8",
		Run: runFig8,
	})
	register(Runner{
		ID: "fig9", Title: "TIMELY end state depends on starting conditions", Figure: "Figure 9(a-c)",
		Run: runFig9,
	})
	register(Runner{
		ID: "fig10", Title: "Per-burst pacing: convergence and the 64KB incast drop", Figure: "Figure 10(a,b)",
		Run: runFig10,
	})
	register(Runner{
		ID: "fig11", Title: "Patched TIMELY phase margin vs number of flows", Figure: "Figure 11",
		Run: runFig11,
	})
	register(Runner{
		ID: "fig12", Title: "Patched TIMELY: convergence and stability", Figure: "Figure 12(a-c)",
		Run: runFig12,
	})
}

// sampleRates records sender rates every 100 µs.
func sampleRates(nw *netsim.Network, senders []*timely.Sender) []*stats.Series {
	out := make([]*stats.Series, len(senders))
	for i := range out {
		out[i] = &stats.Series{}
	}
	nw.Sim.Every(0, 100*des.Microsecond, func() {
		t := nw.Sim.Now().Seconds()
		for i, s := range senders {
			out[i].Add(t, s.Rate())
		}
	})
	return out
}

func runFig8(o Options) (*Report, error) {
	rep := &Report{ID: "fig8", Title: "TIMELY fluid vs packet simulation (10 Gb/s, per-packet pacing)"}
	horizon := 0.5
	if o.Scale == Quick {
		horizon = 0.15
	}
	tbl := Table{Cols: []string{"N", "source", "queue KB (mean)", "queue KB (sd)", "aggregate Gb/s"}}
	for _, n := range []int{2} {
		// Both layers start every flow at the C/N new-flow rate.
		sc := hybrid.TimelyScenario{Cfg: fluid.DefaultTimelyConfig(n), Par: timely.DefaultParams(), Seed: o.Seed}
		sc.Cfg.InitialRates = make([]float64, n)
		for i := range sc.Cfg.InitialRates {
			sc.Cfg.InitialRates[i] = sc.Cfg.C / float64(n)
		}
		sys, err := fluid.NewTimely(sc.Cfg)
		if err != nil {
			return nil, err
		}
		sm := fluid.Run(sys, 1e-6, horizon, 1e-3)
		qF := lateStats(sm, sys.QIndex(), horizon*0.6)
		var agg float64
		for i := 0; i < n; i++ {
			agg += lateStats(sm, sys.RateIndex(i), horizon*0.6).Mean
		}

		nw, star, senders, err := sc.Star(o.Observer, nil)
		if err != nil {
			return nil, err
		}
		qs := netsim.MonitorQueueBytes(nw.Sim, star.Bottleneck, 100*des.Microsecond)
		rs := sampleRates(nw, senders)
		nw.RunUntil(des.Time(des.DurationFromSeconds(horizon)))
		qP := qs.WindowSummary(horizon*0.6, horizon)
		var aggP float64
		for _, r := range rs {
			aggP += r.WindowSummary(horizon*0.6, horizon).Mean
		}

		tbl.Rows = append(tbl.Rows,
			[]string{fmt.Sprint(n), "fluid", f1(qF.Mean / 1000), f1(qF.Stddev / 1000), f2(agg * 8 / 1e9)},
			[]string{fmt.Sprint(n), "packet", f1(qP.Mean / 1000), f1(qP.Stddev / 1000), f2(aggP * 8 / 1e9)},
		)
		rep.AddMetric("fluid_q_kb", qF.Mean/1000)
		rep.AddMetric("packet_q_kb", qP.Mean/1000)
	}
	rep.Tables = append(rep.Tables, tbl)
	rep.Notes = append(rep.Notes,
		"both model and simulation operate in sub-T_low limit cycles; agreement is on the oscillation band, not a fixed point (Theorem 3: there is none)")
	return rep, nil
}

func runFig9(o Options) (*Report, error) {
	rep := &Report{ID: "fig9", Title: "TIMELY: infinitely many fixed points in practice"}
	horizonF := 1.0
	horizonP := 0.3
	if o.Scale == Quick {
		horizonF = 0.4
		horizonP = 0.15
	}

	// Fluid model: the three Figure 9 conditions.
	fl := Table{Title: "fluid model (late rate ratio R1/R2)",
		Cols: []string{"condition", "R1 Gb/s", "R2 Gb/s", "ratio"}}
	type fc struct {
		name    string
		rates   []float64
		stagger float64
	}
	fluidCases := []fc{
		{"(a) both 5 Gb/s at t=0", []float64{5e9 / 8, 5e9 / 8}, 0},
		{"(b) second starts 10 ms late", []float64{5e9 / 8, 5e9 / 8}, 10e-3},
		{"(c) 7 Gb/s and 3 Gb/s", []float64{7e9 / 8, 3e9 / 8}, 0},
	}
	var fluidRatios []float64
	for _, c := range fluidCases {
		cfg := fluid.DefaultTimelyConfig(2)
		cfg.InitialRates = c.rates
		if c.stagger > 0 {
			cfg.StartTimes = []float64{0, c.stagger}
		}
		sys, err := fluid.NewTimely(cfg)
		if err != nil {
			return nil, err
		}
		sm := fluid.Run(sys, 1e-6, horizonF, 1e-3)
		r1 := lateStats(sm, sys.RateIndex(0), horizonF*0.8).Mean
		r2 := lateStats(sm, sys.RateIndex(1), horizonF*0.8).Mean
		fl.Rows = append(fl.Rows, []string{c.name, f2(r1 * 8 / 1e9), f2(r2 * 8 / 1e9), f2(r1 / r2)})
		fluidRatios = append(fluidRatios, r1/r2)
	}
	rep.Tables = append(rep.Tables, fl)
	rep.AddMetric("fluid_ratio_spread", spreadOf(fluidRatios))

	// Packet level: equal start, microscopically staggered start, 7/3.
	pk := Table{Title: "packet level (late rate ratio R1/R2)",
		Cols: []string{"condition", "ratio", "utilisation"}}
	pktCases := []fc{
		{"both 5 Gb/s at t=0", []float64{5e9 / 8, 5e9 / 8}, 0},
		{"second starts 0.5 ms late", []float64{5e9 / 8, 5e9 / 8}, 0.5e-3},
		{"7 Gb/s and 3 Gb/s", []float64{7e9 / 8, 3e9 / 8}, 0},
	}
	var pktRatios []float64
	for _, c := range pktCases {
		sc := hybrid.TimelyScenario{Cfg: fluid.DefaultTimelyConfig(2), Par: timely.DefaultParams(), Seed: o.Seed}
		sc.Cfg.InitialRates = c.rates
		sc.Cfg.StartTimes = []float64{0, c.stagger}
		nw, _, senders, err := sc.Star(o.Observer, nil)
		if err != nil {
			return nil, err
		}
		rs := sampleRates(nw, senders)
		nw.RunUntil(des.Time(des.DurationFromSeconds(horizonP)))
		m0 := rs[0].WindowSummary(horizonP*0.7, horizonP).Mean
		m1 := rs[1].WindowSummary(horizonP*0.7, horizonP).Mean
		pk.Rows = append(pk.Rows, []string{c.name, f2(m0 / m1), f2((m0 + m1) / 1.25e9)})
		pktRatios = append(pktRatios, m0/m1)
	}
	rep.Tables = append(rep.Tables, pk)
	rep.AddMetric("packet_ratio_spread", spreadOf(pktRatios))
	rep.Notes = append(rep.Notes,
		"the operating point TIMELY settles into is a function of history, not of the configuration — the practical face of Theorem 4")
	return rep, nil
}

func runFig10(o Options) (*Report, error) {
	rep := &Report{ID: "fig10", Title: "TIMELY pacing granularity"}
	horizon := 0.4
	if o.Scale == Quick {
		horizon = 0.2
	}
	tbl := Table{Cols: []string{"pacing", "late ratio", "late util", "min aggregate / C"}}
	run := func(name string, p timely.Params) error {
		sc := hybrid.TimelyScenario{Cfg: fluid.DefaultTimelyConfig(2), Par: p, Seed: o.Seed}
		sc.Cfg.InitialRates = []float64{5e9 / 8, 5e9 / 8}
		nw, _, senders, err := sc.Star(o.Observer, nil)
		if err != nil {
			return err
		}
		rs := sampleRates(nw, senders)
		minAgg := 1e18
		nw.Sim.Every(des.Time(10*des.Millisecond), 100*des.Microsecond, func() {
			if agg := senders[0].Rate() + senders[1].Rate(); agg < minAgg {
				minAgg = agg
			}
		})
		nw.RunUntil(des.Time(des.DurationFromSeconds(horizon)))
		m0 := rs[0].WindowSummary(horizon*0.7, horizon).Mean
		m1 := rs[1].WindowSummary(horizon*0.7, horizon).Mean
		tbl.Rows = append(tbl.Rows, []string{
			name, f2(m0 / m1), f2((m0 + m1) / 1.25e9), f3(minAgg / 1.25e9),
		})
		rep.AddMetric("min_agg_"+name, minAgg/1.25e9)
		return nil
	}
	if err := run("per-packet", timely.DefaultParams()); err != nil {
		return nil, err
	}
	p16 := timely.DefaultParams()
	p16.Burst = true
	if err := run("16KB bursts", p16); err != nil {
		return nil, err
	}
	p64 := timely.DefaultParams()
	p64.Burst = true
	p64.Seg = 64000
	if err := run("64KB bursts", p64); err != nil {
		return nil, err
	}
	rep.Tables = append(rep.Tables, tbl)
	rep.Notes = append(rep.Notes,
		"16 KB bursts add enough noise to land near a fair point (Fig 10a); 64 KB bursts collide at start and the huge RTT sample crushes both rates (Fig 10b)")
	return rep, nil
}

func runFig11(o Options) (*Report, error) {
	rep := &Report{ID: "fig11", Title: "Patched TIMELY phase margin vs number of flows"}
	ns := []int{2, 5, 10, 20, 30, 40, 50, 64}
	if o.Scale == Quick {
		ns = []int{5, 10, 40, 64}
	}
	tbl := Table{Cols: []string{"N", "q* KB (Eq.31)", "phase margin deg", "stable"}}
	firstUnstable := 0
	for _, n := range ns {
		m, err := PatchedMargin(n)
		if err != nil {
			return nil, err
		}
		stable := m["stable"] > 0
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprint(n), f1(m["q_star_kb"]), f1(m["pm_deg"]), fmt.Sprint(stable),
		})
		if !stable && firstUnstable == 0 {
			firstUnstable = n
		}
		rep.AddMetric(fmt.Sprintf("pm_N%d", n), m["pm_deg"])
	}
	rep.Tables = append(rep.Tables, tbl)
	rep.AddMetric("first_unstable_N", float64(firstUnstable))
	rep.Notes = append(rep.Notes,
		"more flows → larger Eq.31 queue → larger feedback delay (Eq.24) → the margin collapses; the paper sees the cliff around N≈40, this reproduction slightly earlier (parameter sensitivity noted in EXPERIMENTS.md)")
	return rep, nil
}

func runFig12(o Options) (*Report, error) {
	rep := &Report{ID: "fig12", Title: "Patched TIMELY convergence and stability"}
	horizon := 1.0
	if o.Scale == Quick {
		horizon = 0.4
	}

	// (a) fluid: unequal starts converge to the fair fixed point. The
	// packet run below starts from the same operating point.
	sc := hybrid.NewTimelyScenario(2, o.Seed)
	sc.Cfg.InitialRates = []float64{7e9 / 8, 3e9 / 8}
	sys, err := fluid.NewPatchedTimely(sc.Cfg)
	if err != nil {
		return nil, err
	}
	sm := fluid.Run(sys, 1e-6, horizon, 1e-3)
	r0 := lateStats(sm, sys.RateIndex(0), horizon*0.8).Mean
	r1 := lateStats(sm, sys.RateIndex(1), horizon*0.8).Mean
	q := lateStats(sm, sys.QIndex(), horizon*0.8)
	ta := Table{Title: "(a) fluid, 7/3 Gb/s starts",
		Cols: []string{"R1 Gb/s", "R2 Gb/s", "queue KB", "Eq.31 q* KB"}}
	ta.Rows = append(ta.Rows, []string{
		f2(r0 * 8 / 1e9), f2(r1 * 8 / 1e9), f1(q.Mean / 1000), f1(sys.FixedPointQueue() / 1000),
	})
	rep.Tables = append(rep.Tables, ta)
	rep.AddMetric("fluid_ratio", r0/r1)
	rep.AddMetric("fluid_q_vs_eq31", q.Mean/sys.FixedPointQueue())

	// (b,c) fluid: stability across N.
	tb := Table{Title: "(b,c) fluid, queue oscillation vs N", Cols: []string{"N", "queue KB", "queue CV"}}
	ns := []int{10, 64}
	for _, n := range ns {
		c := fluid.DefaultPatchedTimelyConfig(n)
		s, err := fluid.NewPatchedTimely(c)
		if err != nil {
			return nil, err
		}
		smN := fluid.Run(s, 1e-6, horizon, 1e-3)
		qn := lateStats(smN, s.QIndex(), horizon*0.8)
		tb.Rows = append(tb.Rows, []string{fmt.Sprint(n), f1(qn.Mean / 1000), f3(qn.CV())})
		rep.AddMetric(fmt.Sprintf("queue_cv_N%d", n), qn.CV())
	}
	rep.Tables = append(rep.Tables, tb)

	// Packet level: 7/3 starts converge fair.
	nw, star, senders, err := sc.Star(o.Observer, nil)
	if err != nil {
		return nil, err
	}
	rs := sampleRates(nw, senders)
	qs := netsim.MonitorQueueBytes(nw.Sim, star.Bottleneck, 100*des.Microsecond)
	hp := horizon * 0.4
	nw.RunUntil(des.Time(des.DurationFromSeconds(hp)))
	m0 := rs[0].WindowSummary(hp*0.7, hp).Mean
	m1 := rs[1].WindowSummary(hp*0.7, hp).Mean
	qp := qs.WindowSummary(hp*0.7, hp)
	tc := Table{Title: "packet level, 7/3 Gb/s starts", Cols: []string{"ratio", "queue KB", "queue CV"}}
	tc.Rows = append(tc.Rows, []string{f3(m0 / m1), f1(qp.Mean / 1000), f3(qp.CV())})
	rep.Tables = append(rep.Tables, tc)
	rep.AddMetric("packet_ratio", m0/m1)
	return rep, nil
}

func spreadOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return hi - lo
}
