package exp

import (
	"fmt"

	"ecndelay/internal/convergence"
	"ecndelay/internal/des"
	"ecndelay/internal/fixedpoint"
	"ecndelay/internal/fluid"
	"ecndelay/internal/hybrid"
	"ecndelay/internal/netsim"
)

func init() {
	register(Runner{
		ID: "fig2", Title: "DCQCN fluid model vs packet-level simulation", Figure: "Figure 2",
		Run: runFig2,
	})
	register(Runner{
		ID: "fig3", Title: "DCQCN phase margin vs flows, delay, R_AI, K_max", Figure: "Figure 3(a-c)",
		Run: runFig3,
	})
	register(Runner{
		ID: "fig4", Title: "DCQCN fluid stability vs delay and number of flows", Figure: "Figure 4",
		Run: runFig4,
	})
	register(Runner{
		ID: "fig5", Title: "DCQCN packet-level instability at high feedback delay", Figure: "Figure 5",
		Run: runFig5,
	})
	register(Runner{
		ID: "thm2", Title: "DCQCN exponential convergence (discrete model)", Figure: "Theorem 2 / Figure 6",
		Run: runThm2,
	})
	register(Runner{
		ID: "eq14", Title: "Fixed-point marking probability: Eq. 14 vs exact", Figure: "Equation 14",
		Run: runEq14,
	})
	register(Runner{
		ID: "params", Title: "Model parameters (Tables 1 and 2 defaults)", Figure: "Tables 1-2",
		Run: runParams,
	})
}

func runFig2(o Options) (*Report, error) {
	rep := &Report{ID: "fig2", Title: "DCQCN fluid model vs packet simulation (40 Gb/s star)"}
	ns := []int{2, 10}
	horizon := 0.05
	if o.Scale == Quick {
		ns = []int{2}
		horizon = 0.02
	}
	tbl := Table{
		Title: "Tail-window agreement (last 40% of the run)",
		Cols:  []string{"N", "source", "queue KB", "per-flow rate Gb/s"},
	}
	for _, n := range ns {
		sc := hybrid.NewDCQCNScenario(n, o.Seed)
		sys, err := sc.Fluid(nil)
		if err != nil {
			return nil, err
		}
		qF, rF := dcqcnTail(sys, horizon)
		// Fluid units: packets of 1 KB and packets/s.
		fluidQKB := qF.Mean
		fluidRate := rF.Mean * 1000 * 8 / 1e9

		nw, star, senders, err := sc.Star(o.Observer, nil)
		if err != nil {
			return nil, err
		}
		qs := nw.Sample(100*des.Microsecond, netsim.QueueSignal(fmt.Sprintf("queue_bytes.n%d", n), star.Bottleneck))[0]
		nw.RunUntil(des.Time(des.DurationFromSeconds(horizon)))
		qP := qs.WindowSummary(horizon*0.6, horizon)
		var sumRate float64
		for _, s := range senders {
			sumRate += s.Rate()
		}
		pktRate := sumRate / float64(n) * 8 / 1e9

		tbl.Rows = append(tbl.Rows,
			[]string{fmt.Sprint(n), "fluid", f1(fluidQKB), f2(fluidRate)},
			[]string{fmt.Sprint(n), "packet", f1(qP.Mean / 1000), f2(pktRate)},
		)
		rep.AddMetric(fmt.Sprintf("queue_rel_diff_N%d", n),
			abs(qP.Mean/1000-fluidQKB)/fluidQKB)
	}
	rep.Tables = append(rep.Tables, tbl)
	rep.Notes = append(rep.Notes,
		"fluid and packet models should agree on the operating point; packet-level adds burst noise around it")
	return rep, nil
}

func runFig3(o Options) (*Report, error) {
	rep := &Report{ID: "fig3", Title: "DCQCN Bode phase margin (degrees)"}
	ns := []int{1, 2, 4, 8, 10, 16, 32, 64}
	delays := []float64{1e-6, 25e-6, 50e-6, 85e-6, 100e-6}
	if o.Scale == Quick {
		ns = []int{1, 8, 64}
		delays = []float64{1e-6, 85e-6}
	}

	pm := func(p fixedpoint.DCQCNParams) (float64, error) {
		m, err := DCQCNMargin(p)
		return m["pm_deg"], err
	}

	tblA := Table{Title: "(a) phase margin vs N and feedback delay τ*"}
	tblA.Cols = []string{"N"}
	for _, d := range delays {
		tblA.Cols = append(tblA.Cols, fmt.Sprintf("%.0fµs", d*1e6))
	}
	for _, n := range ns {
		row := []string{fmt.Sprint(n)}
		for _, d := range delays {
			p := fluid.DefaultDCQCNParams(n)
			p.TauStar = d
			v, err := pm(p)
			if err != nil {
				return nil, err
			}
			row = append(row, f1(v))
			if d == 85e-6 {
				rep.AddMetric(fmt.Sprintf("pm_85us_N%d", n), v)
			}
		}
		tblA.Rows = append(tblA.Rows, row)
	}
	rep.Tables = append(rep.Tables, tblA)

	if o.Scale == Full {
		tblB := Table{Title: "(b) smaller R_AI stabilises (N=10, τ*=85µs)", Cols: []string{"R_AI Mb/s", "phase margin"}}
		for _, raiMbps := range []float64{40, 20, 10, 5} {
			p := fluid.DefaultDCQCNParams(10)
			p.TauStar = 85e-6
			p.RAI = raiMbps * 1e6 / 8 / 1000
			v, err := pm(p)
			if err != nil {
				return nil, err
			}
			tblB.Rows = append(tblB.Rows, []string{f1(raiMbps), f1(v)})
		}
		rep.Tables = append(rep.Tables, tblB)

		tblC := Table{Title: "(c) larger K_max stabilises (N=10, τ*=85µs)", Cols: []string{"K_max KB", "phase margin"}}
		for _, kmax := range []float64{200, 400, 800, 1600} {
			p := fluid.DefaultDCQCNParams(10)
			p.TauStar = 85e-6
			p.Kmax = kmax
			v, err := pm(p)
			if err != nil {
				return nil, err
			}
			tblC.Rows = append(tblC.Rows, []string{f1(kmax), f1(v)})
		}
		rep.Tables = append(rep.Tables, tblC)
	}
	rep.Notes = append(rep.Notes,
		"the relationship between flows and margin is non-monotonic: a dip below zero in the mid-N range at high delay, rising again for many flows")
	return rep, nil
}

func runFig4(o Options) (*Report, error) {
	rep := &Report{ID: "fig4", Title: "DCQCN fluid model: queue behaviour vs delay and N"}
	type c struct {
		n     int
		delay float64
	}
	cases := []c{{2, 4e-6}, {10, 4e-6}, {64, 4e-6}, {2, 85e-6}, {10, 85e-6}, {64, 85e-6}}
	horizon := 0.2
	if o.Scale == Quick {
		cases = []c{{2, 85e-6}, {10, 85e-6}, {64, 85e-6}}
		horizon = 0.1
	}
	tbl := Table{Cols: []string{"N", "τ*", "queue KB (mean)", "queue CV", "verdict"}}
	for _, cc := range cases {
		q, _, err := runDCQCNFluid(cc.n, cc.delay, horizon, 0, o.Seed)
		if err != nil {
			return nil, err
		}
		verdict := "stable"
		if q.CV() > 0.2 {
			verdict = "oscillating"
		}
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprint(cc.n), fmt.Sprintf("%.0fµs", cc.delay*1e6),
			f1(q.Mean), f2(q.CV()), verdict,
		})
		rep.AddMetric(fmt.Sprintf("queue_cv_N%d_%.0fus", cc.n, cc.delay*1e6), q.CV())
	}
	rep.Tables = append(rep.Tables, tbl)
	return rep, nil
}

func runFig5(o Options) (*Report, error) {
	rep := &Report{ID: "fig5", Title: "DCQCN packet-level: 10 flows, 85µs feedback delay"}
	horizon := 0.06
	if o.Scale == Quick {
		horizon = 0.03
	}
	tbl := Table{Cols: []string{"extra feedback delay", "queue KB (mean)", "queue CV", "queue max KB"}}
	sc := hybrid.NewDCQCNScenario(10, o.Seed)
	for _, extra := range []des.Duration{0, 85 * des.Microsecond} {
		sc.ExtraDelay = extra
		nw, star, _, err := sc.Star(o.Observer, nil)
		if err != nil {
			return nil, err
		}
		key := fmt.Sprintf("extra%dus", extra/des.Microsecond)
		qs := nw.Sample(100*des.Microsecond, netsim.QueueSignal("queue_bytes."+key, star.Bottleneck))[0]
		nw.RunUntil(des.Time(des.DurationFromSeconds(horizon)))
		q := qs.WindowSummary(horizon*0.5, horizon)
		tbl.Rows = append(tbl.Rows, []string{
			extra.String(), f1(q.Mean / 1000), f2(q.CV()), f1(q.Max / 1000),
		})
		rep.AddMetric("queue_cv_"+key, q.CV())
	}
	rep.Tables = append(rep.Tables, tbl)
	return rep, nil
}

func runThm2(o Options) (*Report, error) {
	rep := &Report{ID: "thm2", Title: "Discrete AIMD model: exponential rate-gap decay"}
	cfg := convergence.Default(2)
	cfg.InitialRates = []float64{4.5e6, 0.5e6}
	nCycles := 50
	if o.Scale == Quick {
		nCycles = 25
	}
	cycles, err := convergence.Run(cfg, nCycles)
	if err != nil {
		return nil, err
	}
	alphaStar, deltaT, err := convergence.AlphaFixedPoint(cfg)
	if err != nil {
		return nil, err
	}
	tbl := Table{Cols: []string{"cycle", "t ms", "max rate gap (pkt/s)", "α"}}
	for i := 0; i < len(cycles); i += 5 {
		c := cycles[i]
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprint(i), f2(c.Time * 1e3), eng(c.MaxGap), f3(c.Alphas[0]),
		})
	}
	rep.Tables = append(rep.Tables, tbl)
	rate := convergence.GapDecayRate(cycles, 1)
	rep.AddMetric("gap_decay_per_cycle", rate)
	rep.AddMetric("alpha_star", alphaStar)
	rep.AddMetric("deltaT_star_units", deltaT)
	rep.AddMetric("theory_bound", 1-alphaStar/2)
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("measured per-cycle contraction %.3f vs Theorem 2 bound (1-α*/2) = %.3f", rate, 1-alphaStar/2))
	return rep, nil
}

func runEq14(o Options) (*Report, error) {
	rep := &Report{ID: "eq14", Title: "Marking probability p*: Taylor approximation vs exact root"}
	ns := []int{1, 2, 4, 10, 16, 32, 64}
	if o.Scale == Quick {
		ns = []int{2, 10, 64}
	}
	tbl := Table{Cols: []string{"N", "p* exact", "p* approx (Eq.14)", "rel err %", "q* KB (Eq.9)"}}
	for _, n := range ns {
		p := fluid.DefaultDCQCNParams(n)
		fp, err := fixedpoint.SolveDCQCN(p)
		if err != nil {
			return nil, err
		}
		approx := fixedpoint.DCQCNPStarApprox(p)
		rel := abs(approx-fp.P) / fp.P * 100
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprint(n), eng(fp.P), eng(approx), f1(rel), f1(fp.Q),
		})
		rep.AddMetric(fmt.Sprintf("relerr_N%d", n), rel)
	}
	rep.Tables = append(rep.Tables, tbl)
	rep.Notes = append(rep.Notes,
		"the approximation is tight where p* is small and degrades (as an over-estimate) once p* leaves the small-p regime",
		"q* grows with N — the dependence the §5 PI controller removes")
	return rep, nil
}

func runParams(Options) (*Report, error) {
	rep := &Report{ID: "params", Title: "Default model parameters"}
	p := fluid.DefaultDCQCNParams(2)
	t1 := Table{Title: "DCQCN (Table 1, [31] defaults; packet units, 1 KB MTU)",
		Cols: []string{"parameter", "value"}}
	t1.Rows = [][]string{
		{"C", "40 Gb/s (5e6 pkt/s)"},
		{"R_AI", "40 Mb/s"},
		{"τ (CNP timer)", fmt.Sprintf("%.0f µs", p.Tau*1e6)},
		{"τ' (α timer)", fmt.Sprintf("%.0f µs", p.TauPrime*1e6)},
		{"T (rate timer)", fmt.Sprintf("%.0f µs", p.T*1e6)},
		{"B (byte counter)", "10 MB"},
		{"F", fmt.Sprintf("%.0f", p.F)},
		{"K_min / K_max", fmt.Sprintf("%.0f / %.0f KB", p.Kmin, p.Kmax)},
		{"P_max", fmt.Sprintf("%.2f", p.Pmax)},
		{"g", "1/256"},
	}
	c := fluid.DefaultTimelyConfig(2)
	t2 := Table{Title: "TIMELY (Table 2, footnote-4 values)", Cols: []string{"parameter", "value"}}
	t2.Rows = [][]string{
		{"C", "10 Gb/s"},
		{"EWMA α", fmt.Sprintf("%.3f", c.EWMA)},
		{"β", fmt.Sprintf("%.3f", c.Beta)},
		{"δ", "10 Mb/s"},
		{"T_low / T_high", fmt.Sprintf("%.0f / %.0f µs", c.TLow*1e6, c.THigh*1e6)},
		{"D_minRTT", fmt.Sprintf("%.0f µs", c.DminRTT*1e6)},
		{"Seg", fmt.Sprintf("%.0f KB", c.Seg/1000)},
		{"patched β / Seg", "0.008 / 16 KB"},
	}
	rep.Tables = append(rep.Tables, t1, t2)
	return rep, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
