package exp

// Hybrid fluid↔packet co-simulation experiments (internal/hybrid): the
// analytic layer as a standing correctness oracle for the packet simulator
// (crossval), equilibrium warm starts that skip the cold-start transient
// (hybridwarm), and fluid background aggregates that stand in for large
// flow populations (hybridbg). These runners integrate ODEs coupled to a
// DES tick.

import (
	"fmt"

	"ecndelay/internal/des"
	"ecndelay/internal/hybrid"
	"ecndelay/internal/netsim"
	"ecndelay/internal/stats"
)

func init() {
	register(Runner{
		ID: "crossval", Title: "Cross-validate fluid vs packet vs fixed point at the canonical operating points",
		Figure: "hybrid oracle", Run: runCrossVal,
	})
	register(Runner{
		ID: "hybridwarm", Title: "Equilibrium warm start on a Clos incast: events to steady state vs cold start",
		Figure: "hybrid oracle", Run: runHybridWarm,
	})
	register(Runner{
		ID: "hybridbg", Title: "Fluid background aggregate vs all-packet run: operating point and event cost",
		Figure: "hybrid oracle", Run: runHybridBG,
	})
}

// runCrossVal is the CI gate: every check at every operating point must be
// inside its documented tolerance or the runner errors (and ecnbench exits
// non-zero).
func runCrossVal(o Options) (*Report, error) {
	rep := &Report{ID: "crossval", Title: "Fluid↔packet cross-validation against the paper's fixed points"}
	points := hybrid.CIOperatingPoints()
	if o.Scale == Quick {
		points = []hybrid.OpPoint{points[1], points[2]} // dcqcn N=10, timely N=2
	}
	tbl := Table{Cols: []string{"point", "check", "oracle", "measured", "rel err", "tol", "ok"}}
	var firstErr error
	for _, op := range points {
		res, err := hybrid.RunOp(op, o.Seed, o.Observer)
		if err != nil {
			return nil, err
		}
		for _, c := range res.Checks {
			tbl.Rows = append(tbl.Rows, []string{
				res.Name, c.Name, eng(c.Want), eng(c.Got), f3(c.RelErr()), f3(c.Tol),
				fmt.Sprint(c.OK()),
			})
			rep.AddMetric(res.Name+"."+c.Name, c.RelErr())
		}
		if err := res.Err(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	rep.Tables = append(rep.Tables, tbl)
	rep.Notes = append(rep.Notes,
		"every check must stay inside its tolerance: the paper's own math is the regression oracle for the packet simulator")
	if firstErr != nil {
		return nil, firstErr
	}
	return rep, nil
}

// runHybridWarm compares a warm-started Clos incast against the cold start:
// same steady state, far fewer events to reach it.
func runHybridWarm(o Options) (*Report, error) {
	rep := &Report{ID: "hybridwarm", Title: "Warm start at the Theorem 1 fixed point on a Clos incast (N=10, 40 Gb/s)"}
	const horizon = 0.1
	sc := hybrid.NewDCQCNScenario(10, o.Seed)
	warm, err := hybrid.DCQCNWarmStart(sc.Par)
	if err != nil {
		return nil, err
	}
	tbl := Table{Cols: []string{"start", "tail queue KB", "settle ms", "events at settle", "total events"}}
	var settles [2]hybrid.Settle
	for i, mode := range []string{"cold", "warm"} {
		var w *hybrid.WarmStart
		if mode == "warm" {
			w = warm
		}
		nw, cl, _, err := sc.ClosIncast(o.Observer, w)
		if err != nil {
			return nil, err
		}
		qs := netsim.MonitorQueueBytes(nw.Sim, cl.HostPorts[0], 100*des.Microsecond)
		evs := hybrid.MonitorEvents(nw.Sim, 100*des.Microsecond)
		nw.RunUntil(des.Time(des.DurationFromSeconds(horizon)))
		st := hybrid.MeasureSettle(qs, evs, horizon)
		settles[i] = st
		tbl.Rows = append(tbl.Rows, []string{
			mode, f1(st.TailMean / 1000), f2(st.Time * 1000),
			fmt.Sprint(st.Events), fmt.Sprint(nw.Sim.Processed()),
		})
		rep.AddMetric("settle_events_"+mode, float64(st.Events))
		rep.AddMetric("tail_queue_kb_"+mode, st.TailMean/1000)
	}
	cold, warmS := settles[0], settles[1]
	tailDiff := relDiff(warmS.TailMean, cold.TailMean)
	rep.AddMetric("tail_rel_diff", tailDiff)
	ratio := float64(warmS.Events) / float64(cold.Events)
	rep.AddMetric("settle_event_ratio", ratio)
	rep.Tables = append(rep.Tables, tbl)
	rep.Notes = append(rep.Notes,
		"the warm start lands inside the steady-state envelope almost immediately; the cold start pays a line-rate overshoot transient first")
	if tailDiff > 0.15 {
		return nil, fmt.Errorf("hybridwarm: warm and cold steady states diverge: rel diff %.3f > 0.15", tailDiff)
	}
	if warmS.Events >= cold.Events {
		return nil, fmt.Errorf("hybridwarm: warm start took %d events to settle, cold %d — no saving",
			warmS.Events, cold.Events)
	}
	return rep, nil
}

// runHybridBG compares an 8-flow all-packet star against 2 packet
// foreground flows plus a 6-flow fluid background aggregate.
func runHybridBG(o Options) (*Report, error) {
	rep := &Report{ID: "hybridbg", Title: "Fluid background aggregate: 2 packet + 6 fluid flows vs 8 packet flows"}
	const horizon = 0.1
	end := des.Time(des.DurationFromSeconds(horizon))

	full := hybrid.NewDCQCNScenario(8, o.Seed)
	nwF, starF, _, err := full.Star(o.Observer, nil)
	if err != nil {
		return nil, err
	}
	qsF := netsim.MonitorQueueBytes(nwF.Sim, starF.Bottleneck, 100*des.Microsecond)
	nwF.RunUntil(end)
	evF := nwF.Sim.Processed()
	fullMean := qsF.WindowSummary(horizon*0.6, horizon).Mean

	sc := hybrid.NewDCQCNScenario(2, o.Seed)
	nwH, starH, senders, err := sc.Star(o.Observer, nil)
	if err != nil {
		return nil, err
	}
	bg, err := hybrid.AttachBackground(starH.Bottleneck, hybrid.BackgroundConfig{
		Flows: 6, Par: sc.Par, ColdStart: true,
	})
	if err != nil {
		return nil, err
	}
	// The marking view is the coupled occupancy: real + fluid bytes.
	qsH, rsH := &stats.Series{}, &stats.Series{}
	nwH.Sim.Every(des.Time(100*des.Microsecond), 100*des.Microsecond, func() {
		t := nwH.Sim.Now().Seconds()
		qsH.Add(t, float64(starH.Bottleneck.Queue().MarkBytes()))
		sum := 0.0
		for _, s := range senders {
			sum += s.Rate()
		}
		rsH.Add(t, sum/float64(len(senders)))
	})
	nwH.RunUntil(end)
	evH := nwH.Sim.Processed()
	hybMean := qsH.WindowSummary(horizon*0.6, horizon).Mean
	fgRate := rsH.WindowSummary(horizon*0.6, horizon).Mean

	fair := sc.Par.C / 8 * hybrid.MTU // bytes/s per flow at the 8-flow fixed point
	tbl := Table{Cols: []string{"run", "tail queue KB", "events", "per-flow Gb/s"}}
	tbl.Rows = append(tbl.Rows,
		[]string{"8 packet flows", f1(fullMean / 1000), fmt.Sprint(evF), f2(fair * 8 / 1e9)},
		[]string{"2 packet + 6 fluid", f1(hybMean / 1000), fmt.Sprint(evH), f2(fgRate * 8 / 1e9)},
	)
	rep.Tables = append(rep.Tables, tbl)
	qDiff := relDiff(hybMean, fullMean)
	evRatio := float64(evH) / float64(evF)
	rateDiff := relDiff(fgRate, fair)
	rep.AddMetric("queue_rel_diff", qDiff)
	rep.AddMetric("event_ratio", evRatio)
	rep.AddMetric("fg_rate_rel_diff", rateDiff)
	rep.AddMetric("bg_rate_gbps", bg.Rate()*8/1e9)
	rep.Notes = append(rep.Notes,
		"the aggregate absorbs leftover capacity while sharing one marking probability with the packet foreground, so the coupled system settles at the 8-flow fixed point at a fraction of the event cost",
		"the foreground/background split is only approximately fair: congestion-signal coupling fixes the total rate, not the division (see DESIGN.md)")
	if qDiff > 0.25 {
		return nil, fmt.Errorf("hybridbg: coupled queue diverges from the all-packet run: rel diff %.3f > 0.25", qDiff)
	}
	if evRatio > 0.6 {
		return nil, fmt.Errorf("hybridbg: event ratio %.3f — the aggregate saved too little", evRatio)
	}
	if rateDiff > 0.30 {
		return nil, fmt.Errorf("hybridbg: foreground rate %.3g off the 8-flow fair share %.3g (rel %.3f)",
			fgRate, fair, rateDiff)
	}
	return rep, nil
}

func relDiff(a, b float64) float64 {
	d := a - b
	if d < 0 {
		d = -d
	}
	if b < 0 {
		b = -b
	}
	if b < 1e-12 {
		b = 1e-12
	}
	return d / b
}
