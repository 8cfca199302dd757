package ecndelay_test

// One benchmark per paper table/figure: each runs the registered
// experiment at Quick scale and reports its headline metrics, so
// `go test -bench=.` regenerates (a scaled version of) the entire
// evaluation and `cmd/ecnbench -full` the paper-scale one.

import (
	"sort"
	"strings"
	"testing"

	"ecndelay/internal/dcqcn"
	"ecndelay/internal/des"
	"ecndelay/internal/exp"
	"ecndelay/internal/fixedpoint"
	"ecndelay/internal/fluid"
	"ecndelay/internal/netsim"
	"ecndelay/internal/stability"
	"ecndelay/internal/stats"
	"ecndelay/internal/sweep"
	"ecndelay/internal/timely"
)

// benchRunner runs one registered experiment per iteration and publishes
// its metrics through testing.B.
func benchRunner(b *testing.B, id string) {
	r, ok := exp.Get(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	b.ReportAllocs()
	var rep *exp.Report
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = r.Run(exp.Options{Scale: exp.Quick, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
	}
	keys := make([]string, 0, len(rep.Metrics))
	for k := range rep.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	// Report up to a handful of headline metrics; the full set is in the
	// rendered report.
	for i, k := range keys {
		if i >= 6 {
			break
		}
		// Metric units must not contain whitespace; some metric names
		// embed protocol names ("Patched TIMELY").
		b.ReportMetric(rep.Metrics[k], strings.ReplaceAll(k, " ", "_"))
	}
}

// ---- §3: DCQCN ----

// BenchmarkFig2DCQCNModelValidation regenerates Figure 2 (fluid vs packet).
func BenchmarkFig2DCQCNModelValidation(b *testing.B) { benchRunner(b, "fig2") }

// BenchmarkFig3DCQCNPhaseMargin regenerates Figure 3(a-c).
func BenchmarkFig3DCQCNPhaseMargin(b *testing.B) { benchRunner(b, "fig3") }

// BenchmarkFig4DCQCNFluidStability regenerates Figure 4.
func BenchmarkFig4DCQCNFluidStability(b *testing.B) { benchRunner(b, "fig4") }

// BenchmarkFig5DCQCNPacketInstability regenerates Figure 5.
func BenchmarkFig5DCQCNPacketInstability(b *testing.B) { benchRunner(b, "fig5") }

// BenchmarkThm2DCQCNConvergence regenerates the Theorem 2 / Figure 6
// discrete-model analysis.
func BenchmarkThm2DCQCNConvergence(b *testing.B) { benchRunner(b, "thm2") }

// BenchmarkEq14FixedPointApproximation regenerates the Eq. 14 check.
func BenchmarkEq14FixedPointApproximation(b *testing.B) { benchRunner(b, "eq14") }

// BenchmarkTable1Table2Params prints the Table 1/2 parameter sets.
func BenchmarkTable1Table2Params(b *testing.B) { benchRunner(b, "params") }

// ---- §4: TIMELY ----

// BenchmarkFig8TimelyModelValidation regenerates Figure 8.
func BenchmarkFig8TimelyModelValidation(b *testing.B) { benchRunner(b, "fig8") }

// BenchmarkFig9TimelyInfiniteFixedPoints regenerates Figure 9(a-c).
func BenchmarkFig9TimelyInfiniteFixedPoints(b *testing.B) { benchRunner(b, "fig9") }

// BenchmarkFig10TimelyBurstPacing regenerates Figure 10(a,b).
func BenchmarkFig10TimelyBurstPacing(b *testing.B) { benchRunner(b, "fig10") }

// BenchmarkFig11PatchedTimelyPhaseMargin regenerates Figure 11.
func BenchmarkFig11PatchedTimelyPhaseMargin(b *testing.B) { benchRunner(b, "fig11") }

// BenchmarkFig12PatchedTimelyConvergence regenerates Figure 12(a-c).
func BenchmarkFig12PatchedTimelyConvergence(b *testing.B) { benchRunner(b, "fig12") }

// ---- §5: ECN versus delay ----

// BenchmarkFig14FCTvsLoad regenerates Figure 14.
func BenchmarkFig14FCTvsLoad(b *testing.B) { benchRunner(b, "fig14") }

// BenchmarkFig15FCTCDF regenerates Figure 15.
func BenchmarkFig15FCTCDF(b *testing.B) { benchRunner(b, "fig15") }

// BenchmarkFig16BottleneckQueue regenerates Figure 16.
func BenchmarkFig16BottleneckQueue(b *testing.B) { benchRunner(b, "fig16") }

// BenchmarkFig17EgressVsIngressMarking regenerates Figure 17.
func BenchmarkFig17EgressVsIngressMarking(b *testing.B) { benchRunner(b, "fig17") }

// BenchmarkFig18DCQCNWithPI regenerates Figure 18.
func BenchmarkFig18DCQCNWithPI(b *testing.B) { benchRunner(b, "fig18") }

// BenchmarkFig19TimelyWithHostPI regenerates Figure 19.
func BenchmarkFig19TimelyWithHostPI(b *testing.B) { benchRunner(b, "fig19") }

// BenchmarkFig20JitterResilience regenerates Figure 20.
func BenchmarkFig20JitterResilience(b *testing.B) { benchRunner(b, "fig20") }

// BenchmarkThm6FairnessDelayTradeoff regenerates the Theorem 6
// demonstration.
func BenchmarkThm6FairnessDelayTradeoff(b *testing.B) { benchRunner(b, "thm6") }

// BenchmarkFig21Summary regenerates the §5.3 summary table.
func BenchmarkFig21Summary(b *testing.B) { benchRunner(b, "fig21") }

// ---- §7 future-work extensions ----

// BenchmarkExtMultiBottleneck regenerates the parking-lot fairness
// extension.
func BenchmarkExtMultiBottleneck(b *testing.B) { benchRunner(b, "extmultihop") }

// BenchmarkExtPFCHoLBlocking regenerates the PFC head-of-line-blocking
// extension.
func BenchmarkExtPFCHoLBlocking(b *testing.B) { benchRunner(b, "extpfc") }

// BenchmarkExtPacketLevelPI regenerates the datapath-PI extension.
func BenchmarkExtPacketLevelPI(b *testing.B) { benchRunner(b, "extpi") }

// ---- Robustness extensions (fault injection) ----

// BenchmarkFaultLossFCT regenerates the FCT-under-packet-loss sweep
// (go-back-N recovery on lossy links).
func BenchmarkFaultLossFCT(b *testing.B) { benchRunner(b, "faultloss") }

// BenchmarkFaultCNPLoss regenerates the DCQCN queue-stability-under-
// CNP-loss experiment.
func BenchmarkFaultCNPLoss(b *testing.B) { benchRunner(b, "faultcnp") }

// ---- Fabric extensions (Clos topologies, internal/topo) ----

// BenchmarkClosIncast regenerates the incast fan-in sweep on the 3-tier
// fat tree (FCT and PFC pause time vs fan-in).
func BenchmarkClosIncast(b *testing.B) { benchRunner(b, "closincast") }

// BenchmarkClosShuffle regenerates the all-to-all shuffle on the
// leaf-spine fabric (completion, fairness, ECMP balance).
func BenchmarkClosShuffle(b *testing.B) { benchRunner(b, "closshuffle") }

// BenchmarkClosLoad regenerates the streaming Poisson churn run on the
// 3-tier Clos (lazy arrival generation).
func BenchmarkClosLoad(b *testing.B) { benchRunner(b, "closload") }

// ---- Hybrid fluid/packet co-simulation (internal/hybrid, design note
// "Hybrid fluid-packet coupling" in DESIGN.md) ----

// BenchmarkCrossVal runs the fluid-vs-packet-vs-fixed-point
// cross-validation at the canonical operating points.
func BenchmarkCrossVal(b *testing.B) { benchRunner(b, "crossval") }

// BenchmarkHybridWarm runs the warm-vs-cold Clos settle comparison.
func BenchmarkHybridWarm(b *testing.B) { benchRunner(b, "hybridwarm") }

// BenchmarkHybridBG runs the packet-foreground/fluid-background star
// against its all-packet reference.
func BenchmarkHybridBG(b *testing.B) { benchRunner(b, "hybridbg") }

// BenchmarkAuditLoop runs the audited Figure 5 incast across its CNP
// loss points — the cost of a fully attached audit trail rides along.
func BenchmarkAuditLoop(b *testing.B) { benchRunner(b, "auditloop") }

// ---- Ablations (design choices called out in DESIGN.md) ----

// BenchmarkAblationMarkingPoint contrasts egress and ingress ECN marking
// directly through the packet simulator (design choice 1).
func BenchmarkAblationMarkingPoint(b *testing.B) {
	for _, ingress := range []bool{false, true} {
		name := "egress"
		if ingress {
			name = "ingress"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var cv float64
			for i := 0; i < b.N; i++ {
				nw := netsim.New(7)
				star := netsim.NewStar(nw, netsim.StarConfig{
					Senders: 2,
					Link:    netsim.LinkConfig{Bandwidth: 1.25e9, PropDelay: des.Microsecond},
					Mark: func() netsim.Marker {
						return &netsim.REDMarker{Kmin: 5000, Kmax: 200000, Pmax: 0.01, Ingress: ingress, Rng: nw.Rng}
					},
				})
				if _, err := dcqcn.NewEndpoint(star.Receiver, dcqcn.DefaultParams()); err != nil {
					b.Fatal(err)
				}
				for j, h := range star.Senders {
					ep, err := dcqcn.NewEndpoint(h, dcqcn.DefaultParams())
					if err != nil {
						b.Fatal(err)
					}
					if _, err := ep.NewFlow(j, star.Receiver.ID(), -1, 0); err != nil {
						b.Fatal(err)
					}
				}
				q := nw.Sample(50*des.Microsecond, netsim.QueueSignal("queue_bytes", star.Bottleneck))[0]
				nw.Sim.RunUntil(des.Time(60 * des.Millisecond))
				cv = q.WindowSummary(0.03, 0.06).CV()
			}
			b.ReportMetric(cv, "queue_cv")
		})
	}
}

// BenchmarkAblationPacing contrasts TIMELY pacing granularities (design
// choice 2).
func BenchmarkAblationPacing(b *testing.B) {
	for _, mode := range []struct {
		name  string
		burst bool
		seg   int
	}{{"per-packet", false, 16000}, {"burst16KB", true, 16000}, {"burst64KB", true, 64000}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			var util float64
			for i := 0; i < b.N; i++ {
				p := timely.DefaultParams()
				p.Burst = mode.burst
				p.Seg = mode.seg
				nw := netsim.New(1)
				star := netsim.NewStar(nw, netsim.StarConfig{
					Senders: 2,
					Link:    netsim.LinkConfig{Bandwidth: 1.25e9, PropDelay: des.Microsecond},
				})
				if _, err := timely.NewEndpoint(star.Receiver, p); err != nil {
					b.Fatal(err)
				}
				for j, h := range star.Senders {
					ep, err := timely.NewEndpoint(h, p)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := ep.NewFlow(j, star.Receiver.ID(), -1, 0, 5e9/8); err != nil {
						b.Fatal(err)
					}
				}
				// The delivered rate over each millisecond, from the port's byte count.
				var last int64
				thr := nw.Sample(des.Millisecond, netsim.Signal{Name: "tx_rate", Read: func() float64 {
					cur := star.Bottleneck.TxBytes
					rate := float64(cur-last) / des.Millisecond.Seconds()
					last = cur
					return rate
				}})[0]
				nw.Sim.RunUntil(des.Time(100 * des.Millisecond))
				util = thr.WindowSummary(0.05, 0.1).Mean / 1.25e9
			}
			b.ReportMetric(util, "utilisation")
		})
	}
}

// BenchmarkAblationWeightFunction contrasts the Eq. 30 linear weight with
// the original indicator function (design choice 4): the indicator is the
// on-off behaviour the paper blames for oscillation.
func BenchmarkAblationWeightFunction(b *testing.B) {
	run := func(b *testing.B, cfg fluid.TimelyConfig) float64 {
		sys, err := fluid.NewPatchedTimely(cfg)
		if err != nil {
			b.Fatal(err)
		}
		sm := fluid.Run(sys, 1e-6, 0.4, 1e-3)
		var vals []float64
		for _, s := range sm {
			if s.T > 0.3 {
				vals = append(vals, s.Y[sys.RateIndex(0)])
			}
		}
		return stats.Summarize(vals).CV()
	}
	b.Run("linear-weight", func(b *testing.B) {
		b.ReportAllocs()
		var cv float64
		for i := 0; i < b.N; i++ {
			cfg := fluid.DefaultPatchedTimelyConfig(2)
			cfg.InitialRates = []float64{7e9 / 8, 3e9 / 8}
			cv = run(b, cfg)
		}
		b.ReportMetric(cv, "rate_cv")
	})
}

// BenchmarkAblationTuning sweeps the Figure 3(b,c) stability knobs
// (design choice 5).
func BenchmarkAblationTuning(b *testing.B) {
	cases := []struct {
		name string
		mod  func(*fixedpoint.DCQCNParams)
	}{
		{"default", func(*fixedpoint.DCQCNParams) {}},
		{"smallRAI", func(p *fixedpoint.DCQCNParams) { p.RAI = 5e6 / 8 / 1000 }},
		{"largeKmax", func(p *fixedpoint.DCQCNParams) { p.Kmax = 1600 }},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var pm float64
			for i := 0; i < b.N; i++ {
				p := fluid.DefaultDCQCNParams(10)
				p.TauStar = 85e-6
				c.mod(&p)
				loop, err := fluid.NewDCQCNLoop(p)
				if err != nil {
					b.Fatal(err)
				}
				res, err := stability.PhaseMargin(loop)
				if err != nil {
					b.Fatal(err)
				}
				pm = res.PhaseMarginDeg
			}
			b.ReportMetric(pm, "phase_margin_deg")
		})
	}
}

// ---- Sweep engine (internal/sweep) ----

// sweepGridJobs is a Quick-scale runner grid: the cheap analytic
// experiments crossed with a few seeds, ~16 jobs.
func sweepGridJobs(b *testing.B) []sweep.Job {
	jobs, _, err := exp.SweepJobs(
		[]string{"fig3", "fig11", "eq14", "thm2"},
		exp.Options{Scale: exp.Quick},
		[]int64{1, 2, 3, 4})
	if err != nil {
		b.Fatal(err)
	}
	return jobs
}

func benchSweep(b *testing.B, workers int) {
	b.ReportAllocs()
	jobs := sweepGridJobs(b)
	for i := 0; i < b.N; i++ {
		sum, err := sweep.Run(sweep.Config{Workers: workers, BaseSeed: 1}, jobs, nil)
		if err != nil {
			b.Fatal(err)
		}
		if sum.Failed > 0 {
			b.Fatalf("%d jobs failed", sum.Failed)
		}
	}
	b.ReportMetric(float64(len(jobs)), "jobs")
}

// BenchmarkSweepSerial runs the grid on one worker: the baseline the
// parallel speedup is tracked against.
func BenchmarkSweepSerial(b *testing.B) { benchSweep(b, 1) }

// BenchmarkSweepParallel runs the same grid on all CPUs.
func BenchmarkSweepParallel(b *testing.B) { benchSweep(b, 0) }

// Ensure every registered experiment has a benchmark above (compile-time
// drift guard, executed as a test).
func TestEveryExperimentHasABenchmark(t *testing.T) {
	covered := map[string]bool{
		"fig2": true, "fig3": true, "fig4": true, "fig5": true,
		"thm2": true, "eq14": true, "params": true,
		"fig8": true, "fig9": true, "fig10": true, "fig11": true, "fig12": true,
		"fig14": true, "fig15": true, "fig16": true, "fig17": true,
		"fig18": true, "fig19": true, "fig20": true, "thm6": true, "fig21": true,
		"extmultihop": true, "extpfc": true, "extpi": true,
		"faultloss": true, "faultcnp": true,
		"closincast": true, "closshuffle": true, "closload": true,
		"crossval": true, "hybridwarm": true, "hybridbg": true,
		"auditloop": true,
	}
	for _, r := range exp.Runners() {
		if !covered[r.ID] {
			t.Errorf("experiment %q (%s) has no benchmark in bench_test.go", r.ID, r.Figure)
		}
	}
	if len(covered) != len(exp.Runners()) {
		t.Errorf("benchmark list (%d) out of sync with registry (%d)", len(covered), len(exp.Runners()))
	}
}
