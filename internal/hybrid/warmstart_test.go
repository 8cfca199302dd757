package hybrid

import (
	"math"
	"testing"

	"ecndelay/internal/des"
	"ecndelay/internal/fixedpoint"
	"ecndelay/internal/fluid"
	"ecndelay/internal/netsim"
	"ecndelay/internal/obs"
	"ecndelay/internal/stats"
)

func TestDCQCNWarmStartWireUnits(t *testing.T) {
	pr := fluid.DefaultDCQCNParams(10)
	fp, err := fixedpoint.SolveDCQCN(pr)
	if err != nil {
		t.Fatal(err)
	}
	w, err := DCQCNWarmStart(pr)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.RatesBytes) != 10 || len(w.TargetsBytes) != 10 || len(w.Alphas) != 10 {
		t.Fatalf("warm start sized %d/%d/%d, want 10 each",
			len(w.RatesBytes), len(w.TargetsBytes), len(w.Alphas))
	}
	if got, want := w.RatesBytes[0], fp.RC*MTU; got != want {
		t.Errorf("RatesBytes[0] = %v, want RC*MTU = %v", got, want)
	}
	if got, want := w.QueueBytes, int(fp.Q*MTU); got != want {
		t.Errorf("QueueBytes = %d, want q**MTU = %d", got, want)
	}
	if w.Alphas[0] != fp.Alpha || w.FP.P != fp.P {
		t.Error("warm start did not carry the solved fixed point through")
	}
}

func TestTimelyWarmStartDefaults(t *testing.T) {
	cfg := fluid.DefaultPatchedTimelyConfig(2)
	w, err := TimelyWarmStart(cfg)
	if err != nil {
		t.Fatal(err)
	}
	qPrime := cfg.C * cfg.TLow
	want := int(fixedpoint.PatchedTimelyQStar(2, cfg.Delta, cfg.Beta, cfg.C, qPrime))
	if w.QueueBytes != want {
		t.Errorf("QueueBytes = %d, want Eq. 31 q* = %d", w.QueueBytes, want)
	}
	if w.RatesBytes[0] != cfg.C/2 {
		t.Errorf("RatesBytes[0] = %v, want fair share %v", w.RatesBytes[0], cfg.C/2)
	}
	cfg.N = 0
	if _, err := TimelyWarmStart(cfg); err == nil {
		t.Error("TimelyWarmStart accepted n=0")
	}
}

func TestApplyDCQCNLengthMismatch(t *testing.T) {
	w, err := DCQCNWarmStart(fluid.DefaultDCQCNParams(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.ApplyDCQCN(nil); err == nil {
		t.Error("ApplyDCQCN accepted a sender count mismatch")
	}
}

func TestPrefillFillsQueue(t *testing.T) {
	sc := NewDCQCNScenario(2, 1)
	warm, err := DCQCNWarmStart(sc.Par)
	if err != nil {
		t.Fatal(err)
	}
	_, star, _, err := sc.Star(nil, warm)
	if err != nil {
		t.Fatal(err)
	}
	got := star.Bottleneck.Queue().Bytes()
	// The fill is whole MTU segments, minus the one segment the port
	// immediately pulls into transmission.
	want := (warm.QueueBytes / MTU) * MTU
	if got < want-2*MTU || got > want {
		t.Errorf("prefilled queue = %d bytes, want about %d", got, want)
	}
	if w2 := (&WarmStart{QueueBytes: MTU}); w2.Prefill(star.Bottleneck, nil) != 0 {
		t.Error("Prefill with no flows injected bytes")
	}
}

// TestWarmTrajectoryStaysInBand is the tentpole's warm-start validation:
// an obs probe on the bottleneck queue shows the warm-started trajectory
// stays within a tolerance band of the analytic equilibrium from t=0,
// while the cold start spends its transient far outside it.
func TestWarmTrajectoryStaysInBand(t *testing.T) {
	if testing.Short() {
		t.Skip("warm/cold trajectory probes take a few seconds")
	}
	const horizon = 0.02
	run := func(warm *WarmStart) *obs.Probe {
		sc := NewDCQCNScenario(10, 1)
		nw, star, _, err := sc.Star(nil, warm)
		if err != nil {
			t.Fatal(err)
		}
		p := obs.NewProbe("queue_bytes", 0)
		p.Drive(nw.Sim, 100*des.Microsecond, func() float64 {
			return float64(star.Bottleneck.Queue().Bytes())
		})
		nw.RunUntil(des.Time(des.DurationFromSeconds(horizon)))
		return p
	}
	warm, err := DCQCNWarmStart(NewDCQCNScenario(10, 1).Par)
	if err != nil {
		t.Fatal(err)
	}
	qStar := warm.FP.Q * MTU
	// maxRelDev is the largest relative deviation from q* over the run.
	maxRelDev := func(p *obs.Probe) float64 {
		worst := 0.0
		for _, s := range p.Samples() {
			worst = max(worst, math.Abs(s.V-qStar)/qStar)
		}
		return worst
	}
	warmDev := maxRelDev(run(warm))
	coldDev := maxRelDev(run(nil))
	// The band reflects the DCQCN limit cycle's own amplitude around q*;
	// the cold start's line-rate overshoot exceeds it several-fold.
	if warmDev > 1.0 {
		t.Errorf("warm trajectory left the band from t=0: max rel dev %.2f > 1.0", warmDev)
	}
	if coldDev < 2*warmDev {
		t.Errorf("cold transient (%.2f) not clearly outside the warm band (%.2f)", coldDev, warmDev)
	}
}

// TestWarmColdSameSteadyState is the property-test satellite: a
// warm-started packet run and a cold-started packet run must converge to
// the same steady-state queue histogram percentiles, on the star and on
// the Clos incast.
func TestWarmColdSameSteadyState(t *testing.T) {
	if testing.Short() {
		t.Skip("warm/cold steady-state comparison takes several seconds")
	}
	const (
		horizon = 0.1
		tol     = 0.25 // histogram-percentile tolerance, as in runreport's gate
	)
	type build func(warm *WarmStart) (*netsim.Network, *netsim.Port, error)
	sc := NewDCQCNScenario(10, 1)
	warm, err := DCQCNWarmStart(sc.Par)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		build build
	}{
		{"star", func(w *WarmStart) (*netsim.Network, *netsim.Port, error) {
			nw, star, _, err := sc.Star(nil, w)
			if err != nil {
				return nil, nil, err
			}
			return nw, star.Bottleneck, nil
		}},
		{"clos", func(w *WarmStart) (*netsim.Network, *netsim.Port, error) {
			nw, cl, _, err := sc.ClosIncast(nil, w)
			if err != nil {
				return nil, nil, err
			}
			return nw, cl.HostPorts[0], nil
		}},
	}
	percentiles := []float64{50, 90, 99}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			tails := make(map[bool][]float64, 2)
			for _, warmRun := range []bool{false, true} {
				var w *WarmStart
				if warmRun {
					w = warm
				}
				nw, port, err := tc.build(w)
				if err != nil {
					t.Fatal(err)
				}
				qs := netsim.MonitorQueueBytes(nw.Sim, port, 100*des.Microsecond)
				nw.RunUntil(des.Time(des.DurationFromSeconds(horizon)))
				tails[warmRun] = qs.Window(horizon*0.6, horizon)
			}
			for _, pct := range percentiles {
				cold := percentile(t, tails[false], pct)
				warmv := percentile(t, tails[true], pct)
				if d := relErr(warmv, cold); d > tol {
					t.Errorf("p%.0f: warm %.0f vs cold %.0f bytes, rel %.3f > %.2f",
						pct, warmv, cold, d, tol)
				}
			}
		})
	}
}

func percentile(t *testing.T, vals []float64, pct float64) float64 {
	t.Helper()
	v, err := stats.Percentile(vals, pct)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestRelErrDenominatorFloor(t *testing.T) {
	if d := relErr(1e-6, 0); math.IsInf(d, 0) || math.IsNaN(d) {
		t.Errorf("relErr with zero want = %v", d)
	}
}
