package hybrid

import (
	"testing"

	"ecndelay/internal/des"
	"ecndelay/internal/netsim"
)

// TestMeasureSettleWarmVsCold is the settle-measurement contract the
// hybridwarm experiment relies on: a warm-started run must enter the
// steady-state envelope earlier — in both simulated time and DES events —
// than the cold start, while both settle to the same tail mean.
func TestMeasureSettleWarmVsCold(t *testing.T) {
	if testing.Short() {
		t.Skip("warm/cold settle runs take a few seconds")
	}
	const horizon = 0.05
	run := func(warm *WarmStart) Settle {
		sc := NewDCQCNScenario(10, 1)
		nw, star, _, err := sc.Star(nil, warm)
		if err != nil {
			t.Fatal(err)
		}
		qs := netsim.MonitorQueueBytes(nw.Sim, star.Bottleneck, 100*des.Microsecond)
		evs := MonitorEvents(nw.Sim, 100*des.Microsecond)
		nw.RunUntil(des.Time(des.DurationFromSeconds(horizon)))
		return MeasureSettle(qs, evs, horizon)
	}
	warm, err := DCQCNWarmStart(NewDCQCNScenario(10, 1).Par)
	if err != nil {
		t.Fatal(err)
	}
	w, c := run(warm), run(nil)
	if w.Events >= c.Events {
		t.Errorf("warm settled after %d events, cold after %d — warm start saved nothing",
			w.Events, c.Events)
	}
	if w.Time > c.Time {
		t.Errorf("warm settle time %.4fs later than cold %.4fs", w.Time, c.Time)
	}
	if d := relErr(w.TailMean, c.TailMean); d > 0.25 {
		t.Errorf("warm tail mean %.0f vs cold %.0f bytes, rel %.3f > 0.25",
			w.TailMean, c.TailMean, d)
	}
	if c.Band <= 0 || w.Band <= 0 {
		t.Errorf("degenerate envelopes: warm %.3f cold %.3f", w.Band, c.Band)
	}
}

// TestFluidWarmStartInitialRates pins the warm branch of Fluid: the ODE
// system's initial state must carry the fixed-point per-flow rates in paper
// units instead of the cold-start line rate.
func TestFluidWarmStartInitialRates(t *testing.T) {
	sc := NewDCQCNScenario(4, 1)
	warm, err := DCQCNWarmStart(sc.Par)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := sc.Fluid(warm)
	if err != nil {
		t.Fatal(err)
	}
	y := sys.Initial()
	for i := 0; i < sc.Par.N; i++ {
		if got, want := y[sys.RCIndex(i)], warm.RatesBytes[i]/MTU; got != want {
			t.Errorf("flow %d: initial RC = %v packets/s, want warm-start %v", i, got, want)
		}
	}
	cold, err := sc.Fluid(nil)
	if err != nil {
		t.Fatal(err)
	}
	if yc := cold.Initial(); yc[cold.RCIndex(0)] == y[sys.RCIndex(0)] {
		t.Error("cold fluid start already at the warm rate — warm branch is a no-op")
	}
}

// TestTimelyStarWarm pins the warm branch of TimelyScenario.Star: senders
// start at the Eq. 31 fair share and the bottleneck queue is prefilled.
func TestTimelyStarWarm(t *testing.T) {
	sc := NewTimelyScenario(2, 1)
	warm, err := TimelyWarmStart(sc.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	nw, star, senders, err := sc.Star(nil, warm)
	if err != nil {
		t.Fatal(err)
	}
	if len(senders) != sc.Cfg.N {
		t.Fatalf("built %d senders, want %d", len(senders), sc.Cfg.N)
	}
	// The start rate is applied by the flow's t=0 start event, so step the
	// simulator one tick before sampling (no RTT completes that fast, so
	// TIMELY has not adjusted anything yet).
	nw.RunUntil(des.Time(des.Microsecond))
	for i, s := range senders {
		if got, want := s.Rate(), warm.RatesBytes[i]; got != want {
			t.Errorf("sender %d rate = %v, want warm-start %v", i, got, want)
		}
	}
	if got := star.Bottleneck.Queue().Bytes(); got <= 0 {
		t.Errorf("warm TIMELY star left the bottleneck queue empty (%d bytes)", got)
	}
}
