package ecndelay_test

// Facade-level tests: exercise the public API end to end the way a
// downstream user would.

import (
	"math"
	"testing"

	"ecndelay"
	"ecndelay/internal/dcqcn"
)

func TestPublicFixedPointAPI(t *testing.T) {
	p := ecndelay.DefaultDCQCNParams(4)
	fp, err := ecndelay.SolveDCQCNFixedPoint(p)
	if err != nil {
		t.Fatal(err)
	}
	if fp.RC != p.C/4 {
		t.Errorf("fair share %v, want %v", fp.RC, p.C/4)
	}
	q := ecndelay.PatchedTimelyQStar(2, 1.25e6, 0.008, 1.25e9, 62500)
	if q <= 62500 {
		t.Errorf("Eq.31 queue %v must exceed the reference", q)
	}
}

func TestPublicFluidAPI(t *testing.T) {
	p := ecndelay.DefaultDCQCNParams(2)
	sys, err := ecndelay.NewDCQCNFluid(ecndelay.DCQCNFluidConfig{Params: p})
	if err != nil {
		t.Fatal(err)
	}
	tr := ecndelay.RunFluid(sys, 1e-6, 0.05, 1e-3)
	if len(tr) == 0 {
		t.Fatal("empty trajectory")
	}
	last := tr[len(tr)-1]
	fp, err := ecndelay.SolveDCQCNFixedPoint(p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(last.Y[sys.QIndex()]-fp.Q)/fp.Q > 0.1 {
		t.Errorf("queue %v vs fixed point %v", last.Y[sys.QIndex()], fp.Q)
	}
}

func TestPublicStabilityAPI(t *testing.T) {
	p := ecndelay.DefaultDCQCNParams(8)
	p.TauStar = 85e-6
	loop, err := ecndelay.NewDCQCNLoop(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ecndelay.PhaseMargin(loop)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stable {
		t.Errorf("N=8 at 85µs should be in the unstable valley (PM=%v)", res.PhaseMarginDeg)
	}
}

func TestPublicConvergenceAPI(t *testing.T) {
	cfg := ecndelay.DefaultConvergenceConfig(2)
	cfg.InitialRates = []float64{4e6, 1e6}
	cycles, err := ecndelay.RunConvergence(cfg, 30)
	if err != nil {
		t.Fatal(err)
	}
	alphaStar, _, err := ecndelay.AlphaFixedPoint(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rate := ecndelay.GapDecayRate(cycles, 1)
	if rate <= 0 || rate > 1-alphaStar/4 {
		t.Errorf("gap decay %v vs α* %v", rate, alphaStar)
	}
}

func TestPublicPacketSimAPI(t *testing.T) {
	nw := ecndelay.NewNetwork(1)
	star := ecndelay.NewStar(nw, ecndelay.StarConfig{
		Senders: 2,
		Link:    ecndelay.LinkConfig{Bandwidth: 1.25e9, PropDelay: ecndelay.Microsecond},
	})
	rx, err := ecndelay.NewDCQCNEndpoint(star.Receiver, ecndelay.DefaultDCQCNProtoParams())
	if err != nil {
		t.Fatal(err)
	}
	done := 0
	rx.OnComplete = func(dcqcn.Completion) { done++ }
	_ = rx
	ep, err := ecndelay.NewDCQCNEndpoint(star.Senders[0], ecndelay.DefaultDCQCNProtoParams())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ep.NewFlow(0, star.Receiver.ID(), 50000, 0); err != nil {
		t.Fatal(err)
	}
	nw.Sim.Run()
	if done != 1 {
		t.Errorf("completions = %d, want 1", done)
	}
}

func TestPublicWorkloadAndStatsAPI(t *testing.T) {
	ws := ecndelay.WebSearchSizes()
	if ws.Mean() < 0.5e6 {
		t.Errorf("web-search mean %v looks wrong", ws.Mean())
	}
	med, err := ecndelay.Percentile([]float64{3, 1, 2}, 50)
	if err != nil || med != 2 {
		t.Errorf("median %v, %v", med, err)
	}
	if j := ecndelay.JainIndex([]float64{1, 1}); math.Abs(j-1) > 1e-12 {
		t.Errorf("Jain %v", j)
	}
	if s := ecndelay.Summarize([]float64{1, 3}); s.Mean != 2 {
		t.Errorf("Summarize %v", s)
	}
}

func TestPublicExperimentAPI(t *testing.T) {
	if len(ecndelay.Runners()) < 20 {
		t.Errorf("only %d experiments registered", len(ecndelay.Runners()))
	}
	r, ok := ecndelay.GetRunner("params")
	if !ok {
		t.Fatal("params runner missing")
	}
	rep, err := r.Run(ecndelay.ExperimentOptions{Scale: ecndelay.Quick, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ID != "params" || len(rep.Tables) != 2 {
		t.Errorf("unexpected report %+v", rep)
	}
}
