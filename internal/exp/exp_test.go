package exp

import (
	"sort"
	"strings"
	"testing"

	"ecndelay/internal/stats"
)

func TestReportRender(t *testing.T) {
	r := &Report{ID: "x", Title: "demo"}
	r.Tables = append(r.Tables, Table{
		Title: "numbers",
		Cols:  []string{"a", "long column"},
		Rows:  [][]string{{"1", "2"}, {"333", "4"}},
	})
	r.Notes = append(r.Notes, "a note")
	r.AddMetric("m", 1.5)
	var sb strings.Builder
	r.Render(&sb)
	out := sb.String()
	for _, want := range []string{"=== x — demo ===", "numbers", "long column", "333", "note: a note", "metric m"} {
		if !strings.Contains(out, want) {
			t.Errorf("render output missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryComplete(t *testing.T) {
	// Every table and figure in the paper's evaluation must have a
	// registered regenerator.
	want := []string{
		"fig2", "fig3", "fig4", "fig5", "thm2", "eq14", "params",
		"fig8", "fig9", "fig10", "fig11", "fig12",
		"fig14", "fig15", "fig16", "fig17", "fig18", "fig19", "fig20", "fig21", "thm6",
	}
	ids := map[string]bool{}
	for _, r := range Runners() {
		if ids[r.ID] {
			t.Errorf("duplicate runner id %q", r.ID)
		}
		ids[r.ID] = true
		if r.Title == "" || r.Figure == "" || r.Run == nil {
			t.Errorf("runner %q is missing metadata", r.ID)
		}
	}
	for _, id := range want {
		if !ids[id] {
			t.Errorf("experiment %q not registered", id)
		}
	}
	if _, ok := Get("fig14"); !ok {
		t.Error("Get(fig14) failed")
	}
	if _, ok := Get("nope"); ok {
		t.Error("Get(nope) succeeded")
	}
}

func TestRunFCTValidation(t *testing.T) {
	if _, err := RunFCT(FCTConfig{Protocol: ProtoDCQCN, LoadFactor: 0, Horizon: 1}); err == nil {
		t.Error("zero load accepted")
	}
	if _, err := RunFCT(FCTConfig{Protocol: ProtoDCQCN, LoadFactor: 1, Horizon: 0}); err == nil {
		t.Error("zero horizon accepted")
	}
	if _, err := RunFCT(FCTConfig{Protocol: Protocol(99), LoadFactor: 0.5, Horizon: 0.01}); err == nil {
		t.Error("unknown protocol accepted")
	}
}

// A short DCQCN FCT run: all flows complete, FCTs positive and ordered
// sensibly, utilisation positive.
func TestRunFCTSmoke(t *testing.T) {
	for _, proto := range []Protocol{ProtoDCQCN, ProtoTimely, ProtoPatchedTimely} {
		r, err := RunFCT(FCTConfig{
			Protocol: proto, LoadFactor: 0.5,
			Horizon: 0.2, Warmup: 0.05, Drain: 0.3, Seed: 2,
		})
		if err != nil {
			t.Fatalf("%v: %v", proto, err)
		}
		if r.Completed != r.Generated {
			t.Errorf("%v: %d/%d flows completed", proto, r.Completed, r.Generated)
		}
		if len(r.SmallFCT) == 0 || len(r.AllFCT) < len(r.SmallFCT) {
			t.Errorf("%v: FCT sample counts small=%d all=%d", proto, len(r.SmallFCT), len(r.AllFCT))
		}
		for _, v := range r.AllFCT {
			if v <= 0 {
				t.Fatalf("%v: non-positive FCT %v", proto, v)
			}
		}
		if r.Utilisation <= 0 || r.Utilisation > 1.01 {
			t.Errorf("%v: utilisation %v out of range", proto, r.Utilisation)
		}
		// Small flows should complete faster than the overall mix on
		// average (they carry fewer bytes).
		small := stats.Summarize(r.SmallFCT)
		all := stats.Summarize(r.AllFCT)
		if small.Mean > all.Mean {
			t.Errorf("%v: small-flow mean FCT %v above overall %v", proto, small.Mean, all.Mean)
		}
	}
}

// RunFCT must be deterministic for a fixed seed.
func TestRunFCTDeterministic(t *testing.T) {
	run := func() []float64 {
		r, err := RunFCT(FCTConfig{
			Protocol: ProtoDCQCN, LoadFactor: 0.5,
			Horizon: 0.1, Warmup: 0.02, Drain: 0.2, Seed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		out := append([]float64(nil), r.AllFCT...)
		sort.Float64s(out)
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("different flow counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("FCT %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

// The cheap analytical runners must succeed at Quick scale and deliver the
// paper's qualitative shapes through their metrics.
func TestQuickRunnersShapes(t *testing.T) {
	o := Options{Scale: Quick, Seed: 1}

	t.Run("fig3 non-monotonic", func(t *testing.T) {
		rep, err := mustRun(t, "fig3", o)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Metrics["pm_85us_N8"] >= 0 {
			t.Errorf("mid-N margin %v, want negative", rep.Metrics["pm_85us_N8"])
		}
		if rep.Metrics["pm_85us_N1"] <= 0 || rep.Metrics["pm_85us_N64"] <= 0 {
			t.Errorf("edge margins %v / %v, want positive",
				rep.Metrics["pm_85us_N1"], rep.Metrics["pm_85us_N64"])
		}
	})

	t.Run("fig11 collapse", func(t *testing.T) {
		rep, err := mustRun(t, "fig11", o)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Metrics["pm_N10"] <= 0 {
			t.Errorf("PM(N=10) = %v, want stable", rep.Metrics["pm_N10"])
		}
		if rep.Metrics["pm_N64"] >= 0 {
			t.Errorf("PM(N=64) = %v, want unstable", rep.Metrics["pm_N64"])
		}
	})

	t.Run("eq14 overestimates at large N", func(t *testing.T) {
		rep, err := mustRun(t, "eq14", o)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Metrics["relerr_N2"] > 40 {
			t.Errorf("rel err at N=2 is %v%%, too large", rep.Metrics["relerr_N2"])
		}
	})

	t.Run("thm2 contraction", func(t *testing.T) {
		rep, err := mustRun(t, "thm2", o)
		if err != nil {
			t.Fatal(err)
		}
		rate := rep.Metrics["gap_decay_per_cycle"]
		bound := rep.Metrics["theory_bound"]
		if rate <= 0 || rate > bound+0.02 {
			t.Errorf("decay %v vs bound %v", rate, bound)
		}
	})

	t.Run("params renders", func(t *testing.T) {
		if _, err := mustRun(t, "params", o); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("fig21 summary", func(t *testing.T) {
		rep, err := mustRun(t, "fig21", o)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Tables) == 0 || len(rep.Tables[0].Rows) < 4 {
			t.Error("summary table incomplete")
		}
	})
}

// The simulation-heavy runners, still at Quick scale: verify the headline
// qualitative claims survive end to end.
func TestQuickSimulationRunners(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation runners skipped in -short mode")
	}
	o := Options{Scale: Quick, Seed: 1}

	t.Run("fig4", func(t *testing.T) {
		rep, err := mustRun(t, "fig4", o)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Metrics["queue_cv_N10_85us"] < 0.3 {
			t.Errorf("N=10 CV %v, want oscillation", rep.Metrics["queue_cv_N10_85us"])
		}
		if rep.Metrics["queue_cv_N2_85us"] > 0.1 || rep.Metrics["queue_cv_N64_85us"] > 0.1 {
			t.Errorf("edge CVs %v / %v, want stability",
				rep.Metrics["queue_cv_N2_85us"], rep.Metrics["queue_cv_N64_85us"])
		}
	})

	t.Run("fig5", func(t *testing.T) {
		rep, err := mustRun(t, "fig5", o)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Metrics["queue_cv_extra85us"] < 2*rep.Metrics["queue_cv_extra0us"] {
			t.Errorf("packet-level instability contrast too weak: %v vs %v",
				rep.Metrics["queue_cv_extra85us"], rep.Metrics["queue_cv_extra0us"])
		}
	})

	t.Run("fig9", func(t *testing.T) {
		rep, err := mustRun(t, "fig9", o)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Metrics["fluid_ratio_spread"] < 1 {
			t.Errorf("fluid end-state spread %v, want > 1", rep.Metrics["fluid_ratio_spread"])
		}
		if rep.Metrics["packet_ratio_spread"] < 0.5 {
			t.Errorf("packet end-state spread %v, want > 0.5", rep.Metrics["packet_ratio_spread"])
		}
	})

	t.Run("fig10", func(t *testing.T) {
		rep, err := mustRun(t, "fig10", o)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Metrics["min_agg_64KB bursts"] > 0.05 {
			t.Errorf("64KB bursts min aggregate %v, want collapse", rep.Metrics["min_agg_64KB bursts"])
		}
		if rep.Metrics["min_agg_per-packet"] < 0.3 {
			t.Errorf("per-packet min aggregate %v, want no collapse", rep.Metrics["min_agg_per-packet"])
		}
	})

	t.Run("fig12", func(t *testing.T) {
		rep, err := mustRun(t, "fig12", o)
		if err != nil {
			t.Fatal(err)
		}
		if r := rep.Metrics["fluid_ratio"]; r < 0.98 || r > 1.02 {
			t.Errorf("patched fluid ratio %v, want fair", r)
		}
		if r := rep.Metrics["fluid_q_vs_eq31"]; r < 0.95 || r > 1.05 {
			t.Errorf("queue/Eq.31 ratio %v", r)
		}
	})

	t.Run("fig17", func(t *testing.T) {
		rep, err := mustRun(t, "fig17", o)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Metrics["queue_cv_ingress"] < 1.5*rep.Metrics["queue_cv_egress"] {
			t.Errorf("ingress %v vs egress %v: contrast too weak",
				rep.Metrics["queue_cv_ingress"], rep.Metrics["queue_cv_egress"])
		}
	})

	t.Run("fig18", func(t *testing.T) {
		rep, err := mustRun(t, "fig18", o)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []string{"2", "10"} {
			if r := rep.Metrics["q_over_ref_N"+n]; r < 0.85 || r > 1.15 {
				t.Errorf("N=%s queue/ref %v, want pinned", n, r)
			}
			if j := rep.Metrics["jain_N"+n]; j < 0.99 {
				t.Errorf("N=%s Jain %v, want fair", n, j)
			}
		}
	})

	t.Run("fig19+thm6", func(t *testing.T) {
		rep, err := mustRun(t, "fig19", o)
		if err != nil {
			t.Fatal(err)
		}
		if r := rep.Metrics["q_over_ref"]; r < 0.9 || r > 1.1 {
			t.Errorf("queue/ref %v, want pinned", r)
		}
		if r := rep.Metrics["rate_ratio"]; r < 1.3 {
			t.Errorf("rate ratio %v, want persistent unfairness", r)
		}
	})

	t.Run("fig20", func(t *testing.T) {
		rep, err := mustRun(t, "fig20", o)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Metrics["dcqcn_queue_cv_jit100"] > 0.1 {
			t.Errorf("DCQCN jittered CV %v, want immune", rep.Metrics["dcqcn_queue_cv_jit100"])
		}
		if rep.Metrics["timely_queue_cv_jit100"] < 5*rep.Metrics["timely_queue_cv_jit0"]+0.05 {
			t.Errorf("TIMELY jitter contrast too weak: %v vs %v",
				rep.Metrics["timely_queue_cv_jit100"], rep.Metrics["timely_queue_cv_jit0"])
		}
	})

	t.Run("fig14 ordering", func(t *testing.T) {
		rep, err := mustRun(t, "fig14", o)
		if err != nil {
			t.Fatal(err)
		}
		d := rep.Metrics["p90_ms_load0.8_DCQCN"]
		ti := rep.Metrics["p90_ms_load0.8_TIMELY"]
		pa := rep.Metrics["p90_ms_load0.8_Patched TIMELY"]
		if !(d < ti && d < pa) {
			t.Errorf("p90 at load 0.8: DCQCN %v should beat TIMELY %v and patched %v", d, ti, pa)
		}
	})
}

// mustRun runs a registered runner; at Quick scale and seed 1 it also
// checks the runner's pinned metrics digest.
func mustRun(t *testing.T, id string, o Options) (*Report, error) {
	t.Helper()
	r, ok := Get(id)
	if !ok {
		t.Fatalf("runner %q not found", id)
	}
	rep, err := r.Run(o)
	if err == nil && o.Scale == Quick && o.Seed == 1 && o.Observer == nil {
		checkDigest(t, id, rep)
	}
	return rep, err
}

// Extension experiments (§7 future work): shapes.
func TestExtensionRunners(t *testing.T) {
	if testing.Short() {
		t.Skip("extension sims skipped in -short mode")
	}
	o := Options{Scale: Quick, Seed: 1}

	t.Run("extmultihop", func(t *testing.T) {
		rep, err := mustRun(t, "extmultihop", o)
		if err != nil {
			t.Fatal(err)
		}
		// The long flow crosses two bottlenecks and must end below the
		// single-hop cross flows.
		if r := rep.Metrics["long_over_cross"]; r >= 0.95 {
			t.Errorf("long/cross ratio %v, want < 0.95 (multi-bottleneck penalty)", r)
		}
		if r := rep.Metrics["long_over_cross"]; r < 0.2 {
			t.Errorf("long/cross ratio %v, starvation would be wrong too", r)
		}
	})

	t.Run("extpfc", func(t *testing.T) {
		rep, err := mustRun(t, "extpfc", o)
		if err != nil {
			t.Fatal(err)
		}
		noPFC := rep.Metrics["victim_share_raw_nopfc"]
		pfc := rep.Metrics["victim_share_raw_pfc"]
		rescued := rep.Metrics["victim_share_dcqcn_pfc"]
		if noPFC < 0.95 {
			t.Errorf("victim without PFC %v, want ~1", noPFC)
		}
		if pfc > 0.7*noPFC {
			t.Errorf("victim with PFC %v vs %v: expected head-of-line damage", pfc, noPFC)
		}
		if rescued < 0.9 {
			t.Errorf("DCQCN-rescued victim %v, want ~1", rescued)
		}
	})

	t.Run("extpi", func(t *testing.T) {
		rep, err := mustRun(t, "extpi", o)
		if err != nil {
			t.Fatal(err)
		}
		ref := rep.Metrics["qref_kb"]
		for _, n := range []string{"2", "10"} {
			q := rep.Metrics["PI_q_kb_N"+n]
			if q < 0.7*ref || q > 1.3*ref {
				t.Errorf("PI mean queue at N=%s is %v KB, want near reference %v", n, q, ref)
			}
		}
		// RED queue must grow with N while PI stays put.
		if rep.Metrics["RED_q_kb_N10"] < 3*rep.Metrics["RED_q_kb_N2"] {
			t.Errorf("RED queue did not grow with N: %v vs %v",
				rep.Metrics["RED_q_kb_N10"], rep.Metrics["RED_q_kb_N2"])
		}
		spread := rep.Metrics["PI_q_kb_N10"] / rep.Metrics["PI_q_kb_N2"]
		if spread > 1.3 || spread < 0.7 {
			t.Errorf("PI queue varies with N by factor %v, want ~1", spread)
		}
	})
}
