package fluid

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"ecndelay/internal/fixedpoint"
	"ecndelay/internal/ode"
)

// late computes mean/stddev/min/max of state component idx over t >= tFrom.
func late(samples []Sample, idx int, tFrom float64) (mean, sd, min, max float64) {
	n := 0
	min, max = math.Inf(1), math.Inf(-1)
	for _, s := range samples {
		if s.T < tFrom {
			continue
		}
		v := s.Y[idx]
		mean += v
		n++
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	mean /= float64(n)
	for _, s := range samples {
		if s.T < tFrom {
			continue
		}
		d := s.Y[idx] - mean
		sd += d * d
	}
	sd = math.Sqrt(sd / float64(n))
	return
}

// constHistory serves the state y at every lookup time.
type constHistory struct{ y []float64 }

func (h constHistory) Value(_ float64, idx int) float64 { return h.y[idx] }

func (h constHistory) State(_ float64, dst []float64) { copy(dst, h.y) }

// The DCQCN model marks with Eq. 3 at the default ramp (Kmin 5, Kmax 200,
// Pmax 1%): from a queue held at q, its right-hand side is Eq. 5-7 under
// the strict ramp's p, or under the extended ramp's p past Kmax.
func TestREDMark(t *testing.T) {
	cases := []struct {
		strict bool
		q, p   float64
	}{
		{true, 0, 0}, {true, 5, 0}, {true, 102.5, 0.005}, {true, 200, 0.01}, {true, 201, 1}, {true, 1e6, 1},
		{false, 200, 0.01}, {false, 201, 0.010051282051282051}, {false, 1155, 0.05897435897435897}, {false, 1e9, 1},
	}
	for _, c := range cases {
		sys, err := NewDCQCN(DCQCNConfig{Params: DefaultDCQCNParams(2), StrictRED: c.strict})
		if err != nil {
			t.Fatal(err)
		}
		y := sys.Initial()
		y[sys.QIndex()] = c.q
		got := make([]float64, len(y))
		sys.Derivs(0, y, constHistory{y}, got)
		want := make([]float64, len(y))
		sys.rateDerivs(c.p, y, want)
		for i := sys.AlphaIndex(0); i < len(y); i++ {
			if math.Abs(got[i]-want[i]) > 1e-9*math.Abs(want[i]) {
				t.Errorf("StrictRED %v, q %v: dy[%d]/dt = %v, want %v (p = %v)", c.strict, c.q, i, got[i], want[i], c.p)
			}
		}
	}
}

// patchedSetup returns a patched model with two flows and the Eq. 29
// operating point its weight tests use: a flow at C/2, its update
// interval, and an observed queue of 2q', so (q−q')/q' = 1.
func patchedSetup(t *testing.T) (sys *PatchedTimelySystem, r, ts, qd float64) {
	t.Helper()
	sys, err := NewPatchedTimely(DefaultPatchedTimelyConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	r = sys.cfg.C / 2
	return sys, r, sys.tauStar(r), 2 * sys.qref
}

// The patched model's Eq. 29 middle branch weighs with Eq. 30:
// dR/dt = (1−w)·δ/τ* − w·β·R/τ*·(q−q')/q' with w from the table.
func TestPatchedWeight(t *testing.T) {
	sys, r, ts, qd := patchedSetup(t)
	cfg := &sys.cfg
	scale := cfg.Delta/ts + cfg.Beta*r/ts
	cases := []struct{ g, w float64 }{
		{-1, 0}, {-0.26, 0}, {-0.25, 0}, {0, 0.5}, {0.25, 1}, {0.26, 1}, {1, 1}, {-0.125, 0.25}, {0.125, 0.75},
	}
	for _, c := range cases {
		want := (1-c.w)*cfg.Delta/ts - c.w*cfg.Beta*r/ts*(qd-sys.qref)/sys.qref
		if got := sys.patchedRate(r, c.g, ts, qd); math.Abs(got-want) > 1e-12*scale {
			t.Errorf("g %v: dR/dt = %v, want %v (w = %v)", c.g, got, want, c.w)
		}
	}
}

// Property: through the patched model's rate law the Eq. 30 weight is
// bounded in [0,1], monotone and continuous (Lipschitz with constant 2):
// above q', dR/dt stays between its w = 0 and w = 1 ends, falls as the
// gradient rises, and moves at most 2·|Δg| times the span between the ends.
func TestPropertyPatchedWeight(t *testing.T) {
	sys, r, ts, qd := patchedSetup(t)
	cfg := &sys.cfg
	hi := cfg.Delta / ts                                    // w = 0
	lo := -(cfg.Beta * r / ts * (qd - sys.qref) / sys.qref) // w = 1
	f := func(a, b int16) bool {
		// Gradients in [−1, 1): half of them on the ramp.
		g1 := float64(a) / 32768
		g2 := float64(b) / 32768
		d1, d2 := sys.patchedRate(r, g1, ts, qd), sys.patchedRate(r, g2, ts, qd)
		if d1 < lo || d1 > hi || d2 < lo || d2 > hi {
			return false
		}
		if g1 <= g2 && d1 < d2 || g2 <= g1 && d2 < d1 {
			return false
		}
		return math.Abs(d1-d2) <= (2*math.Abs(g1-g2)+1e-12)*(hi-lo)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// --- DCQCN fluid model ---

// Figure 2 territory: the model must settle at the Theorem 1 fixed point.
func TestDCQCNConvergesToFixedPoint(t *testing.T) {
	for _, n := range []int{2, 10} {
		p := DefaultDCQCNParams(n)
		sys, err := NewDCQCN(DCQCNConfig{Params: p})
		if err != nil {
			t.Fatal(err)
		}
		sm := Run(sys, 1e-6, 0.2, 1e-4)
		fp, err := fixedpoint.SolveDCQCN(p)
		if err != nil {
			t.Fatal(err)
		}
		qm, _, _, _ := late(sm, sys.QIndex(), 0.15)
		if math.Abs(qm-fp.Q)/fp.Q > 0.05 {
			t.Errorf("N=%d: queue settled at %v, fixed point %v", n, qm, fp.Q)
		}
		for i := 0; i < n; i++ {
			rm, _, _, _ := late(sm, sys.RCIndex(i), 0.15)
			if math.Abs(rm-fp.RC)/fp.RC > 0.05 {
				t.Errorf("N=%d flow %d: rate %v, want fair share %v", n, i, rm, fp.RC)
			}
		}
	}
}

// Flows starting at very different rates still converge to the same rate
// (Theorems 1-2: unique fixed point, exponential convergence).
func TestDCQCNFairnessFromUnequalStarts(t *testing.T) {
	p := DefaultDCQCNParams(2)
	sys, err := NewDCQCN(DCQCNConfig{Params: p, InitialRC: []float64{5e6, 1e6}})
	if err != nil {
		t.Fatal(err)
	}
	sm := Run(sys, 1e-6, 0.3, 1e-4)
	r0, _, _, _ := late(sm, sys.RCIndex(0), 0.25)
	r1, _, _, _ := late(sm, sys.RCIndex(1), 0.25)
	if math.Abs(r0-r1)/(r0+r1) > 0.02 {
		t.Errorf("rates did not converge: R0=%v R1=%v", r0, r1)
	}
}

// Figure 4's non-monotonic stability: at τ* = 85 µs the model is stable for
// 2 and 64 flows but oscillates for 10; at τ* = 4 µs all are stable.
// Short mode keeps only the N=10 contrast (stable at low delay, unstable
// at high), dropping the N sweep that makes the pattern non-monotonic.
func TestDCQCNNonMonotonicStability(t *testing.T) {
	osc := func(n int, delay float64) float64 {
		p := DefaultDCQCNParams(n)
		p.TauStar = delay
		sys, err := NewDCQCN(DCQCNConfig{Params: p})
		if err != nil {
			t.Fatal(err)
		}
		sm := Run(sys, 1e-6, 0.2, 1e-4)
		qm, qsd, _, _ := late(sm, sys.QIndex(), 0.1)
		return qsd / qm
	}
	if v := osc(10, 4e-6); v > 0.05 {
		t.Errorf("N=10 τ*=4µs: relative oscillation %v, want stable (<5%%)", v)
	}
	o10 := osc(10, 85e-6)
	if o10 < 0.3 {
		t.Errorf("N=10 τ*=85µs: oscillation %v, want unstable (>30%%)", o10)
	}
	if testing.Short() {
		return
	}
	for _, n := range []int{2, 64} {
		if v := osc(n, 4e-6); v > 0.05 {
			t.Errorf("N=%d τ*=4µs: relative oscillation %v, want stable (<5%%)", n, v)
		}
	}
	o2 := osc(2, 85e-6)
	o64 := osc(64, 85e-6)
	if o2 > 0.1 || o64 > 0.1 {
		t.Errorf("N=2/N=64 τ*=85µs: oscillation %v / %v, want stable (<10%%) — non-monotonicity lost", o2, o64)
	}
}

// theorem1Start is a DCQCN fluid model started at its Theorem 1 point
// (q*, α*, R_T*, C/N) with the queue scaled by kick. The initial state is
// also the history before t = 0.
type theorem1Start struct {
	*DCQCNSystem
	fp   fixedpoint.DCQCNFixedPoint
	kick float64
}

func (m *theorem1Start) Initial() []float64 {
	y := m.DCQCNSystem.Initial()
	y[m.QIndex()] = m.kick * m.fp.Q
	for i := 0; i < m.cfg.Params.N; i++ {
		y[m.AlphaIndex(i)] = m.fp.Alpha
		y[m.RTIndex(i)] = m.fp.RT
		y[m.RCIndex(i)] = m.fp.RC
	}
	return y
}

// TestDCQCNSubcriticalWindow pins the bistable window below the linear
// delay margin of the N = 10 DCQCN fluid model (about 62.5 µs). At
// τ* = 60 µs a 1% queue kick from the Theorem 1 point decays, while a
// 3·q* kick settles on a large limit cycle, about 2.08·q* peak to peak,
// that empties the queue every period: the fixed point is stable only to
// small perturbations, the signature of a subcritical Hopf bifurcation.
// At 58 µs, below the window, the large kick decays too (about 0.035·q*
// left). Each run lasts 0.4 s at h = 1 µs and reads the last 50 ms: near
// the window's edge transients last over 100 ms. At h = 0.1 µs the same
// runs give the same figures to the digits given here, and the bounds sit
// well away from them. Short mode runs the 60 µs pair only.
func TestDCQCNSubcriticalWindow(t *testing.T) {
	// lastCycle returns q*, and the queue's peak-to-peak and minimum
	// over 350-400 ms.
	lastCycle := func(tau, kick float64) (qStar, p2p, qMin float64) {
		p := DefaultDCQCNParams(10)
		p.TauStar = tau
		fp, err := fixedpoint.SolveDCQCN(p)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := NewDCQCN(DCQCNConfig{Params: p})
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		Walk(&theorem1Start{DCQCNSystem: sys, fp: fp, kick: kick}, 1e-6, 0.4, 1e-6, func(tt float64, y []float64) {
			if tt >= 0.35 {
				lo, hi = min(lo, y[0]), max(hi, y[0])
			}
		})
		return fp.Q, hi - lo, lo
	}
	q, p2p, _ := lastCycle(60e-6, 1.01)
	if p2p >= 0.01*q {
		t.Errorf("τ*=60µs, 1%% kick: peak-to-peak %.4f·q*, want below 0.01·q* (a decaying kick)", p2p/q)
	}
	q, p2p, qMin := lastCycle(60e-6, 3)
	if p2p <= 2*q || qMin != 0 {
		t.Errorf("τ*=60µs, 3·q* kick: peak-to-peak %.4f·q*, minimum %g; want above 2·q* and an empty queue (the large cycle)", p2p/q, qMin)
	}
	if testing.Short() {
		return
	}
	q, p2p, _ = lastCycle(58e-6, 3)
	if p2p >= 0.1*q {
		t.Errorf("τ*=58µs, 3·q* kick: peak-to-peak %.4f·q*, want below 0.1·q* (below the window)", p2p/q)
	}
}

// Figure 3(b): smaller R_AI stabilises the unstable 10-flow/85µs case.
func TestDCQCNSmallerRAIStabilises(t *testing.T) {
	run := func(rai float64) float64 {
		p := DefaultDCQCNParams(10)
		p.TauStar = 85e-6
		p.RAI = rai
		sys, err := NewDCQCN(DCQCNConfig{Params: p})
		if err != nil {
			t.Fatal(err)
		}
		sm := Run(sys, 1e-6, 0.25, 1e-4)
		qm, qsd, _, _ := late(sm, sys.QIndex(), 0.15)
		return qsd / qm
	}
	unstable := run(40e6 / 8 / 1000) // default 40 Mb/s
	stable := run(5e6 / 8 / 1000)    // 5 Mb/s
	if unstable < 0.3 {
		t.Errorf("default R_AI: oscillation %v, expected instability", unstable)
	}
	if stable > 0.1 {
		t.Errorf("small R_AI: oscillation %v, expected stability", stable)
	}
}

// Figure 3(c): a larger K_max (gentler marking slope) also stabilises it.
func TestDCQCNLargerKmaxStabilises(t *testing.T) {
	run := func(kmax float64) float64 {
		p := DefaultDCQCNParams(10)
		p.TauStar = 85e-6
		p.Kmax = kmax
		sys, err := NewDCQCN(DCQCNConfig{Params: p})
		if err != nil {
			t.Fatal(err)
		}
		sm := Run(sys, 1e-6, 0.25, 1e-4)
		qm, qsd, _, _ := late(sm, sys.QIndex(), 0.15)
		return qsd / qm
	}
	unstable := run(200)
	stable := run(1600)
	if unstable < 0.3 {
		t.Errorf("Kmax=200: oscillation %v, expected instability", unstable)
	}
	if stable > 0.1 {
		t.Errorf("Kmax=1600: oscillation %v, expected stability", stable)
	}
}

// Figure 20, ECN side: 100 µs of uniform feedback jitter does not
// destabilise DCQCN.
func TestDCQCNJitterResilient(t *testing.T) {
	p := DefaultDCQCNParams(2)
	sys, err := NewDCQCN(DCQCNConfig{Params: p, JitterMax: 100e-6, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	sm := Run(sys, 1e-6, 0.2, 1e-4)
	qm, qsd, _, _ := late(sm, sys.QIndex(), 0.1)
	if qsd/qm > 0.1 {
		t.Errorf("DCQCN with jitter: queue oscillation %v, want <10%%", qsd/qm)
	}
	r0, rsd, _, _ := late(sm, sys.RCIndex(0), 0.1)
	if rsd/r0 > 0.05 {
		t.Errorf("DCQCN with jitter: rate oscillation %v, want <5%%", rsd/r0)
	}
}

func TestDCQCNConfigValidation(t *testing.T) {
	p := DefaultDCQCNParams(2)
	if _, err := NewDCQCN(DCQCNConfig{Params: p, InitialRC: []float64{1}}); err == nil {
		t.Error("expected error for wrong InitialRC length")
	}
	p.N = 0
	if _, err := NewDCQCN(DCQCNConfig{Params: p}); err == nil {
		t.Error("expected error for invalid params")
	}
}

func TestDCQCNIndices(t *testing.T) {
	p := DefaultDCQCNParams(3)
	sys, err := NewDCQCN(DCQCNConfig{Params: p})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Dim() != 10 {
		t.Errorf("Dim = %d, want 10", sys.Dim())
	}
	seen := map[int]bool{sys.QIndex(): true}
	for i := 0; i < 3; i++ {
		for _, idx := range []int{sys.AlphaIndex(i), sys.RTIndex(i), sys.RCIndex(i)} {
			if idx < 0 || idx >= sys.Dim() || seen[idx] {
				t.Errorf("index %d invalid or duplicated", idx)
			}
			seen[idx] = true
		}
	}
	y0 := sys.Initial()
	if y0[sys.QIndex()] != 0 {
		t.Error("initial queue not zero")
	}
	for i := 0; i < 3; i++ {
		if y0[sys.AlphaIndex(i)] != 1 {
			t.Errorf("initial α[%d] = %v, want 1", i, y0[sys.AlphaIndex(i)])
		}
		if y0[sys.RCIndex(i)] != p.C {
			t.Errorf("initial R_C[%d] = %v, want line rate %v", i, y0[sys.RCIndex(i)], p.C)
		}
	}
}

// --- TIMELY fluid model ---

// Theorem 4 made visible: with different initial rates, TIMELY settles into
// an operating regime that preserves unfairness (Figure 9c), while the sum
// of rates still tracks capacity.
func TestTimelyArbitraryUnfairness(t *testing.T) {
	cfg := DefaultTimelyConfig(2)
	cfg.InitialRates = []float64{7e9 / 8, 3e9 / 8}
	sys, err := NewTimely(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sm := Run(sys, 1e-6, 1.0, 1e-3)
	r0, _, _, _ := late(sm, sys.RateIndex(0), 0.8)
	r1, _, _, _ := late(sm, sys.RateIndex(1), 0.8)
	if r0/r1 < 1.5 {
		t.Errorf("rate ratio %v, want persistent unfairness (>1.5)", r0/r1)
	}
	if util := (r0 + r1) / cfg.C; util < 0.85 {
		t.Errorf("utilisation %v, want >0.85", util)
	}
}

// Equal starting conditions stay fair: the unfairness is initial-condition
// dependence, not bias (Figure 9a vs 9c).
func TestTimelySymmetricStaysFair(t *testing.T) {
	cfg := DefaultTimelyConfig(2)
	sys, err := NewTimely(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sm := Run(sys, 1e-6, 1.0, 1e-3)
	r0, _, _, _ := late(sm, sys.RateIndex(0), 0.8)
	r1, _, _, _ := late(sm, sys.RateIndex(1), 0.8)
	if math.Abs(r0-r1)/(r0+r1) > 0.01 {
		t.Errorf("symmetric flows diverged: R0=%v R1=%v", r0, r1)
	}
}

// Different start conditions land in different operating regimes (Figure 9):
// the end state is a function of history — the signature of infinitely many
// fixed points.
func TestTimelyEndStateDependsOnStart(t *testing.T) {
	endRatio := func(r0, r1 float64, stagger float64) float64 {
		cfg := DefaultTimelyConfig(2)
		cfg.InitialRates = []float64{r0, r1}
		if stagger > 0 {
			cfg.StartTimes = []float64{0, stagger}
		}
		sys, err := NewTimely(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sm := Run(sys, 1e-6, 1.0, 1e-3)
		a, _, _, _ := late(sm, sys.RateIndex(0), 0.8)
		b, _, _, _ := late(sm, sys.RateIndex(1), 0.8)
		return a / b
	}
	even := endRatio(5e9/8, 5e9/8, 0)
	uneven := endRatio(7e9/8, 3e9/8, 0)
	staggered := endRatio(5e9/8, 5e9/8, 10e-3)
	if math.Abs(even-uneven) < 0.3 && math.Abs(even-staggered) < 0.3 {
		t.Errorf("end states identical across start conditions (%v, %v, %v); expected history dependence",
			even, uneven, staggered)
	}
}

// --- Patched TIMELY ---

// Theorem 5: patched TIMELY converges to the unique fair fixed point with
// the Eq. 31 queue, from unequal starts (Figure 12a).
func TestPatchedTimelyConvergesFair(t *testing.T) {
	cfg := DefaultPatchedTimelyConfig(2)
	cfg.InitialRates = []float64{7e9 / 8, 3e9 / 8}
	sys, err := NewPatchedTimely(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sm := Run(sys, 1e-6, 1.0, 1e-3)
	r0, s0, _, _ := late(sm, sys.RateIndex(0), 0.8)
	r1, _, _, _ := late(sm, sys.RateIndex(1), 0.8)
	if math.Abs(r0-r1)/(r0+r1) > 0.02 {
		t.Errorf("patched TIMELY unfair: R0=%v R1=%v", r0, r1)
	}
	if s0/r0 > 0.02 {
		t.Errorf("patched TIMELY oscillating: rate sd/mean = %v", s0/r0)
	}
	qm, _, _, _ := late(sm, sys.QIndex(), 0.8)
	if want := sys.FixedPointQueue(); math.Abs(qm-want)/want > 0.05 {
		t.Errorf("queue %v, want Eq. 31 fixed point %v", qm, want)
	}
}

// Eq. 31: the patched fixed-point queue grows with N (verified dynamically).
func TestPatchedTimelyQueueGrowsWithN(t *testing.T) {
	queueAt := func(n int) float64 {
		cfg := DefaultPatchedTimelyConfig(n)
		sys, err := NewPatchedTimely(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sm := Run(sys, 1e-6, 0.6, 1e-3)
		qm, _, _, _ := late(sm, sys.QIndex(), 0.5)
		return qm
	}
	q2, q10 := queueAt(2), queueAt(10)
	if q10 <= q2 {
		t.Errorf("queue should grow with N: q(2)=%v q(10)=%v", q2, q10)
	}
	// And both match Eq. 31 within 10%.
	for _, c := range []struct {
		n int
		q float64
	}{{2, q2}, {10, q10}} {
		sys, _ := NewPatchedTimely(DefaultPatchedTimelyConfig(c.n))
		want := sys.FixedPointQueue()
		if math.Abs(c.q-want)/want > 0.1 {
			t.Errorf("N=%d: queue %v, Eq. 31 predicts %v", c.n, c.q, want)
		}
	}
}

// Figure 11/12c: patched TIMELY loses stability at large N (the growing
// queue lengthens the feedback delay). Short mode halves the horizon;
// the N=64 oscillation is already visible well before 0.5 s.
func TestPatchedTimelyUnstableAtLargeN(t *testing.T) {
	horizon, window := 1.0, 0.8
	if testing.Short() {
		horizon, window = 0.5, 0.4
	}
	osc := func(n int) float64 {
		cfg := DefaultPatchedTimelyConfig(n)
		sys, err := NewPatchedTimely(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sm := Run(sys, 1e-6, horizon, 1e-3)
		qm, qsd, _, _ := late(sm, sys.QIndex(), window)
		return qsd / qm
	}
	small := osc(10)
	big := osc(64)
	if small > 0.02 {
		t.Errorf("N=10: oscillation %v, want stable", small)
	}
	if big < 0.05 {
		t.Errorf("N=64: oscillation %v, want visible instability", big)
	}
}

// Figure 20, delay side: the same jitter that DCQCN shrugs off destabilises
// patched TIMELY, because jitter lands inside the RTT signal itself.
func TestPatchedTimelyJitterUnstable(t *testing.T) {
	run := func(jit float64) (qcv, rcv float64) {
		cfg := DefaultPatchedTimelyConfig(2)
		cfg.InitialRates = []float64{7e9 / 8, 3e9 / 8}
		cfg.JitterMax = jit
		cfg.Seed = 7
		sys, err := NewPatchedTimely(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sm := Run(sys, 1e-6, 0.8, 1e-3)
		qm, qsd, _, _ := late(sm, sys.QIndex(), 0.6)
		rm, rsd, _, _ := late(sm, sys.RateIndex(0), 0.6)
		return qsd / math.Max(qm, 1), rsd / rm
	}
	qCalm, rCalm := run(0)
	qJit, rJit := run(100e-6)
	if qCalm > 0.01 || rCalm > 0.01 {
		t.Errorf("no jitter: queue/rate oscillation %v/%v, want quiescent", qCalm, rCalm)
	}
	if qJit < 10*qCalm+0.2 {
		t.Errorf("jitter: queue oscillation %v (vs calm %v), want large increase", qJit, qCalm)
	}
	if rJit < 10*rCalm {
		t.Errorf("jitter: rate oscillation %v (vs calm %v), want large increase", rJit, rCalm)
	}
}

func TestTimelyConfigValidation(t *testing.T) {
	base := DefaultTimelyConfig(2)
	muts := []func(*TimelyConfig){
		func(c *TimelyConfig) { c.N = 0 },
		func(c *TimelyConfig) { c.C = 0 },
		func(c *TimelyConfig) { c.EWMA = 0 },
		func(c *TimelyConfig) { c.Beta = 1 },
		func(c *TimelyConfig) { c.Delta = 0 },
		func(c *TimelyConfig) { c.THigh = c.TLow },
		func(c *TimelyConfig) { c.DminRTT = 0 },
		func(c *TimelyConfig) { c.Seg = 0 },
		func(c *TimelyConfig) { c.InitialRates = []float64{1} },
		func(c *TimelyConfig) { c.StartTimes = []float64{1, 2, 3} },
	}
	for i, mut := range muts {
		c := base
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
	if err := base.Validate(); err != nil {
		t.Errorf("defaults rejected: %v", err)
	}
}

// --- PI controllers ---

// Figure 18: with PI marking at the switch, the DCQCN queue pins to the
// reference for any number of flows, and flows stay fair. Short mode
// drops N=64, which dominates the runtime; queue pinning and fairness
// are already exercised at N=2 and N=10.
func TestDCQCNPIQueueIndependentOfN(t *testing.T) {
	ns := []int{2, 10, 64}
	if testing.Short() {
		ns = []int{2, 10}
	}
	for _, n := range ns {
		p := DefaultDCQCNParams(n)
		p.TauStar = 85e-6
		sys, err := NewDCQCNPI(DCQCNPIConfig{DCQCN: DCQCNConfig{Params: p}})
		if err != nil {
			t.Fatal(err)
		}
		sm := Run(sys, 1e-6, 0.6, 1e-4)
		qm, qsd, _, _ := late(sm, sys.QIndex(), 0.45)
		if math.Abs(qm-sys.QRef())/sys.QRef() > 0.1 {
			t.Errorf("N=%d: queue %v, want pinned at reference %v", n, qm, sys.QRef())
		}
		if qsd/sys.QRef() > 0.1 {
			t.Errorf("N=%d: queue oscillation sd=%v", n, qsd)
		}
		r0, _, _, _ := late(sm, sys.RCIndex(0), 0.45)
		rN, _, _, _ := late(sm, sys.RCIndex(n-1), 0.45)
		fair := p.C / float64(n)
		if math.Abs(r0-fair)/fair > 0.05 || math.Abs(rN-fair)/fair > 0.05 {
			t.Errorf("N=%d: rates %v/%v, want fair %v", n, r0, rN, fair)
		}
	}
}

// Figure 19 / Theorem 6: host-side PI pins the delay but cannot restore
// fairness — flows with different histories keep different rates.
func TestTimelyPIFixedDelayButUnfair(t *testing.T) {
	cfg := DefaultPatchedTimelyConfig(2)
	cfg.StartTimes = []float64{0, 0.1}
	sys, err := NewTimelyPI(TimelyPIConfig{Timely: cfg})
	if err != nil {
		t.Fatal(err)
	}
	sm := Run(sys, 1e-6, 1.2, 1e-3)
	qm, _, _, _ := late(sm, sys.QIndex(), 1.0)
	if math.Abs(qm-sys.QRef())/sys.QRef() > 0.1 {
		t.Errorf("queue %v, want pinned at %v", qm, sys.QRef())
	}
	r0, _, _, _ := late(sm, sys.RateIndex(0), 1.0)
	r1, _, _, _ := late(sm, sys.RateIndex(1), 1.0)
	if r0/r1 < 1.5 {
		t.Errorf("rate ratio %v, want persistent unfairness (>1.5) despite fixed delay", r0/r1)
	}
}

func TestPIConfigValidation(t *testing.T) {
	cfg := DefaultPatchedTimelyConfig(2)
	if _, err := NewTimelyPI(TimelyPIConfig{Timely: cfg, PI: PIConfig{QRef: 100e6}}); err == nil {
		t.Error("expected error for out-of-range QRef")
	}
	bad := cfg
	bad.N = 0
	if _, err := NewTimelyPI(TimelyPIConfig{Timely: bad}); err == nil {
		t.Error("expected error for invalid Timely config")
	}
	p := DefaultDCQCNParams(0)
	if _, err := NewDCQCNPI(DCQCNPIConfig{DCQCN: DCQCNConfig{Params: p}}); err == nil {
		t.Error("expected error for invalid DCQCN params")
	}
}

// The switch PI controller replaces the RED ramp and reads p at lag τ*, so
// NewDCQCNPI refuses the two RED-marking options it would otherwise ignore
// (IngressMarking would still have widened MaxDelay and moved the run).
func TestDCQCNPIRefusesREDOptions(t *testing.T) {
	p := DefaultDCQCNParams(10)
	for name, cfg := range map[string]DCQCNConfig{
		"StrictRED":      {Params: p, StrictRED: true},
		"IngressMarking": {Params: p, IngressMarking: true},
	} {
		if sys, err := NewDCQCNPI(DCQCNPIConfig{DCQCN: cfg}); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("%s: NewDCQCNPI = %v, %v; want an error naming %s", name, sys, err, name)
		}
	}
}

// Run's sampling contract: includes t=0 and the final time, stride honoured.
func TestRunSampling(t *testing.T) {
	p := DefaultDCQCNParams(2)
	sys, err := NewDCQCN(DCQCNConfig{Params: p})
	if err != nil {
		t.Fatal(err)
	}
	sm := Run(sys, 1e-6, 1e-3, 1e-4)
	if sm[0].T != 0 {
		t.Errorf("first sample at %v, want 0", sm[0].T)
	}
	if lastT := sm[len(sm)-1].T; math.Abs(lastT-1e-3) > 1e-9 {
		t.Errorf("last sample at %v, want 1e-3", lastT)
	}
	if len(sm) != 11 {
		t.Errorf("got %d samples, want 11", len(sm))
	}
}

// Tail keeps one component of the samples at or after its start, in
// order, and nothing before it.
func TestTail(t *testing.T) {
	sm := []Sample{{0, []float64{1, 10}}, {0.5, []float64{2, 20}}, {1, []float64{3, 30}}}
	if got := Tail(sm, 1, 0.5); len(got) != 2 || got[0] != 20 || got[1] != 30 {
		t.Errorf("Tail(sm, 1, 0.5) = %v, want [20 30]", got)
	}
	if got := Tail(sm, 0, 2); len(got) != 0 {
		t.Errorf("Tail past the last sample = %v, want none", got)
	}
}

// A walk holds no sample: with a callback that keeps nothing, it makes as
// many allocations for 10,000 samples as for 1,000, so fluidsim's memory
// does not grow with the samples it writes.
func TestWalkSamplesAllocFree(t *testing.T) {
	sys, err := NewDCQCN(DCQCNConfig{Params: DefaultDCQCNParams(2)})
	if err != nil {
		t.Fatal(err)
	}
	const h = 1e-6
	allocs := make(map[int]float64)
	for _, samples := range []int{1000, 10000} {
		t1 := float64(samples-1) * h
		got := 0
		Walk(sys, h, t1, h, func(float64, []float64) { got++ })
		if got != samples {
			t.Fatalf("walk to %v visits %d samples, want %d", t1, got, samples)
		}
		allocs[samples] = testing.AllocsPerRun(5, func() { Walk(sys, h, t1, h, func(float64, []float64) {}) })
	}
	if allocs[1000] != allocs[10000] {
		t.Errorf("walk allocates %v times for 1,000 samples and %v for 10,000", allocs[1000], allocs[10000])
	}
}

// TestRunMatchesWalk requires Run to record exactly the states Walk
// visits, with the same T and Y bits, in a trajectory of the length the
// sampling helper gives, over stride-aligned and off-stride horizons, a
// horizon of zero or less, a sampleEvery below one step and one at or
// past the horizon. The samples share one backing array: Run allocates
// two blocks more than Walk, and an append to one sample leaves the next
// as it was.
func TestRunMatchesWalk(t *testing.T) {
	const h = 1e-6
	cfg := DCQCNConfig{Params: DefaultDCQCNParams(2), InitialRC: []float64{1e6, 4e6}}
	for _, c := range []struct {
		name        string
		t1, every   float64
		wantSamples int
	}{
		{"aligned", 100 * h, 10 * h, 11},
		{"off stride", 105 * h, 10 * h, 12},
		{"zero horizon", 0, 10 * h, 1},
		{"negative horizon", -5 * h, 10 * h, 1},
		{"below one step", 20 * h, 0.3 * h, 21},
		{"at the horizon", 20 * h, 20 * h, 2},
		{"past the horizon", 20 * h, 1e30, 2},
		{"infinite", 20 * h, math.Inf(1), 2},
	} {
		sys, err := NewDCQCN(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var walked []Sample
		Walk(sys, h, c.t1, c.every, func(t float64, y []float64) {
			walked = append(walked, Sample{T: t, Y: append([]float64(nil), y...)})
		})
		if sys, err = NewDCQCN(cfg); err != nil {
			t.Fatal(err)
		}
		ran := Run(sys, h, c.t1, c.every)
		if _, _, count := sampling(h, c.t1, c.every); len(walked) != c.wantSamples || len(ran) != count || cap(ran) != count {
			t.Errorf("%s: Walk visits %d states, Run records %d of capacity %d; want %d, and %d from sampling",
				c.name, len(walked), len(ran), cap(ran), c.wantSamples, count)
			continue
		}
		for i, w := range walked {
			r := ran[i]
			same := math.Float64bits(r.T) == math.Float64bits(w.T) && len(r.Y) == len(w.Y)
			for j := 0; same && j < len(w.Y); j++ {
				same = math.Float64bits(r.Y[j]) == math.Float64bits(w.Y[j])
			}
			if !same {
				t.Errorf("%s: sample %d: Run gives (%v, %v), Walk visits (%v, %v)", c.name, i, r.T, r.Y, w.T, w.Y)
			}
		}
		if len(ran) > 1 {
			next := ran[1].Y[0]
			ran[0].Y = append(ran[0].Y, -1)
			if math.Float64bits(ran[1].Y[0]) != math.Float64bits(next) {
				t.Errorf("%s: appending to sample 0 changed sample 1 from %v to %v", c.name, next, ran[1].Y[0])
			}
		}
	}
	sys, err := NewDCQCN(cfg)
	if err != nil {
		t.Fatal(err)
	}
	walk := testing.AllocsPerRun(5, func() { Walk(sys, h, 105*h, 10*h, func(float64, []float64) {}) })
	run := testing.AllocsPerRun(5, func() { Run(sys, h, 105*h, 10*h) })
	if run != walk+2 {
		t.Errorf("Run allocates %v times and Walk %v, want two more: the samples and their values", run, walk)
	}
}

// Walk and Run refuse a NaN sampleEvery with a fluid: message: Go leaves
// its conversion to an int stride to the platform, and a stride of 0
// would divide by zero. A step or horizon the solver refuses panics with
// the solver's message, before Run allocates its trajectory.
func TestWalkRefusals(t *testing.T) {
	sys, err := NewDCQCN(DCQCNConfig{Params: DefaultDCQCNParams(2)})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		h, t1, every float64
		want         string
	}{
		{1e-6, 1e-4, math.NaN(), "fluid: "},
		{0, 1e-4, 1e-5, "ode: "},
		{-1e-6, 1e-4, 1e-5, "ode: "},
		{1e-300, 1, 1e-5, "ode: "},
		{1e-6, math.NaN(), 1e-5, "ode: "},
	} {
		for name, f := range map[string]func(){
			"Walk": func() { Walk(sys, c.h, c.t1, c.every, func(float64, []float64) {}) },
			"Run":  func() { Run(sys, c.h, c.t1, c.every) },
		} {
			func() {
				defer func() {
					if msg, _ := recover().(string); !strings.HasPrefix(msg, c.want) {
						t.Errorf("%s at h = %g to t1 = %g every %g panics with %q, want a %q message",
							name, c.h, c.t1, c.every, msg, c.want)
					}
				}()
				f()
			}()
		}
	}
}

// TestWalkHistoryBytes bounds what a walk allocates. Patched TIMELY reads
// its queue alone from the history, so a 20 ms walk at N = 10 and h = 1 µs
// keeps a 20,001-point ring of one value a point, 160 KB; a ring of the
// whole 21-value state came to about 3.4 MB.
func TestWalkHistoryBytes(t *testing.T) {
	sys, err := NewPatchedTimely(DefaultPatchedTimelyConfig(10))
	if err != nil {
		t.Fatal(err)
	}
	// The least of a few walks: on a loaded host the window now and then
	// also catches allocations of other goroutines.
	got := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		Walk(sys, 1e-6, 20e-3, 10e-6, func(float64, []float64) {})
		runtime.ReadMemStats(&after)
		got = min(got, after.TotalAlloc-before.TotalAlloc)
	}
	if got >= 500e3 {
		t.Errorf("20 ms patched TIMELY walk at N = 10 allocated %d bytes, want under 500 KB", got)
	}
}

// Ingress marking adds the queueing delay q*/C to the marking feedback
// path. The loop reduction must expose exactly that lag, and the nonlinear
// model with ingress marking must still find the same Theorem 1 fixed
// point when the loop is stable.
func TestDCQCNIngressLoopLag(t *testing.T) {
	p := DefaultDCQCNParams(2)
	p.C = 10e9 / 8 / 1000
	loop, err := NewDCQCNIngressLoop(p)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := fixedpoint.SolveDCQCN(p)
	if err != nil {
		t.Fatal(err)
	}
	delays := loop.Delays()
	if len(delays) != 2 {
		t.Fatalf("delays = %v, want [τ*, τ*+q*/C]", delays)
	}
	wantMark := p.TauStar + fp.Q/p.C
	if math.Abs(delays[1]-wantMark)/wantMark > 1e-9 {
		t.Errorf("marking lag %v, want %v", delays[1], wantMark)
	}
	if delays[0] != p.TauStar {
		t.Errorf("rate lag %v, want τ* = %v", delays[0], p.TauStar)
	}
}

// restLoop is the part of stability.LoopModel a rest-point check needs.
type restLoop interface {
	Delays() []float64
	Equilibrium() (z []float64, q float64, err error)
	Derivs(z []float64, zd [][]float64, qd []float64, dzdt []float64)
}

// Every phase margin is taken at the loop's Equilibrium, so that point
// must be a rest point of the loop's own right-hand side. With every lag
// at the equilibrium, each derivative must be within 1e-6 of 0 relative to
// what a 1% queue excess at lag mark drives it to (the marking lag for
// DCQCN, the newest observation for TIMELY); the push must move every
// component. The worst ratio is about 1.3e-9 (R_C at N = 1), left by the
// bisection tolerance on p*.
func TestLoopEquilibriumIsRestPoint(t *testing.T) {
	const tol = 1e-6
	check := func(name string, l restLoop, mark int) {
		z, q, err := l.Equilibrium()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		k := len(l.Delays())
		zd := make([][]float64, k)
		qd := make([]float64, k)
		for i := range zd {
			zd[i], qd[i] = z, q
		}
		rest := make([]float64, len(z))
		l.Derivs(z, zd, qd, rest)
		qd[mark] = 1.01 * q
		push := make([]float64, len(z))
		l.Derivs(z, zd, qd, push)
		for i := range z {
			if push[i] == 0 || math.Abs(rest[i]) > tol*math.Abs(push[i]) {
				t.Errorf("%s: dz[%d]/dt = %g at the equilibrium, %g under a 1%% queue excess; want |rest| <= %g·|push| != 0",
					name, i, rest[i], push[i], tol)
			}
		}
	}
	for _, n := range []int{1, 2, 10, 64} {
		p := DefaultDCQCNParams(n)
		egress, err := NewDCQCNLoop(p)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("dcqcn N=%d", n), egress, 0)
		ingress, err := NewDCQCNIngressLoop(p)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("dcqcn ingress N=%d", n), ingress, 1)
	}
	for _, n := range []int{2, 10} {
		l, err := NewPatchedTimelyLoop(DefaultPatchedTimelyConfig(n))
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("patched N=%d", n), l, 0)
	}
}

func TestDCQCNIngressFluidSameFixedPoint(t *testing.T) {
	p := DefaultDCQCNParams(2)
	p.C = 10e9 / 8 / 1000
	for _, ingress := range []bool{false, true} {
		sys, err := NewDCQCN(DCQCNConfig{Params: p, IngressMarking: ingress})
		if err != nil {
			t.Fatal(err)
		}
		sm := Run(sys, 1e-6, 0.3, 1e-3)
		fp, err := fixedpoint.SolveDCQCN(p)
		if err != nil {
			t.Fatal(err)
		}
		q, _, _, _ := late(sm, sys.QIndex(), 0.25)
		if math.Abs(q-fp.Q)/fp.Q > 0.05 {
			t.Errorf("ingress=%v: queue %v, fixed point %v", ingress, q, fp.Q)
		}
	}
}

// The strict Eq. 3 profile (marking cliff at Kmax) destabilises the N=64
// case whose Eq. 9 fixed point lies beyond Kmax, while the extended ramp
// the paper's fixed point implies keeps it stable — our own modelling
// decision, made testable. Short mode halves the horizon: the cliff
// oscillation starts immediately and the ramp settles within 60 ms.
func TestDCQCNStrictREDAblation(t *testing.T) {
	horizon, window := 0.2, 0.12
	if testing.Short() {
		horizon, window = 0.1, 0.06
	}
	run := func(strict bool) float64 {
		p := DefaultDCQCNParams(64)
		p.TauStar = 85e-6
		sys, err := NewDCQCN(DCQCNConfig{Params: p, StrictRED: strict})
		if err != nil {
			t.Fatal(err)
		}
		sm := Run(sys, 1e-6, horizon, 1e-4)
		q, sd, _, _ := late(sm, sys.QIndex(), window)
		return sd / q
	}
	extended := run(false)
	strict := run(true)
	if extended > 0.05 {
		t.Errorf("extended ramp: CV %v, want stable", extended)
	}
	if strict < 0.2 {
		t.Errorf("strict Eq.3: CV %v, want oscillation against the marking cliff", strict)
	}
}

// countingModel counts right-hand-side evaluations and forwards PostStep,
// so the solver sees exactly the wrapped model.
type countingModel struct {
	Model
	evals int
}

func (m *countingModel) Derivs(t float64, y []float64, past ode.History, dydt []float64) {
	m.evals++
	m.Model.Derivs(t, y, past, dydt)
}

func (m *countingModel) PostStep(t float64, y []float64) {
	if ps, ok := m.Model.(ode.PostStepper); ok {
		ps.PostStep(t, y)
	}
}

// rampHistory serves y[idx]·(1+tq), so each lookup time gives the model
// new delayed inputs and the DCQCN memo misses as well as hits.
type rampHistory struct{ y []float64 }

func (h *rampHistory) Value(tq float64, idx int) float64 { return h.y[idx] * (1 + tq) }

func (h *rampHistory) State(tq float64, dst []float64) {
	for i := range h.y {
		dst[i] = h.Value(tq, i)
	}
}

// TestDerivsAllocFree pins every fluid right-hand side at 0 allocations
// per call once warm: the first DCQCN call allocates the Eq. 12 memo and
// no later call allocates anything.
func TestDerivsAllocFree(t *testing.T) {
	dcqcn := DCQCNConfig{Params: DefaultDCQCNParams(10)}
	for _, c := range []struct {
		name  string
		build func() (Model, error)
		prep  func(y []float64) // a delayed state on the marking ramp
	}{
		{"dcqcn", func() (Model, error) { return NewDCQCN(dcqcn) }, func(y []float64) { y[0] = 50 }},
		{"dcqcnpi", func() (Model, error) { return NewDCQCNPI(DCQCNPIConfig{DCQCN: dcqcn}) },
			func(y []float64) { y[0], y[1] = 50, 0.01 }},
		{"timely", func() (Model, error) { return NewTimely(DefaultTimelyConfig(10)) },
			func(y []float64) { y[0] = 100e3 }},
		{"patched", func() (Model, error) { return NewPatchedTimely(DefaultPatchedTimelyConfig(10)) },
			func(y []float64) { y[0] = 100e3 }},
		{"timelypi", func() (Model, error) {
			return NewTimelyPI(TimelyPIConfig{Timely: DefaultPatchedTimelyConfig(10)})
		}, func(y []float64) { y[0] = 100e3 }},
	} {
		m, err := c.build()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		y := m.Initial()
		c.prep(y)
		past := &rampHistory{y: append([]float64(nil), y...)}
		dydt := make([]float64, len(y))
		now := 1e-3
		m.Derivs(now, y, past, dydt)
		allocs := testing.AllocsPerRun(100, func() {
			now += 1e-6
			m.Derivs(now, y, past, dydt)
		})
		if allocs != 0 {
			t.Errorf("%s: Derivs allocates %v times per call, want 0", c.name, allocs)
		}
	}
}

// BenchmarkDCQCNFluid integrates the Fig. 4 oscillating case (N = 10,
// τ* = 85 µs) for 2 ms at h = 1 µs. rhs_evals/op is the work count: ns/op
// divided by it is the cost of one right-hand-side evaluation.
func BenchmarkDCQCNFluid(b *testing.B) {
	p := DefaultDCQCNParams(10)
	p.TauStar = 85e-6
	b.ReportAllocs()
	evals := 0
	for i := 0; i < b.N; i++ {
		sys, err := NewDCQCN(DCQCNConfig{Params: p})
		if err != nil {
			b.Fatal(err)
		}
		m := &countingModel{Model: sys}
		Run(m, 1e-6, 2e-3, 10e-6)
		evals += m.evals
	}
	b.ReportMetric(float64(evals)/float64(b.N), "rhs_evals/op")
}
