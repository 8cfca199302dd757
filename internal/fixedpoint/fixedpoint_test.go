package fixedpoint

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// defaultParams mirrors the DCQCN defaults of [31] at 40 Gb/s with 1 KB
// packets: C = 5e6 pkt/s, R_AI = 40 Mb/s = 5e3 pkt/s, τ = 50 µs, τ' = T =
// 55 µs, B = 10 MB = 1e4 pkt, F = 5, K_min/K_max = 5/200 KB, P_max = 1%.
func defaultParams(n int) DCQCNParams {
	return DCQCNParams{
		N: n, C: 5e6, RAI: 5e3,
		Tau: 50e-6, TauPrime: 55e-6, T: 55e-6,
		B: 1e4, F: 5,
		Kmin: 5, Kmax: 200, Pmax: 0.01,
		G: 1.0 / 256, TauStar: 4e-6,
	}
}

func TestBisectKnownRoots(t *testing.T) {
	cases := []struct {
		name   string
		f      func(float64) float64
		lo, hi float64
		want   float64
	}{
		{"linear", func(x float64) float64 { return x - 3 }, 0, 10, 3},
		{"quadratic", func(x float64) float64 { return x*x - 2 }, 0, 2, math.Sqrt2},
		{"cosine", math.Cos, 0, 3, math.Pi / 2},
		{"endpoint lo", func(x float64) float64 { return x }, 0, 1, 0},
		{"endpoint hi", func(x float64) float64 { return x - 1 }, 0, 1, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := Bisect(c.f, c.lo, c.hi, 1e-12)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-c.want) > 1e-10 {
				t.Errorf("root = %v, want %v", got, c.want)
			}
		})
	}
}

func TestBisectSwappedInterval(t *testing.T) {
	got, err := Bisect(func(x float64) float64 { return x - 3 }, 10, 0, 1e-12)
	if err != nil || math.Abs(got-3) > 1e-10 {
		t.Errorf("root = %v, err = %v; want 3, nil", got, err)
	}
}

func TestBisectNoBracket(t *testing.T) {
	if _, err := Bisect(func(x float64) float64 { return x*x + 1 }, -1, 1, 1e-12); err == nil {
		t.Error("expected ErrNoBracket")
	}
}

// Every power of (1-p) in Eq. 12 must stay accurate for tiny p instead of
// collapsing to 1 through float cancellation (1-p rounds with a relative
// error near 1e-4 at p = 1e-12).
func TestEq12TinyPAccuracy(t *testing.T) {
	p := 1e-12
	x := 1e6
	pr := DCQCNParams{Tau: x, TauPrime: x, T: x, B: x, F: 1}
	eq := NewEq12(pr, p)
	lp := math.Log1p(-p)
	near := func(name string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-12*math.Abs(want) {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	// 1-(1-p)^x ≈ px = 1e-6 for both the α target and a.
	near("AlphaTarget", eq.AlphaTarget(1), -math.Expm1(-p*x))
	a, b, c, d, e := eq.Terms(1)
	near("a", a, -math.Expm1(-p*x))
	// b = p/((1-p)^{-B}-1) ≈ 1/B and c = (1-p)^{FB}·b; d, e likewise with
	// T·rc = x.
	near("b", b, p/math.Expm1(-x*lp))
	near("c", c, math.Exp(x*lp)*b)
	near("d", d, b)
	near("e", e, c)
	if math.Abs(b*x-1) > 1e-6 {
		t.Errorf("b = %v, want ~1/B = %v", b, 1/x)
	}
	// Below p = 1e-12 the evaluator takes the p→0 limits.
	zero := NewEq12(pr, 0)
	if a, b, c, d, e := zero.Terms(2); a != 0 || b != 1/x || c != 1/x || d != 1/(2*x) || e != d {
		t.Errorf("p=0 terms = %v %v %v %v %v, want 0, 1/B, 1/B, 1/(T·rc), 1/(T·rc)", a, b, c, d, e)
	}
	if got := zero.AlphaTarget(1); got != 0 {
		t.Errorf("p=0 AlphaTarget = %v, want 0", got)
	}
}

func TestSolveDCQCNUnique(t *testing.T) {
	fp, err := SolveDCQCN(defaultParams(10))
	if err != nil {
		t.Fatal(err)
	}
	if fp.P <= 0 || fp.P >= 1 {
		t.Fatalf("p* = %v out of (0,1)", fp.P)
	}
	// Residual changes sign at p*.
	pr := defaultParams(10)
	if DCQCNResidual(pr, fp.P*0.9) >= 0 {
		t.Error("residual below p* should be negative")
	}
	if DCQCNResidual(pr, math.Min(fp.P*1.1, 0.999)) <= 0 {
		t.Error("residual above p* should be positive")
	}
	if fp.RC != pr.C/10 {
		t.Errorf("R_C* = %v, want fair share %v", fp.RC, pr.C/10)
	}
	if fp.RT <= fp.RC {
		t.Errorf("R_T* = %v should exceed R_C* = %v", fp.RT, fp.RC)
	}
	if fp.Q <= pr.Kmin || fp.Q >= pr.Kmax {
		t.Errorf("q* = %v packets, want within RED thresholds (%v, %v)", fp.Q, pr.Kmin, pr.Kmax)
	}
	if fp.Alpha <= 0 || fp.Alpha >= 1 {
		t.Errorf("α* = %v out of (0,1)", fp.Alpha)
	}
}

// Eq. 14's Taylor approximation should be close to the exact root where its
// premise holds (the paper notes p* is "typically very close to 0"); for
// large N, p* grows and the O(p⁴) truncation degrades, but it must stay the
// right order of magnitude and an over-estimate (the dropped (1-p)^{FB}
// attenuation makes the true p* smaller).
func TestEq14ApproxMatchesExact(t *testing.T) {
	for _, n := range []int{1, 2, 4, 10, 16, 64} {
		pr := defaultParams(n)
		fp, err := SolveDCQCN(pr)
		if err != nil {
			t.Fatalf("N=%d: %v", n, err)
		}
		approx := DCQCNPStarApprox(pr)
		rel := math.Abs(approx-fp.P) / fp.P
		if n <= 4 && rel > 0.30 {
			t.Errorf("N=%d (small-p regime): approx p*=%v vs exact %v (rel err %.1f%%)", n, approx, fp.P, rel*100)
		}
		if ratio := approx / fp.P; ratio < 0.5 || ratio > 2 {
			t.Errorf("N=%d: approx p*=%v vs exact %v (ratio %.2f out of [0.5,2])", n, approx, fp.P, ratio)
		}
		if n >= 10 && approx < fp.P {
			t.Errorf("N=%d: Taylor approx %v should over-estimate exact %v", n, approx, fp.P)
		}
	}
}

// The steady-state queue grows with the number of flows — the q*-vs-N
// dependence that motivates the PI controller in §5.
func TestQStarGrowsWithN(t *testing.T) {
	prev := 0.0
	for _, n := range []int{1, 2, 4, 8, 16, 32, 64} {
		fp, err := SolveDCQCN(defaultParams(n))
		if err != nil {
			t.Fatalf("N=%d: %v", n, err)
		}
		if fp.Q <= prev {
			t.Errorf("q*(N=%d) = %v not greater than previous %v", n, fp.Q, prev)
		}
		prev = fp.Q
	}
}

// Eq. 9 inverts the extended ramp: QFromP maps 0 to Kmin and Pmax to Kmax,
// and QFromP(REDMarkExtended(q)) is q to within 4 ulps for every q between
// Kmin and the queue where the ramp reaches 1, in packets, in bytes and at
// the ends of Validate's range.
func TestQFromPInverse(t *testing.T) {
	pr := defaultParams(2)
	q := pr.QFromP(pr.Pmax) // p = Pmax should land exactly on Kmax
	if math.Abs(q-pr.Kmax) > 1e-9 {
		t.Errorf("QFromP(Pmax) = %v, want Kmax = %v", q, pr.Kmax)
	}
	if q0 := pr.QFromP(0); math.Abs(q0-pr.Kmin) > 1e-9 {
		t.Errorf("QFromP(0) = %v, want Kmin = %v", q0, pr.Kmin)
	}

	rng := rand.New(rand.NewSource(1))
	for _, pr := range []DCQCNParams{
		pr,
		{Kmin: 5000, Kmax: 200000, Pmax: 0.01},
		{Kmin: 0, Kmax: 2000, Pmax: 1},
		{Kmin: 1e-6, Kmax: MaxPackets, Pmax: MinPmax},
	} {
		sat := pr.QFromP(1)
		qs := []float64{math.Nextafter(pr.Kmin, sat), pr.Kmax, math.Nextafter(sat, pr.Kmin)}
		for i := 0; i < 20000; i++ {
			// Half uniform, half crowded toward Kmin, where q−Kmin is small.
			u := rng.Float64()
			if i%2 == 1 {
				u = math.Pow(u, 8)
			}
			qs = append(qs, pr.Kmin+(sat-pr.Kmin)*u)
		}
		for _, q := range qs {
			if q <= pr.Kmin || q >= sat {
				continue
			}
			back := pr.QFromP(REDMarkExtended(q, pr.Kmin, pr.Kmax, pr.Pmax))
			d := int64(math.Float64bits(back)) - int64(math.Float64bits(q))
			if d < -4 || d > 4 {
				t.Errorf("Kmin %g Kmax %g Pmax %g: QFromP(REDMarkExtended(%v)) = %v, %d ulps off",
					pr.Kmin, pr.Kmax, pr.Pmax, q, back, d)
			}
		}
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	base := defaultParams(2)
	mutations := []func(*DCQCNParams){
		func(p *DCQCNParams) { p.N = 0 },
		func(p *DCQCNParams) { p.C = -1 },
		func(p *DCQCNParams) { p.RAI = 0 },
		func(p *DCQCNParams) { p.Tau = 0 },
		func(p *DCQCNParams) { p.TauPrime = -1 },
		func(p *DCQCNParams) { p.T = 0 },
		func(p *DCQCNParams) { p.B = 0 },
		func(p *DCQCNParams) { p.F = 0 },
		func(p *DCQCNParams) { p.Kmax = p.Kmin },
		func(p *DCQCNParams) { p.Pmax = 0 },
		func(p *DCQCNParams) { p.Pmax = 1.5 },
		func(p *DCQCNParams) { p.G = 1 },
	}
	for i, mut := range mutations {
		p := base
		mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d: Validate accepted invalid params %+v", i, p)
		}
	}
	if err := base.Validate(); err != nil {
		t.Errorf("Validate rejected defaults: %v", err)
	}
}

func TestPatchedTimelyQStar(t *testing.T) {
	// 10 Gb/s = 1.25e9 B/s, T_low = 50 µs → q' = 62500 B; δ = 10 Mb/s =
	// 1.25e6 B/s; β = 0.008.
	c := 1.25e9
	qp := c * 50e-6
	delta := 1.25e6
	beta := 0.008
	q1 := PatchedTimelyQStar(1, delta, beta, c, qp)
	want := 1*delta*qp/(beta*c) + qp
	if math.Abs(q1-want) > 1e-6 {
		t.Errorf("q*(1) = %v, want %v", q1, want)
	}
	// Linear growth in N (Eq. 31): q*(2N) - q' = 2(q*(N) - q').
	q2 := PatchedTimelyQStar(2, delta, beta, c, qp)
	q4 := PatchedTimelyQStar(4, delta, beta, c, qp)
	if math.Abs((q4-qp)-2*(q2-qp)) > 1e-6 {
		t.Errorf("q* not linear in N: q2=%v q4=%v q'=%v", q2, q4, qp)
	}
}

// Property: Eq. 11's LHS is monotonically increasing in p on (0, 1), which
// is the core of the uniqueness proof in Theorem 1.
func TestPropertyResidualMonotonic(t *testing.T) {
	pr := defaultParams(8)
	f := func(a, b uint16) bool {
		p1 := 1e-6 + float64(a)/float64(math.MaxUint16)*0.5
		p2 := 1e-6 + float64(b)/float64(math.MaxUint16)*0.5
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		if p2-p1 < 1e-9 {
			return true
		}
		return DCQCNResidual(pr, p1) <= DCQCNResidual(pr, p2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: SolveDCQCN satisfies Eq. 11 (residual ~ 0) across a parameter
// sweep, and p* stays in (0, Pmax·10) for sane configurations.
func TestPropertyFixedPointSatisfiesEq11(t *testing.T) {
	for _, n := range []int{1, 2, 5, 10, 20, 50, 100} {
		for _, cGbps := range []float64{10, 40, 100} {
			pr := defaultParams(n)
			pr.C = cGbps * 1e9 / 8 / 1000
			fp, err := SolveDCQCN(pr)
			if err != nil {
				t.Fatalf("N=%d C=%g: %v", n, cGbps, err)
			}
			res := DCQCNResidual(pr, fp.P)
			scale := pr.Tau * pr.Tau * pr.RAI * fp.RC
			if math.Abs(res)/scale > 1e-6 {
				t.Errorf("N=%d C=%g: residual %v not ~0 (scale %v)", n, cGbps, res, scale)
			}
		}
	}
}

func BenchmarkSolveDCQCN(b *testing.B) {
	pr := defaultParams(10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := SolveDCQCN(pr); err != nil {
			b.Fatal(err)
		}
	}
}

// The shared laws either side of each break: Eq. 3's strict ramp (1 past
// Kmax) and extended ramp (capped at 1), and Eq. 30's weight.
func TestSharedLaws(t *testing.T) {
	strict := func(q float64) float64 { return REDMark(q, 5, 200, 0.01) }
	extended := func(q float64) float64 { return REDMarkExtended(q, 5, 200, 0.01) }
	cases := []struct {
		law     string
		f       func(float64) float64
		x, want float64
	}{
		{"REDMark", strict, 0, 0},
		{"REDMark", strict, 5, 0},
		{"REDMark", strict, 102.5, 0.005},
		{"REDMark", strict, 200, 0.01},
		{"REDMark", strict, 201, 1},
		{"REDMark", strict, 1e6, 1},
		{"REDMarkExtended", extended, 5, 0},
		{"REDMarkExtended", extended, 102.5, 0.005},
		{"REDMarkExtended", extended, 200, 0.01},
		{"REDMarkExtended", extended, 1155, 0.05897435897435897},
		{"REDMarkExtended", extended, 1e9, 1},
		{"PatchedWeight", PatchedWeight, -1, 0},
		{"PatchedWeight", PatchedWeight, -0.25, 0},
		{"PatchedWeight", PatchedWeight, -0.125, 0.25},
		{"PatchedWeight", PatchedWeight, 0, 0.5},
		{"PatchedWeight", PatchedWeight, 0.125, 0.75},
		{"PatchedWeight", PatchedWeight, 0.25, 1},
		{"PatchedWeight", PatchedWeight, 2, 1},
	}
	for _, c := range cases {
		if got := c.f(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s(%v) = %v, want %v", c.law, c.x, got, c.want)
		}
	}
}

// Property: both marking profiles are monotone in q and agree inside the ramp.
func TestPropertyREDMonotoneAndConsistent(t *testing.T) {
	f := func(a, b uint16) bool {
		q1 := float64(a) / 65535 * 400
		q2 := float64(b) / 65535 * 400
		if q1 > q2 {
			q1, q2 = q2, q1
		}
		if REDMark(q1, 5, 200, 0.01) > REDMark(q2, 5, 200, 0.01) {
			return false
		}
		if REDMarkExtended(q1, 5, 200, 0.01) > REDMarkExtended(q2, 5, 200, 0.01) {
			return false
		}
		if q1 <= 200 && REDMark(q1, 5, 200, 0.01) != REDMarkExtended(q1, 5, 200, 0.01) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: the Eq. 30 weight is monotone, bounded in [0,1], and continuous
// (Lipschitz with constant 2).
func TestPropertyPatchedWeight(t *testing.T) {
	f := func(a, b int16) bool {
		g1 := float64(a) / 1000
		g2 := float64(b) / 1000
		w1, w2 := PatchedWeight(g1), PatchedWeight(g2)
		if w1 < 0 || w1 > 1 || w2 < 0 || w2 > 1 {
			return false
		}
		if g1 <= g2 && w1 > w2 || g2 <= g1 && w2 > w1 {
			return false
		}
		return math.Abs(w1-w2) <= 2*math.Abs(g1-g2)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
