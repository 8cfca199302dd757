package stability

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// The two fast paths of the frequency-response kernel stand in for hypot
// decisions, so each must take the decision cmplx.Abs takes on every input,
// not only on the inputs phase margins happen to reach.

// specials are the values a component may take at the edges of float64:
// signed zeros, subnormals, the normal extremes, the fast paths' range
// bounds, infinities and NaN.
var specials = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 3 * 5e-324, 0x1p-1022, 0x1p-600,
	0x1p-450, 0x1p-449, 1, -1, 0x1p449, 0x1p450, 0x1p600, math.MaxFloat64,
	-math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
}

// wide returns a random sign times a magnitude spread log-uniformly over
// 600 decades, 1e-300 to 1e300.
func wide(rng *rand.Rand) float64 {
	x := math.Pow(10, 600*rng.Float64()-300)
	if rng.Intn(2) == 0 {
		x = -x
	}
	return x
}

// nudge moves x by k ulps (k may be negative).
func nudge(x float64, k int) float64 {
	to := math.Inf(1)
	if k < 0 {
		to, k = math.Inf(-1), -k
	}
	for ; k > 0; k-- {
		x = math.Nextafter(x, to)
	}
	return x
}

// rounds is the number of random draws of each property test.
func rounds() int {
	if testing.Short() {
		return 20000
	}
	return 200000
}

// rotate returns z turned by angle θ, with the magnitude rounded anew.
func rotate(z complex128, theta float64) complex128 { return z * cmplx.Rect(1, theta) }

func TestAbsGreaterMatchesHypot(t *testing.T) {
	bad := 0
	check := func(a, b complex128) {
		t.Helper()
		if got, want := absGreater(a, b), cmplx.Abs(a) > cmplx.Abs(b); got != want && bad < 10 {
			bad++
			t.Errorf("absGreater(%v, %v) = %v; |a| = %v, |b| = %v", a, b, got, cmplx.Abs(a), cmplx.Abs(b))
		}
	}
	for _, ar := range specials {
		for _, ai := range specials {
			for _, br := range specials {
				for _, bi := range specials {
					check(complex(ar, ai), complex(br, bi))
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < rounds(); i++ {
		a := complex(wide(rng), wide(rng))
		if i%4 == 0 { // one part only, so the magnitude itself spans 600 decades
			a = complex(real(a), 0)
		}
		b := complex(wide(rng), wide(rng))
		check(a, b)
		check(b, a)
		// Near-ties: a few ulps apart in one part, the same magnitude at
		// another angle, and a relative gap just either side of tieGap.
		k := rng.Intn(9) - 4
		for _, c := range []complex128{
			complex(nudge(real(a), k), imag(a)),
			complex(real(a), nudge(imag(a), k)),
			complex(imag(a), real(a)),
			rotate(a, 2*math.Pi*rng.Float64()),
			a * complex(1+tieGap/2*(1+0.1*rng.NormFloat64()), 0),
			a * complex(1+tieGap*(1+0.1*rng.NormFloat64()), 0),
			rotate(a*complex(1+tieGap/2, 0), 2*math.Pi*rng.Float64()),
		} {
			check(a, c)
			check(c, a)
		}
	}
}

// class sorts an excess the way stage 1 and the bisection read it.
func class(x float64) string {
	switch {
	case math.IsNaN(x):
		return "NaN"
	case x > 0:
		return "+"
	case x < 0:
		return "-"
	}
	return "0"
}

func TestGainExcessMatchesHypot(t *testing.T) {
	bad := 0
	check := func(flows int, h complex128, w float64) {
		t.Helper()
		got := gainExcess(flows, h, w)
		want := cmplx.Abs(gain(flows, h, w)) - 1
		if class(got) != class(want) && bad < 10 {
			bad++
			t.Errorf("gainExcess(%d, %v, %v) = %v (%s); |L| - 1 = %v (%s)",
				flows, h, w, got, class(got), want, class(want))
		}
	}
	flowCounts := []int{0, 1, 2, 10, 64, 1 << 20, 1 << 40}
	for _, flows := range flowCounts {
		for _, hr := range specials {
			for _, hi := range specials {
				for _, w := range specials {
					check(flows, complex(hr, hi), w)
				}
				check(flows, complex(hr, hi), 1e3)
			}
		}
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < rounds(); i++ {
		flows := flowCounts[rng.Intn(len(flowCounts))]
		w := wide(rng)
		if i%2 == 0 { // the sweep's own range, 1 to 1e9 rad/s
			w = math.Pow(10, 9*rng.Float64())
		}
		check(flows, complex(wide(rng), wide(rng)), w)
		if flows == 0 {
			continue
		}
		// |L| within a few ulps of 1, and a relative gap either side of
		// tieGap from it.
		h := cmplx.Rect(math.Abs(w)/float64(flows), 2*math.Pi*rng.Float64())
		k := rng.Intn(9) - 4
		for _, x := range []complex128{
			h,
			complex(nudge(real(h), k), imag(h)),
			complex(real(h), nudge(imag(h), k)),
			h * complex(1+tieGap/2*(1+0.1*rng.NormFloat64()), 0),
			h * complex(1-tieGap/2*(1+0.1*rng.NormFloat64()), 0),
			h * complex(1+tieGap*(1+0.1*rng.NormFloat64()), 0),
		} {
			check(flows, x, w)
			check(flows, x, nudge(w, k))
		}
	}
}

// At every stage-1 ω of every pinned cell, the excess the sweep reads has
// the sign of cmplx.Abs(loopGain(ω)) - 1, the value it replaced.
func TestExcessSignAtPinnedCells(t *testing.T) {
	for _, c := range bitsCells {
		j, err := linearise(c.loop(t))
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		for _, w := range sweepOmegas {
			x, err := j.excess(w)
			if err != nil {
				t.Fatalf("%v ω=%v: %v", c, w, err)
			}
			l, err := j.loopGain(w)
			if err != nil {
				t.Fatalf("%v ω=%v: %v", c, w, err)
			}
			if want := cmplx.Abs(l) - 1; class(x) != class(want) {
				t.Errorf("%v ω=%v: excess %v, |L| - 1 = %v", c, w, x, want)
			}
		}
	}
}

// sameBits reports whether two complex values have identical bits.
func sameBits(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
		math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}

// Stopping the back substitution at row first leaves b[first:] with the
// bits of the full solve: on every stage-1 system of every pinned cell at
// its rate row, and on random systems of every size at every stop row.
func TestShortSolveMatchesFullSolve(t *testing.T) {
	compare := func(what string, n int, m, b []complex128, first int) {
		t.Helper()
		mShort, bShort := append([]complex128(nil), m...), append([]complex128(nil), b...)
		errShort := solveComplex(n, mShort, bShort, first)
		errFull := solveComplex(n, m, b, 0)
		if (errShort == nil) != (errFull == nil) {
			t.Fatalf("%s: short solve error %v, full solve error %v", what, errShort, errFull)
		}
		if errFull != nil {
			return
		}
		for r := first; r < n; r++ {
			if !sameBits(bShort[r], b[r]) {
				t.Fatalf("%s: x[%d] = %v short, %v full", what, r, bShort[r], b[r])
			}
		}
	}
	for _, c := range bitsCells {
		j, err := linearise(c.loop(t))
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		for _, w := range sweepOmegas {
			j.fill(w)
			compare(c.String(), j.n, j.m, j.rhs, j.cIdx)
		}
	}
	rng := rand.New(rand.NewSource(3))
	entry := func() complex128 {
		if rng.Intn(5) == 0 {
			return 0 // structural zeros, as in the rate subsystems
		}
		scale := math.Pow(10, 8*rng.Float64()-4)
		return complex(scale*rng.NormFloat64(), scale*rng.NormFloat64())
	}
	for i := 0; i < 20000; i++ {
		n := 1 + rng.Intn(5)
		m := make([]complex128, n*n)
		for k := range m {
			m[k] = entry()
		}
		b := make([]complex128, n)
		for k := range b {
			b[k] = entry()
		}
		compare("random", n, m, b, rng.Intn(n))
	}
}
