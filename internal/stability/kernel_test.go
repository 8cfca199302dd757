package stability

import (
	"fmt"
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

// quietOmegaOf returns ω_q for j, with work vectors of its own.
func quietOmegaOf(j *jacobians) float64 {
	return j.quietOmega(make([]float64, j.n), make([]float64, j.n))
}

// stage1Of runs stage 1 for j with buffers of its own.
func stage1Of(j *jacobians) (excess []float64, solved, anchors int, err error) {
	excess = make([]float64, points)
	solved, anchors, err = j.stage1(excess, make([]float64, anchorReal), make([]complex128, anchorComplex))
	return excess, solved, anchors, err
}

// soundCells are the pinned cells plus a seeded random sample of the grids
// the figures and the benchmark reach: DCQCN egress and ingress at N = 1–64
// and τ* = 1–122 µs, and patched TIMELY at N = 1–64. The sample has 2,000
// cells, 100 under -short.
func soundCells() []bitsCell {
	cells := append([]bitsCell(nil), bitsCells...)
	sample := 2000
	if testing.Short() {
		sample = 100
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < sample; i++ {
		c := bitsCell{model: []string{"dcqcn", "ingress", "patched"}[rng.Intn(3)], n: 1 + rng.Intn(64)}
		if c.model != "patched" {
			c.tau = (1 + 121*rng.Float64()) * 1e-6
		}
		cells = append(cells, c)
	}
	return cells
}

// At every stage-1 ω the bound skips, the loop gain solves without error
// and stays below ½, so the -½ stage 1 records there has the sign the
// solve would give.
func TestQuietOmegaSound(t *testing.T) {
	largest := 0.0
	cells := soundCells()
	for _, c := range cells {
		j, err := linearise(c.loop(t))
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		wq := quietOmegaOf(j)
		for _, w := range sweepOmegas[quietStart(wq):] {
			l, err := j.loopGain(w)
			if err != nil {
				t.Fatalf("%v ω=%v (ω_q %v): %v", c, w, wq, err)
			}
			a := cmplx.Abs(l)
			if !(a < 0.5) {
				t.Fatalf("%v ω=%v (ω_q %v): |L| = %v, want below ½", c, w, wq, a)
			}
			largest = math.Max(largest, a)
		}
	}
	t.Logf("%d cells; largest |L| at a skipped point %.4f", len(cells), largest)
}

// Every stage-1 point below ω_q that stage 1 did not solve solves without
// error, with |L| ≥ 2 where it recorded +1 and |L| ≤ ½ where it recorded
// -½, so each recorded value has the sign the solve would give; from ω_q
// on it recorded -½. A point counts as solved where stage 1 holds the bits
// a solve gives, and the points that do not are exactly those that stage 1
// reports it did not solve.
func TestAnchorSound(t *testing.T) {
	smallest, largest, maxSolved := math.Inf(1), 0.0, 0
	cells := soundCells()
	for _, c := range cells {
		j, err := linearise(c.loop(t))
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		excess, solved, anchors, err := stage1Of(j)
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		maxSolved = max(maxSolved, solved)
		quiet, skipped := quietStart(quietOmegaOf(j)), 0
		for i, w := range sweepOmegas {
			if i >= quiet { // TestQuietOmegaSound solves these
				if excess[i] != -0.5 {
					t.Fatalf("%v ω=%v: excess %v at or above ω_q, want -½", c, w, excess[i])
				}
				continue
			}
			x, err := j.excess(w)
			if err != nil {
				t.Fatalf("%v ω=%v: %v", c, w, err)
			}
			if math.Float64bits(x) == math.Float64bits(excess[i]) {
				continue
			}
			skipped++
			l, err := j.loopGain(w)
			if err != nil {
				t.Fatalf("%v ω=%v: %v", c, w, err)
			}
			a := cmplx.Abs(l)
			switch excess[i] {
			case 1:
				if !(a >= 2) {
					t.Fatalf("%v ω=%v: recorded +1, |L| = %v, want at least 2", c, w, a)
				}
				smallest = math.Min(smallest, a)
			case -0.5:
				if !(a <= 0.5) {
					t.Fatalf("%v ω=%v: recorded -½, |L| = %v, want at most ½", c, w, a)
				}
				largest = math.Max(largest, a)
			default:
				t.Fatalf("%v ω=%v: excess %v, a solve gives %v", c, w, excess[i], x)
			}
		}
		if want := quiet - solved - anchors; skipped != want {
			t.Fatalf("%v: %d points differ from a solve, stage 1 reports %d unsolved", c, skipped, want)
		}
	}
	t.Logf("%d cells; at anchored skips smallest |L| above 1 %.4f, largest below 1 %.4f; at most %d points solved besides anchors",
		len(cells), smallest, largest, maxSolved)
}

// At every pinned cell the bound skips a pinned number of stage-1 points,
// at least 40% of the grid, and below ω_q stage 1 solves a pinned number
// of points besides its anchors, at most 200, and a pinned number of
// anchors. The counts depend only on the Jacobians, so a change that loses
// or loosens either bound fails here without any timing.
func TestQuietOmegaSkipCounts(t *testing.T) {
	for _, c := range bitsCells {
		j, err := linearise(c.loop(t))
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		skip := points - quietStart(quietOmegaOf(j))
		if skip != c.skip {
			t.Errorf("%v: skips %d stage-1 points, want %d", c, skip, c.skip)
		}
		if skip < 4*points/10 {
			t.Errorf("%v: skips %d of %d stage-1 points, want at least 40%%", c, skip, points)
		}
		_, solved, anchors, err := stage1Of(j)
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		if solved != c.solved || anchors != c.anchors {
			t.Errorf("%v: stage 1 solves %d points and %d anchors, want %d and %d", c, solved, anchors, c.solved, c.anchors)
		}
		if solved > 200 {
			t.Errorf("%v: stage 1 solves %d points besides its anchors, want at most 200", c, solved)
		}
	}
}

// The M-matrix test covers all of I - K(δ), not only the rate row, and
// takes a pivot only from pivotFloor up, where its rounding is a small
// relative error (see resolvent): a pivot of half the floor in a state the
// rate row does not read is refused, one of twice the floor is not. The
// resolvent is built by hand: two states, rate index 1,
// K = diag(1 - pivot, 0), |R·r_a| = (1, 10⁻³) and δ|R|P = δ|R|e = 0, so
// the rate row alone proves |L| ≤ ½ at ω_1 from ω_lo = 1.
func TestProvesRefusesSmallPivot(t *testing.T) {
	j := &jacobians{n: 2, cIdx: 1, flows: 1}
	for _, c := range []struct {
		pivot float64
		want  bool
	}{{pivotFloor / 2, false}, {2 * pivotFloor, true}} {
		b := resolvent{j: j, nf: 1,
			f: []float64{1 - c.pivot, 0, 0, 0}, rp: make([]float64, 4),
			re: make([]float64, 2), rr: []float64{1, 1e-3},
			u: make([]float64, 4), y: make([]float64, 2)}
		if got := b.proves(0, 1); got != c.want {
			t.Errorf("pivot %g: proves %v, want %v", c.pivot, got, c.want)
		}
	}
}

// nanRate wraps a loop model so that the rate's derivative is NaN, which
// makes every entry of the rate row of its Jacobians NaN.
type nanRate struct{ LoopModel }

func (l nanRate) Derivs(z []float64, zd [][]float64, qd []float64, dzdt []float64) {
	l.LoopModel.Derivs(z, zd, qd, dzdt)
	dzdt[l.RateIndex()] = math.NaN()
}

// Where the Jacobians cannot be bounded, ω_q is +Inf, no anchor reaches a
// point and stage 1 solves every point: a model whose Jacobians hold NaN,
// an entry of A, B or E that is NaN or infinite, and an E so large that
// ω_q overflows. A rate index out of range takes no anchor either.
func TestQuietOmegaSkipsNothingUnbounded(t *testing.T) {
	base := bitsCells[8].loop(t) // DCQCN N=10, τ*=85 µs
	check := func(what string, m LoopModel, spoil func(*jacobians)) {
		t.Helper()
		j, err := linearise(m)
		if err != nil {
			t.Fatal(err)
		}
		spoil(j)
		if wq := quietOmegaOf(j); !math.IsInf(wq, 1) || quietStart(wq) != points {
			t.Errorf("%s: ω_q = %v, want +Inf", what, wq)
		}
		if j.cIdx < 0 || j.cIdx >= j.n {
			b := newResolvent(j, make([]float64, anchorReal), make([]complex128, anchorComplex))
			if b.anchors(0, 1) || b.anchors(0, -1) {
				t.Errorf("%s: takes an anchor", what)
			}
			return
		}
		if _, solved, anchors, err := stage1Of(j); err != nil || solved+anchors != points {
			t.Errorf("%s: stage 1 solves %d points and %d anchors (%v), want all %d", what, solved, anchors, err, points)
		}
	}
	check("NaN rate row", nanRate{base}, func(*jacobians) {})
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		check(fmt.Sprintf("A entry %v", bad), base, func(j *jacobians) { j.a[0] = bad })
		check(fmt.Sprintf("B entry %v", bad), base, func(j *jacobians) { j.b[0][1] = bad })
		check(fmt.Sprintf("E entry %v", bad), base, func(j *jacobians) { j.e[0][0] = bad })
	}
	check("E entry 1e300", base, func(j *jacobians) { j.e[0][0] = 1e300 })
	for _, c := range []int{-1, 3} {
		check(fmt.Sprintf("rate index %d", c), base, func(j *jacobians) { j.cIdx = c })
	}
}
