package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestPercentileKnown(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5}, {90, 4.6},
	}
	for _, c := range cases {
		got, err := Percentile(xs, c.p)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("P%v = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileErrors(t *testing.T) {
	if _, err := Percentile(nil, 50); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := Percentile([]float64{1}, -1); err == nil {
		t.Error("negative percentile accepted")
	}
	if _, err := Percentile([]float64{1}, 101); err == nil {
		t.Error("percentile > 100 accepted")
	}
	if v, err := Percentile([]float64{7}, 50); err != nil || v != 7 {
		t.Errorf("singleton percentile = %v, %v", v, err)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	if _, err := Percentile(xs, 50); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input mutated: %v", xs)
	}
}

// Property: percentile is monotone in p and bounded by min/max.
func TestPropertyPercentileMonotone(t *testing.T) {
	f := func(seed int64, a, b uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, 1+rng.Intn(50))
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		p1 := float64(a) / 255 * 100
		p2 := float64(b) / 255 * 100
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		v1, err1 := Percentile(xs, p1)
		v2, err2 := Percentile(xs, p2)
		if err1 != nil || err2 != nil {
			return false
		}
		lo, _ := Percentile(xs, 0)
		hi, _ := Percentile(xs, 100)
		return v1 <= v2+1e-12 && v1 >= lo-1e-12 && v2 <= hi+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 || s.Mean != 5 || math.Abs(s.Stddev-2) > 1e-12 {
		t.Errorf("summary %+v, want mean 5 sd 2", s)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Errorf("min/max %v/%v, want 2/9", s.Min, s.Max)
	}
	if math.Abs(s.CV()-0.4) > 1e-12 {
		t.Errorf("CV = %v, want 0.4", s.CV())
	}
	if z := Summarize(nil); z.N != 0 {
		t.Errorf("empty summary N = %d", z.N)
	}
	if (Summary{}).CV() != 0 {
		t.Error("CV of zero-mean summary should be 0")
	}
}

func TestCDF(t *testing.T) {
	pts := CDF([]float64{3, 1, 2, 2})
	want := []CDFPoint{{1, 0.25}, {2, 0.75}, {3, 1}}
	if len(pts) != len(want) {
		t.Fatalf("CDF = %v, want %v", pts, want)
	}
	for i := range want {
		if pts[i] != want[i] {
			t.Fatalf("CDF = %v, want %v", pts, want)
		}
	}
	if CDF(nil) != nil {
		t.Error("CDF(nil) should be nil")
	}
}

// Property: any CDF is non-decreasing in both coordinates and ends at P=1.
func TestPropertyCDFShape(t *testing.T) {
	f := func(vals []float64) bool {
		for i, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				vals[i] = 0
			}
		}
		pts := CDF(vals)
		if len(vals) == 0 {
			return pts == nil
		}
		for i := range pts {
			if i > 0 && (pts[i].X <= pts[i-1].X || pts[i].P <= pts[i-1].P) {
				return false
			}
		}
		return math.Abs(pts[len(pts)-1].P-1) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestJainIndex(t *testing.T) {
	if j := JainIndex([]float64{1, 1, 1, 1}); math.Abs(j-1) > 1e-12 {
		t.Errorf("equal allocation index %v, want 1", j)
	}
	if j := JainIndex([]float64{1, 0, 0, 0}); math.Abs(j-0.25) > 1e-12 {
		t.Errorf("max unfair index %v, want 0.25", j)
	}
	if j := JainIndex(nil); j != 0 {
		t.Errorf("empty index %v, want 0", j)
	}
	if j := JainIndex([]float64{0, 0}); j != 0 {
		t.Errorf("all-zero index %v, want 0", j)
	}
}

// Property: Jain's index is scale-invariant and within [1/n, 1] for
// positive allocations.
func TestPropertyJainBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(20)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64() + 0.01
			ys[i] = xs[i] * 7.5
		}
		j := JainIndex(xs)
		if j < 1/float64(n)-1e-12 || j > 1+1e-12 {
			return false
		}
		return math.Abs(j-JainIndex(ys)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSeriesWindow(t *testing.T) {
	var s Series
	for i := 0; i < 10; i++ {
		s.Add(float64(i), float64(i*i))
	}
	w := s.Window(2, 5)
	if len(w) != 4 || w[0] != 4 || w[3] != 25 {
		t.Errorf("window = %v", w)
	}
	sum := s.WindowSummary(0, 100)
	if sum.N != 10 {
		t.Errorf("full window N = %d", sum.N)
	}
	if got := s.Len(); got != 10 {
		t.Errorf("Len = %d", got)
	}
}

func TestSeriesBackwardsPanics(t *testing.T) {
	var s Series
	s.Add(1, 0)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on backwards time")
		}
	}()
	s.Add(0.5, 0)
}

func TestPercentileMatchesSortedDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = rng.ExpFloat64()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	med, err := Percentile(xs, 50)
	if err != nil {
		t.Fatal(err)
	}
	if med < sorted[498] || med > sorted[501] {
		t.Errorf("median %v outside the middle order statistics", med)
	}
}
