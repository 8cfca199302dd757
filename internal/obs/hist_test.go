package obs

import (
	"encoding/json"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
)

// exactQuantile is the reference the histogram is graded against: the
// smallest sample whose rank covers q (nearest-rank definition, matching
// Hist.Quantile's rank arithmetic).
func exactQuantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// relErr is the symmetric relative error between a histogram quantile and
// the exact order statistic.
func relErr(got, want float64) float64 {
	if want == got {
		return 0
	}
	d := math.Abs(got - want)
	m := math.Max(math.Abs(got), math.Abs(want))
	if m == 0 {
		return 0
	}
	return d / m
}

// TestHistQuantileAccuracy grades the histogram against exact sorted-
// sample percentiles on fixed-seed workloads spanning the magnitudes the
// simulator records (microsecond RTTs, second-scale FCTs, byte counts).
// The contract is a relative error no worse than the bucket resolution.
func TestHistQuantileAccuracy(t *testing.T) {
	workloads := []struct {
		name string
		gen  func(r *rand.Rand) float64
	}{
		{"uniform-rtt", func(r *rand.Rand) float64 { return 10e-6 + 500e-6*r.Float64() }},
		{"lognormal-fct", func(r *rand.Rand) float64 { return math.Exp(r.NormFloat64()*1.5 - 7) }},
		{"exponential-gap", func(r *rand.Rand) float64 { return r.ExpFloat64() * 50e-6 }},
		{"heavy-bytes", func(r *rand.Rand) float64 { return math.Pow(10, 2+6*r.Float64()) }},
	}
	const tol = 1.0 / HistSub
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(42))
			h := NewHist(w.name)
			samples := make([]float64, 0, 20000)
			for i := 0; i < 20000; i++ {
				v := w.gen(r)
				samples = append(samples, v)
				h.Record(v)
			}
			sort.Float64s(samples)
			if h.Count() != int64(len(samples)) {
				t.Fatalf("count = %d, want %d", h.Count(), len(samples))
			}
			if h.Min() != samples[0] || h.Max() != samples[len(samples)-1] {
				t.Errorf("min/max = %g/%g, want %g/%g", h.Min(), h.Max(), samples[0], samples[len(samples)-1])
			}
			for _, q := range HistQuantiles {
				got := h.Quantile(q)
				want := exactQuantile(samples, q)
				if e := relErr(got, want); e > tol {
					t.Errorf("q%.3f = %g, exact %g: rel err %.4f > %.4f", q, got, want, e, tol)
				}
			}
		})
	}
}

// TestHistEdgeCases pins the boundary behaviour: empty, zero and negative
// values, and magnitudes outside the bucketed octave range.
func TestHistEdgeCases(t *testing.T) {
	h := NewHist("edge")
	if h.Count() != 0 || h.Min() != 0 || h.Max() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	h.Record(0)
	h.Record(-3)
	if h.Count() != 2 || h.Min() != -3 || h.Max() != 0 {
		t.Fatalf("after 0,-3: count=%d min=%g max=%g", h.Count(), h.Min(), h.Max())
	}
	if q := h.Quantile(0.99); q < -3 || q > 0 {
		t.Fatalf("quantile %g outside [min,max]", q)
	}
	h2 := NewHist("range")
	lo, hi := 1e-300, 1e300 // far outside the octave range
	h2.Record(lo)
	h2.Record(hi)
	if h2.Min() != lo || h2.Max() != hi {
		t.Fatalf("min/max must stay exact for clamped values: %g %g", h2.Min(), h2.Max())
	}
	if q := h2.Quantile(1); q != hi {
		t.Fatalf("p100 = %g, want exact max %g", q, hi)
	}
	h2.Record(math.NaN()) // ignored
	if h2.Count() != 2 {
		t.Fatalf("NaN must be ignored, count=%d", h2.Count())
	}
	// Infinities are ignored like NaN: +Inf used to index far outside the
	// buckets, and -Inf left a Min that JSON cannot carry.
	hs := NewHistSet()
	h3 := hs.Hist("inf")
	h3.Record(math.Inf(1))
	h3.Record(math.Inf(-1))
	h3.Record(2e-6)
	if h3.Count() != 1 || h3.Min() != 2e-6 || h3.Max() != 2e-6 {
		t.Fatalf("after ±Inf, 2e-6: count=%d min=%g max=%g", h3.Count(), h3.Min(), h3.Max())
	}
	var out strings.Builder
	if err := hs.WriteJSONL(&out); err != nil {
		t.Fatal(err)
	}
	var row map[string]any
	if err := json.Unmarshal([]byte(out.String()), &row); err != nil {
		t.Fatalf("export is not JSON: %v\n%s", err, out.String())
	}
}

// TestHistConcurrentRecord hammers one histogram from several goroutines
// (the shared-sweep-worker shape) and checks totals; run under -race this
// also proves the recording path is data-race free.
func TestHistConcurrentRecord(t *testing.T) {
	h := NewHist("conc")
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < per; i++ {
				h.Record(r.Float64())
			}
		}(int64(w))
	}
	wg.Wait()
	if h.Count() != workers*per {
		t.Fatalf("count = %d, want %d", h.Count(), workers*per)
	}
	if h.Min() < 0 || h.Max() >= 1 {
		t.Fatalf("min/max outside [0,1): %g %g", h.Min(), h.Max())
	}
}

// TestHistSetExports pins the canonical export formats.
func TestHistSetExports(t *testing.T) {
	hs := NewHistSet()
	h := hs.Hist("b.second")
	for i := 1; i <= 100; i++ {
		h.Record(float64(i) * 1e-3)
	}
	hs.Hist("a.first").Record(2)
	if same := hs.Hist("a.first"); same.Count() != 1 {
		t.Fatal("Hist must be get-or-create")
	}

	var tsv strings.Builder
	if err := hs.WriteTSV(&tsv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(tsv.String(), "\n"), "\n")
	if len(lines) != 3 || !strings.HasPrefix(lines[0], "# hist\t") {
		t.Fatalf("unexpected TSV:\n%s", tsv.String())
	}
	if !strings.HasPrefix(lines[1], "a.first\t1\t") || !strings.HasPrefix(lines[2], "b.second\t100\t") {
		t.Fatalf("TSV rows not sorted by name:\n%s", tsv.String())
	}

	var jsonl strings.Builder
	if err := hs.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	jl := strings.Split(strings.TrimRight(jsonl.String(), "\n"), "\n")
	if len(jl) != 2 || !strings.Contains(jl[0], `{"hist":"a.first","count":1,`) {
		t.Fatalf("unexpected JSONL:\n%s", jsonl.String())
	}
	for _, want := range []string{`"min":`, `"max":`, `"p50":`, `"p90":`, `"p95":`, `"p99":`, `"p999":`} {
		if !strings.Contains(jl[1], want) {
			t.Errorf("JSONL missing %s: %s", want, jl[1])
		}
	}
}

// TestHistBucketEdges cross-checks index and edge arithmetic: every value
// must fall inside its bucket's [prev upper, upper) range.
func TestHistBucketEdges(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 10000; i++ {
		v := math.Exp(r.NormFloat64() * 10)
		idx := histBucketIndex(v)
		if idx == histBuckets { // clamped overflow bucket, edges don't apply
			continue
		}
		up := histBucketUpper(idx)
		if v >= up {
			t.Fatalf("v=%g >= upper edge %g of its bucket %d", v, up, idx)
		}
		if idx > 0 {
			if lo := histBucketUpper(idx - 1); v < lo {
				t.Fatalf("v=%g < lower edge %g of its bucket %d", v, lo, idx)
			}
		}
		mid := histBucketMid(idx)
		if idx > 0 && (mid >= up || mid < histBucketUpper(idx-1)) {
			t.Fatalf("mid %g outside bucket %d", mid, idx)
		}
	}
}

// TestHistAllocFree pins steady-state recording and quantile reads at
// zero allocations — the gate bench-smoke runs.
func TestHistAllocFree(t *testing.T) {
	h := NewHist("alloc")
	if n := testing.AllocsPerRun(1000, func() {
		h.Record(123e-6)
	}); n != 0 {
		t.Errorf("Record allocates %v per op", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		_ = h.Quantile(0.99)
	}); n != 0 {
		t.Errorf("Quantile allocates %v per op", n)
	}
}
