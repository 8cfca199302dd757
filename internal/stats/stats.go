// Package stats provides the small statistical toolkit the experiments
// need: percentiles, empirical CDFs, running summaries, time series, and
// Jain's fairness index.
package stats

import (
	"errors"
	"math"
	"sort"
)

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between order statistics. It copies and sorts its input.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, errors.New("stats: percentile of empty set")
	}
	if p < 0 || p > 100 {
		return 0, errors.New("stats: percentile out of [0,100]")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentileSorted(s, p), nil
}

func percentileSorted(s []float64, p float64) float64 {
	if len(s) == 1 {
		return s[0]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(rank)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := rank - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// Summary holds the moments and extremes of a sample.
type Summary struct {
	N            int
	Mean, Stddev float64
	Min, Max     float64
}

// Summarize computes a Summary over xs. An empty input yields a zero
// Summary with N = 0.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	for _, x := range xs {
		s.Mean += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean /= float64(len(xs))
	var ss float64
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
	}
	s.Stddev = math.Sqrt(ss / float64(len(xs)))
	return s
}

// CV is the coefficient of variation (stddev/mean); it reports 0 for a zero
// mean, where the ratio is meaningless.
func (s Summary) CV() float64 {
	if s.Mean == 0 {
		return 0
	}
	return s.Stddev / math.Abs(s.Mean)
}

// CDFPoint is one step of an empirical CDF.
type CDFPoint struct {
	X float64 // value
	P float64 // fraction of samples <= X
}

// CDF builds the empirical CDF of xs, one point per distinct value.
func CDF(xs []float64) []CDFPoint {
	if len(xs) == 0 {
		return nil
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var out []CDFPoint
	n := float64(len(s))
	for i := 0; i < len(s); i++ {
		if i+1 < len(s) && s[i+1] == s[i] {
			continue
		}
		out = append(out, CDFPoint{X: s[i], P: float64(i+1) / n})
	}
	return out
}

// JainIndex is Jain's fairness index: (Σx)² / (n·Σx²), 1 for perfectly
// equal allocations and 1/n in the maximally unfair case.
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sq)
}

// Series is a time series of scalar observations.
type Series struct {
	T []float64
	V []float64
}

// Add appends an observation; times must be non-decreasing.
func (s *Series) Add(t, v float64) {
	if n := len(s.T); n > 0 && t < s.T[n-1] {
		panic("stats: time series going backwards")
	}
	s.T = append(s.T, t)
	s.V = append(s.V, v)
}

// Len reports the number of points.
func (s *Series) Len() int { return len(s.T) }

// Window returns the values observed in [t0, t1].
func (s *Series) Window(t0, t1 float64) []float64 {
	lo := sort.SearchFloat64s(s.T, t0)
	hi := sort.Search(len(s.T), func(i int) bool { return s.T[i] > t1 })
	return s.V[lo:hi]
}

// WindowSummary summarises the values observed in [t0, t1].
func (s *Series) WindowSummary(t0, t1 float64) Summary {
	return Summarize(s.Window(t0, t1))
}
