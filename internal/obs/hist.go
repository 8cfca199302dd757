package obs

import (
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Streaming latency histograms. Hist is a log-bucketed (HDR-style)
// histogram over a fixed octave range: every power-of-two octave is split
// into HistSub linear sub-buckets, so any recorded value lands in a bucket
// whose width is at most 1/HistSub of its magnitude. Buckets are paged by
// octave: a page of HistSub counters is allocated the first time a value
// lands in its octave, so a histogram costs what its values span (a
// per-hop delay histogram touches a handful of octaves; one that never
// records holds no page at all). Recording is a handful of atomic
// operations, allocation-free once its octave's page exists, and safe for
// concurrent writers (sweep workers sharing one instance).
//
// Bucket counts, totals and min/max all commute, so one histogram shared
// by every worker reports identical quantiles for any worker count. No
// float sum is kept: its low bits would depend on the recording order,
// and every export must be byte-deterministic across schedules.

// HistSub is the number of linear sub-buckets per power-of-two octave:
// the histogram's relative resolution is 1/HistSub (~3.1%), and every
// quantile it reports is within half a bucket width of the exact
// statistic.
const HistSub = 32

// The tracked octave range: values in [2^histMinExp, 2^histMaxExp) are
// bucketed at full resolution — for seconds that spans ~1e-12 s to
// ~1.7e13 s, for byte counts 1e-12 B to 17 TB. Values at or below zero
// (and positive underflow) land in the dedicated bucket 0; overflow
// clamps into the top bucket. Min/Max stay exact either way. Bucket i >= 1
// lives in page (i-1)/HistSub, slot (i-1)%HistSub.
const (
	histMinExp  = -40
	histMaxExp  = 44
	histOctaves = histMaxExp - histMinExp
	histBuckets = histOctaves * HistSub
)

// HistQuantiles is the canonical percentile set every export carries.
var HistQuantiles = [...]float64{0.50, 0.90, 0.95, 0.99, 0.999}

// HistQuantileLabels names HistQuantiles as the exports and runreport do.
var HistQuantileLabels = [...]string{"p50", "p90", "p95", "p99", "p999"}

// histPage holds the bucket counts of one octave.
type histPage [HistSub]atomic.Int64

// Hist is one streaming histogram. Create with NewHist or through a
// HistSet; the zero value is not usable (min/max need seeding).
type Hist struct {
	name  string
	count atomic.Int64
	min   atomic.Uint64 // float64 bits, +Inf when empty
	max   atomic.Uint64 // float64 bits, -Inf when empty
	zero  atomic.Int64  // bucket 0: zero, negative and underflowing values
	// pages holds one octave each, allocated by CAS on its first value;
	// a missing page reads as zeros.
	pages [histOctaves]atomic.Pointer[histPage]
}

// NewHist returns an empty histogram.
func NewHist(name string) *Hist {
	h := &Hist{name: name}
	h.min.Store(math.Float64bits(math.Inf(1)))
	h.max.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// histBucketIndex maps a value to its bucket.
func histBucketIndex(v float64) int {
	if !(v > 0) { // catches <= 0 and NaN
		return 0
	}
	frac, exp := math.Frexp(v) // v = frac * 2^exp, frac in [0.5, 1)
	if exp <= histMinExp {
		return 0
	}
	if exp > histMaxExp {
		return histBuckets
	}
	sub := int((frac - 0.5) * 2 * HistSub)
	if sub >= HistSub { // guard the frac == nextafter(1, 0) edge
		sub = HistSub - 1
	}
	return (exp-histMinExp-1)*HistSub + sub + 1
}

// histBucketMid returns the representative value (arithmetic midpoint) of
// a bucket. Bucket 0 (zero/underflow) is represented by 0.
func histBucketMid(idx int) float64 {
	if idx <= 0 {
		return 0
	}
	i := idx - 1
	e := histMinExp + 1 + i/HistSub
	sub := i % HistSub
	lo := math.Ldexp(1+float64(sub)/HistSub, e-1)
	hi := math.Ldexp(1+float64(sub+1)/HistSub, e-1)
	return (lo + hi) / 2
}

// histBucketUpper returns a bucket's exclusive upper edge. Only the
// bucket-edge tests call it: it is their oracle for histBucketIndex.
func histBucketUpper(idx int) float64 {
	if idx <= 0 {
		return math.Ldexp(1, histMinExp)
	}
	i := idx - 1
	e := histMinExp + 1 + i/HistSub
	sub := i % HistSub
	return math.Ldexp(1+float64(sub+1)/HistSub, e-1)
}

// atomicMinFloat lowers the stored float to v if smaller.
func atomicMinFloat(u *atomic.Uint64, v float64) {
	for {
		old := u.Load()
		if math.Float64frombits(old) <= v {
			return
		}
		if u.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// atomicMaxFloat raises the stored float to v if larger.
func atomicMaxFloat(u *atomic.Uint64, v float64) {
	for {
		old := u.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if u.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// bucket returns the counter of bucket idx, allocating its octave's page
// if no value has landed there yet.
func (h *Hist) bucket(idx int) *atomic.Int64 {
	if idx == 0 {
		return &h.zero
	}
	slot := &h.pages[(idx-1)/HistSub]
	pg := slot.Load()
	if pg == nil {
		pg = new(histPage)
		if !slot.CompareAndSwap(nil, pg) {
			pg = slot.Load()
		}
	}
	return &pg[(idx-1)%HistSub]
}

// scan calls fn with the index and count of every non-empty bucket, in
// index order, until fn returns false. Missing pages read as zeros.
func (h *Hist) scan(fn func(idx int, count int64) bool) {
	if c := h.zero.Load(); c != 0 && !fn(0, c) {
		return
	}
	for o := range h.pages {
		pg := h.pages[o].Load()
		if pg == nil {
			continue
		}
		for s := range pg {
			if c := pg[s].Load(); c != 0 && !fn(1+o*HistSub+s, c) {
				return
			}
		}
	}
}

// Record adds one observation. Non-finite values (NaN, ±Inf) carry no
// latency and are ignored. It allocates only the first time a value lands
// in an octave (one page of HistSub counters) and is safe for concurrent
// use.
func (h *Hist) Record(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	h.bucket(histBucketIndex(v)).Add(1)
	h.count.Add(1)
	atomicMinFloat(&h.min, v)
	atomicMaxFloat(&h.max, v)
}

// Count reports the number of recorded observations.
func (h *Hist) Count() int64 { return h.count.Load() }

// Min reports the smallest recorded value (0 when empty).
func (h *Hist) Min() float64 {
	if h.count.Load() == 0 {
		return 0
	}
	return math.Float64frombits(h.min.Load())
}

// Max reports the largest recorded value (0 when empty).
func (h *Hist) Max() float64 {
	if h.count.Load() == 0 {
		return 0
	}
	return math.Float64frombits(h.max.Load())
}

// Quantile returns the q-th quantile (0 <= q <= 1) as the midpoint of the
// bucket holding that rank, clamped into [Min, Max]; 0 when empty. The
// result is within the bucket's width — at most a 1/HistSub relative
// error — of the exact order statistic.
func (h *Hist) Quantile(q float64) float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(n)))
	if rank <= 1 {
		return h.Min() // p0 and the first rank are the exact minimum
	}
	if rank >= n {
		return h.Max() // p100 is the exact maximum
	}
	var cum int64
	at := -1
	h.scan(func(idx int, c int64) bool {
		cum += c
		if cum < rank {
			return true
		}
		at = idx
		return false
	})
	if at < 0 {
		return h.Max()
	}
	v := histBucketMid(at)
	if min := h.Min(); v < min {
		v = min
	}
	if max := h.Max(); v > max {
		v = max
	}
	return v
}

// HistSummary is one histogram's canonical export row.
type HistSummary struct {
	Name      string
	Count     int64
	Min, Max  float64
	Quantiles [len(HistQuantiles)]float64
}

// Summary snapshots the histogram's canonical export values.
func (h *Hist) Summary() HistSummary {
	s := HistSummary{Name: h.name, Count: h.Count(), Min: h.Min(), Max: h.Max()}
	for i, q := range HistQuantiles {
		s.Quantiles[i] = h.Quantile(q)
	}
	return s
}

// HistSet is a collection of named histograms. Hist is get-or-create, so
// independent components (endpoints created across sweep jobs) share an
// instrument by agreeing on its name — recording then merges for free.
// Lookup is mutex-guarded; hot paths bind once and keep the pointer.
type HistSet struct {
	headed
	mu    sync.Mutex
	hists map[string]*Hist
}

// NewHistSet returns an empty set.
func NewHistSet() *HistSet {
	return &HistSet{hists: make(map[string]*Hist)}
}

// Hist returns the histogram registered under name, creating it on first
// use.
func (hs *HistSet) Hist(name string) *Hist {
	hs.mu.Lock()
	defer hs.mu.Unlock()
	h, ok := hs.hists[name]
	if !ok {
		h = NewHist(name)
		hs.hists[name] = h
	}
	return h
}

// Hists returns the registered histograms sorted by name — the canonical,
// byte-comparable order.
func (hs *HistSet) Hists() []*Hist {
	hs.mu.Lock()
	out := make([]*Hist, 0, len(hs.hists))
	for _, h := range hs.hists {
		out = append(out, h)
	}
	hs.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// WriteTSV renders every histogram as one row of
//
//	name\tcount\tmin\tmax\tp50\tp90\tp95\tp99\tp999
//
// after a "#"-prefixed header, sorted by name. All values derive from
// integer bucket counts and exact min/max, so the output is
// byte-identical across runs and worker counts.
func (hs *HistSet) WriteTSV(w io.Writer) error {
	rw := newRecordWriter(w, []byte("# hist\tcount\tmin\tmax\tp50\tp90\tp95\tp99\tp999\n"))
	for _, h := range hs.Hists() {
		s := h.Summary()
		b := append(rw.buf, s.Name...)
		b = append(b, '\t')
		b = strconv.AppendInt(b, s.Count, 10)
		b = append(b, '\t')
		b = strconv.AppendFloat(b, s.Min, 'g', -1, 64)
		b = append(b, '\t')
		b = strconv.AppendFloat(b, s.Max, 'g', -1, 64)
		for _, q := range s.Quantiles {
			b = append(b, '\t')
			b = strconv.AppendFloat(b, q, 'g', -1, 64)
		}
		rw.write(append(b, '\n'))
	}
	return rw.flush()
}

// WriteJSONL renders every histogram as one JSON object per line:
//
//	{"hist":"fct_s","count":42,"min":1e-05,"max":0.3,"p50":...,"p90":...,"p95":...,"p99":...,"p999":...}
//
// in name order with shortest round-trip floats — byte-identical across
// identical runs and worker counts — behind the header, when one is set
// (SetHeader). ReadHists reads it back.
func (hs *HistSet) WriteJSONL(w io.Writer) error {
	rw := newRecordWriter(w, hs.headerLine())
	for _, h := range hs.Hists() {
		s := h.Summary()
		b := append(rw.buf, `{"hist":`...)
		b = strconv.AppendQuote(b, s.Name)
		b = append(b, `,"count":`...)
		b = strconv.AppendInt(b, s.Count, 10)
		b = append(b, `,"min":`...)
		b = strconv.AppendFloat(b, s.Min, 'g', -1, 64)
		b = append(b, `,"max":`...)
		b = strconv.AppendFloat(b, s.Max, 'g', -1, 64)
		for i, q := range s.Quantiles {
			b = append(b, `,"`...)
			b = append(b, HistQuantileLabels[i]...)
			b = append(b, `":`...)
			b = strconv.AppendFloat(b, q, 'g', -1, 64)
		}
		rw.write(append(b, '}', '\n'))
	}
	return rw.flush()
}
