package obs

import (
	"io"
	"sort"
	"strconv"
	"sync"

	"ecndelay/internal/des"
)

// Sample is one recorded probe point: simulation time in seconds and the
// sampled value.
type Sample struct {
	T float64
	V float64
}

// Probe is a fixed-cadence time series in a preallocated ring buffer: once
// the buffer fills, the oldest samples are overwritten and counted, never
// silently lost. Recording never allocates. The ring is mutex-guarded so
// a reader can snapshot a probe while the run still records; an
// uncontended lock keeps the recording path allocation-free.
type Probe struct {
	name    string
	mu      sync.Mutex
	ring    []Sample
	head    int // next write position
	n       int // samples currently retained
	dropped int64
}

// DefaultProbeCap is the ring capacity used when callers pass cap <= 0:
// at the default 100 µs cadence it retains the last ~6.5 simulated seconds.
const DefaultProbeCap = 1 << 16

// NewProbe creates a probe with a preallocated ring of the given capacity
// (cap <= 0: DefaultProbeCap).
func NewProbe(name string, capacity int) *Probe {
	if capacity <= 0 {
		capacity = DefaultProbeCap
	}
	return &Probe{name: name, ring: make([]Sample, capacity)}
}

// Record appends one sample, overwriting the oldest when the ring is full.
func (p *Probe) Record(t, v float64) {
	p.mu.Lock()
	p.ring[p.head] = Sample{T: t, V: v}
	p.head++
	if p.head == len(p.ring) {
		p.head = 0
	}
	if p.n < len(p.ring) {
		p.n++
	} else {
		p.dropped++
	}
	p.mu.Unlock()
}

// Len reports the number of retained samples.
func (p *Probe) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.n
}

// Dropped reports samples overwritten because the ring wrapped.
func (p *Probe) Dropped() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.dropped
}

// Samples returns the retained samples in chronological order (a copy).
func (p *Probe) Samples() []Sample {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]Sample, 0, p.n)
	start := p.head - p.n
	if start < 0 {
		start += len(p.ring)
	}
	for i := 0; i < p.n; i++ {
		out = append(out, p.ring[(start+i)%len(p.ring)])
	}
	return out
}

// Drive samples fn every interval on the simulator clock, starting one
// interval in. The returned ticker stops the sampling.
func (p *Probe) Drive(sim *des.Simulator, every des.Duration, fn func() float64) *des.Ticker {
	if every <= 0 {
		panic("obs: non-positive probe cadence")
	}
	return sim.Every(sim.Now().Add(every), every, func() {
		p.Record(sim.Now().Seconds(), fn())
	})
}

// ProbeSet is a collection of probes with canonical export. Add is
// guarded so concurrent sweep jobs can share a set; export sorts probes
// by name (ties by insertion order), so a set whose probe names are
// deterministic exports byte-identically for any worker count.
type ProbeSet struct {
	headed
	mu     sync.Mutex
	probes []*Probe
}

// NewProbeSet returns an empty set.
func NewProbeSet() *ProbeSet { return &ProbeSet{} }

// Add registers a probe and returns it.
func (ps *ProbeSet) Add(p *Probe) *Probe {
	ps.mu.Lock()
	ps.probes = append(ps.probes, p)
	ps.mu.Unlock()
	return p
}

// NewProbe creates, registers, and returns a probe in one step.
func (ps *ProbeSet) NewProbe(name string, capacity int) *Probe {
	return ps.Add(NewProbe(name, capacity))
}

// Probes returns the registered probes sorted by name (stable on ties).
func (ps *ProbeSet) Probes() []*Probe {
	ps.mu.Lock()
	out := append([]*Probe(nil), ps.probes...)
	ps.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// WriteJSONL renders every probe as one JSON object per sample:
//
//	{"probe":"queue_bytes","t":0.0001,"v":20000}
//
// A probe whose ring wrapped additionally emits, after its samples, one
//
//	{"probe":"queue_bytes","dropped":123}
//
// record carrying the overwrite count, so consumers can tell a short
// series from a truncated one. When a Header is set (SetHeader) it is
// written first. Probes export in name order, samples
// chronologically, and floats in Go's shortest round-trip form —
// byte-identical across identical runs.
func (ps *ProbeSet) WriteJSONL(w io.Writer) error {
	rw := newRecordWriter(w, ps.headerLine())
	for _, p := range ps.Probes() {
		for _, s := range p.Samples() {
			b := append(rw.buf, `{"probe":`...)
			b = strconv.AppendQuote(b, p.name)
			b = append(b, `,"t":`...)
			b = strconv.AppendFloat(b, s.T, 'g', -1, 64)
			b = append(b, `,"v":`...)
			b = strconv.AppendFloat(b, s.V, 'g', -1, 64)
			rw.write(append(b, '}', '\n'))
		}
		if d := p.Dropped(); d > 0 {
			b := append(rw.buf, `{"probe":`...)
			b = strconv.AppendQuote(b, p.name)
			b = append(b, `,"dropped":`...)
			b = strconv.AppendInt(b, d, 10)
			rw.write(append(b, '}', '\n'))
		}
	}
	return rw.flush()
}
