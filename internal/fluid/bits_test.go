package fluid

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"ecndelay/internal/ode"
)

// trajectoryDigest integrates m for 2 ms at h = 1 µs and hashes the bits of
// every recorded time and state component.
func trajectoryDigest(m Model) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, s := range Run(m, 1e-6, 2e-3, 1e-6) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(s.T))
		h.Write(buf[:])
		for _, v := range s.Y {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

// TestDCQCNTrajectoryBits pins the DCQCN fluid trajectories (Fig. 4 at
// N = 10, τ* = 85 µs, unequal starts) to the bit, with each model option
// and with PI marking, so a rewrite of the Eq. 5-7/12 right-hand side that
// moves a rounding fails here. The digests were recorded on linux/amd64;
// architectures that fuse multiply-adds may round differently.
func TestDCQCNTrajectoryBits(t *testing.T) {
	base := func() DCQCNConfig {
		p := DefaultDCQCNParams(10)
		p.TauStar = 85e-6
		rates := make([]float64, p.N)
		for i := range rates {
			rates[i] = p.C * float64(i+1) / float64(p.N)
		}
		return DCQCNConfig{Params: p, InitialRC: rates}
	}
	for _, c := range []struct {
		name  string
		build func() (Model, error)
		want  uint64
	}{
		{"dcqcn", func() (Model, error) { return NewDCQCN(base()) }, 0x665b4d2be15ae223},
		{"strict_red", func() (Model, error) {
			cfg := base()
			cfg.StrictRED = true
			return NewDCQCN(cfg)
		}, 0x5b66a8b7200ec17e},
		{"ingress", func() (Model, error) {
			cfg := base()
			cfg.IngressMarking = true
			return NewDCQCN(cfg)
		}, 0x6d906df12694e06d},
		{"jitter", func() (Model, error) {
			cfg := base()
			cfg.JitterMax = 20e-6
			cfg.Seed = 7
			return NewDCQCN(cfg)
		}, 0x2b3741a8743386c7},
		{"pi", func() (Model, error) { return NewDCQCNPI(DCQCNPIConfig{DCQCN: base()}) }, 0x882ec1296487e0e},
	} {
		m, err := c.build()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := trajectoryDigest(m); got != c.want {
			t.Errorf("%s: trajectory digest %#x, want %#x", c.name, got, c.want)
		}
	}
}

// lookupWatch stands between a model and the solver's history and records
// the latest time at which the model read the queue (component 0).
type lookupWatch struct {
	past   ode.History
	latest float64
}

func (w *lookupWatch) Value(tq float64, idx int) float64 {
	if idx == 0 {
		w.saw(tq)
	}
	return w.past.Value(tq, idx)
}

func (w *lookupWatch) State(tq float64, dst []float64) {
	w.saw(tq)
	w.past.State(tq, dst)
}

func (w *lookupWatch) saw(tq float64) {
	if tq > w.latest {
		w.latest = tq
	}
}

// watchedModel hands the model a lookupWatch in place of the solver's
// history and forwards PostStep, so the trajectory is the model's own.
type watchedModel struct {
	Model
	watch lookupWatch
}

func (m *watchedModel) Derivs(t float64, y []float64, past ode.History, dydt []float64) {
	m.watch.past = past
	m.Model.Derivs(t, y, &m.watch, dydt)
}

func (m *watchedModel) PostStep(t float64, y []float64) {
	m.Model.(ode.PostStepper).PostStep(t, y)
}

// TestTimelyTrajectoryBits pins the TIMELY fluid trajectories (original,
// patched and with the end-host PI controller) to the bit, with and
// without feedback jitter and with one late flow, so a rewrite of the
// Eq. 21-24/29 right-hand side or of the history ring that moves a
// rounding fails here. The start rates sum to 1.5 C: while ΣR > 2C the
// lookup time t − τ'(t) runs backward and every delayed queue read
// returns the initial history, so the test also checks that the model
// read stored history, not only the initial state. The digests were
// recorded on linux/amd64.
func TestTimelyTrajectoryBits(t *testing.T) {
	const n = 4
	cfg := func(patched bool, jitter float64, late bool) TimelyConfig {
		c := DefaultTimelyConfig(n)
		if patched {
			c = DefaultPatchedTimelyConfig(n)
		}
		c.InitialRates = []float64{0.2 * c.C, 0.3 * c.C, 0.4 * c.C, 0.6 * c.C}
		c.JitterMax = jitter
		c.Seed = 7
		if late {
			// Flow 0 starts last, so the first active flow of a call is
			// not always flow 0.
			c.StartTimes = []float64{0.5e-3, 0, 0, 0}
		}
		return c
	}
	for _, c := range []struct {
		name  string
		build func() (Model, error)
		want  uint64
	}{
		{"timely", func() (Model, error) { return NewTimely(cfg(false, 0, false)) }, 0x7a5a464a5188d3b7},
		{"timely_jitter", func() (Model, error) { return NewTimely(cfg(false, 20e-6, false)) }, 0x81700c9b4d7ec40c},
		{"patched", func() (Model, error) { return NewPatchedTimely(cfg(true, 0, false)) }, 0x86bd0241f5c1c81c},
		{"patched_jitter", func() (Model, error) { return NewPatchedTimely(cfg(true, 20e-6, false)) }, 0x65db832247ceb74a},
		{"patched_late", func() (Model, error) { return NewPatchedTimely(cfg(true, 0, true)) }, 0x88db42e529cd2c94},
		{"timelypi", func() (Model, error) { return NewTimelyPI(TimelyPIConfig{Timely: cfg(true, 0, false)}) }, 0xfa0ec295bc967456},
		{"timelypi_jitter", func() (Model, error) {
			return NewTimelyPI(TimelyPIConfig{Timely: cfg(true, 20e-6, false)})
		}, 0x91cf217c937c2a87},
		{"timelypi_late", func() (Model, error) { return NewTimelyPI(TimelyPIConfig{Timely: cfg(true, 0, true)}) }, 0x2511ac22782827e2},
	} {
		m, err := c.build()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		w := &watchedModel{Model: m}
		got := trajectoryDigest(w)
		if got != c.want {
			t.Errorf("%s: trajectory digest %#x, want %#x", c.name, got, c.want)
		}
		if w.watch.latest <= 0 {
			t.Errorf("%s: latest queue lookup at t = %g, want one after t = 0", c.name, w.watch.latest)
		}
	}
}

// TestDelayedCoversEveryRead requires every model's Delayed to list every
// component its right-hand side reads from the history: a 2 ms run at
// h = 1 µs whose ring stores only those components must give every step
// the bits of the run whose ring stores the whole state. A missing
// component fails here, as a changed trajectory or, for a Value read, as
// the solver's panic. The TIMELY start rates sum to 1.5 C, so the lookup
// time t − τ' advances and the runs read stored history, not only the
// initial row; each run must read the queue after t = 0.
func TestDelayedCoversEveryRead(t *testing.T) {
	dcqcn := func(edit func(*DCQCNConfig)) DCQCNConfig {
		p := DefaultDCQCNParams(4)
		p.TauStar = 85e-6
		cfg := DCQCNConfig{Params: p, InitialRC: []float64{0.4 * p.C, 0.6 * p.C, 0.8 * p.C, p.C}}
		if edit != nil {
			edit(&cfg)
		}
		return cfg
	}
	timely := func(patched bool, jitter float64, staggered bool) TimelyConfig {
		c := DefaultTimelyConfig(4)
		if patched {
			c = DefaultPatchedTimelyConfig(4)
		}
		c.InitialRates = []float64{0.2 * c.C, 0.3 * c.C, 0.4 * c.C, 0.6 * c.C}
		c.JitterMax = jitter
		c.Seed = 7
		if staggered {
			c.StartTimes = []float64{0, 0.4e-3, 0.8e-3, 1.2e-3}
		}
		return c
	}
	for _, c := range []struct {
		name  string
		build func() (Model, error)
	}{
		{"dcqcn", func() (Model, error) { return NewDCQCN(dcqcn(nil)) }},
		{"dcqcn ingress", func() (Model, error) {
			return NewDCQCN(dcqcn(func(c *DCQCNConfig) { c.IngressMarking = true }))
		}},
		{"dcqcn strict RED", func() (Model, error) {
			return NewDCQCN(dcqcn(func(c *DCQCNConfig) { c.StrictRED = true }))
		}},
		{"dcqcn jitter", func() (Model, error) {
			return NewDCQCN(dcqcn(func(c *DCQCNConfig) { c.JitterMax, c.Seed = 20e-6, 7 }))
		}},
		{"dcqcnpi", func() (Model, error) { return NewDCQCNPI(DCQCNPIConfig{DCQCN: dcqcn(nil)}) }},
		{"timely staggered", func() (Model, error) { return NewTimely(timely(false, 0, true)) }},
		{"patched", func() (Model, error) { return NewPatchedTimely(timely(true, 0, false)) }},
		{"timelypi jitter", func() (Model, error) {
			return NewTimelyPI(TimelyPIConfig{Timely: timely(true, 20e-6, false)})
		}},
	} {
		// run integrates a fresh model, whose history stores the
		// components its Delayed lists, or every component when all is
		// set, and returns the bits of every step's time and state.
		dim := 0
		run := func(all bool) (bits []uint64, latest float64) {
			m, err := c.build()
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			dim = m.Dim()
			w := &watchedModel{Model: m}
			s := &ode.Solver{Sys: w, H: 1e-6, MaxDelay: m.MaxDelay(), Delayed: m.Delayed(), Y0: m.Initial()}
			if all {
				s.Delayed = nil
			}
			s.Integrate(0, 2e-3, func(t float64, y []float64) {
				bits = append(bits, math.Float64bits(t))
				for _, v := range y {
					bits = append(bits, math.Float64bits(v))
				}
			})
			return bits, w.watch.latest
		}
		want, _ := run(true)
		got, latest := run(false)
		if len(got) != len(want) {
			t.Fatalf("%s: %d values recorded, want %d", c.name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: step %d differs from the run that stores every component (value %d of the step)",
					c.name, i/(1+dim), i%(1+dim))
				break
			}
		}
		if latest <= 0 {
			t.Errorf("%s: latest queue lookup at t = %g, want one after t = 0", c.name, latest)
		}
	}
}
