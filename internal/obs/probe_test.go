package obs

import (
	"strings"
	"testing"

	"ecndelay/internal/des"
)

func TestProbeRingWrap(t *testing.T) {
	p := NewProbe("q", 4)
	for i := 0; i < 6; i++ {
		p.Record(float64(i), float64(i*10))
	}
	if p.Len() != 4 {
		t.Fatalf("Len = %d, want 4", p.Len())
	}
	if p.Dropped() != 2 {
		t.Fatalf("Dropped = %d, want 2", p.Dropped())
	}
	s := p.Samples()
	for i, want := range []float64{2, 3, 4, 5} {
		if s[i].T != want || s[i].V != want*10 {
			t.Errorf("sample %d = %+v, want {T:%g V:%g}", i, s[i], want, want*10)
		}
	}
}

func TestProbeRecordAllocFree(t *testing.T) {
	p := NewProbe("q", 64)
	var x float64
	if n := testing.AllocsPerRun(1000, func() {
		p.Record(x, x*2)
		x++
	}); n != 0 {
		t.Fatalf("Record allocates %.1f per op, want 0", n)
	}
}

func TestProbeDriveCadence(t *testing.T) {
	sim := des.New()
	p := NewProbe("clock", 0)
	var calls int
	tick := p.Drive(sim, des.Millisecond, func() float64 {
		calls++
		return float64(calls)
	})
	sim.RunUntil(des.Time(10*des.Millisecond + des.Microsecond))
	tick.Stop()
	// First sample lands one interval in: t = 1ms .. 10ms inclusive.
	if calls != 10 || p.Len() != 10 {
		t.Fatalf("calls=%d len=%d, want 10", calls, p.Len())
	}
	s := p.Samples()
	if s[0].T != 0.001 || s[9].T != 0.010 {
		t.Errorf("sample times [%g .. %g], want [0.001 .. 0.010]", s[0].T, s[9].T)
	}
	// Stopping the ticker stops sampling.
	sim.RunUntil(des.Time(20 * des.Millisecond))
	if p.Len() != 10 {
		t.Errorf("probe kept sampling after Stop: len=%d", p.Len())
	}
}

func TestProbeDriveRejectsBadCadence(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Drive accepted a non-positive cadence")
		}
	}()
	NewProbe("x", 0).Drive(des.New(), 0, func() float64 { return 0 })
}

func TestProbeSetCanonicalExport(t *testing.T) {
	ps := NewProbeSet()
	b := ps.NewProbe("beta", 0)
	a := ps.NewProbe("alpha", 0)
	b.Record(0.25, 2)
	a.Record(0.5, 1e-9)
	a.Record(0.75, 3)

	var jsonl strings.Builder
	if err := ps.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	wantJSONL := `{"probe":"alpha","t":0.5,"v":1e-09}
{"probe":"alpha","t":0.75,"v":3}
{"probe":"beta","t":0.25,"v":2}
`
	if jsonl.String() != wantJSONL {
		t.Errorf("JSONL:\n%s\nwant:\n%s", jsonl.String(), wantJSONL)
	}
}

func TestProbeOverflowExportsDropped(t *testing.T) {
	// A probe whose ring wrapped must say so in the canonical export: the
	// trailing {"probe":...,"dropped":N} record. A probe that never
	// wrapped must not emit one.
	ps := NewProbeSet()
	full := ps.NewProbe("wrapped", 2)
	ok := ps.NewProbe("whole", 8)
	for i := 0; i < 5; i++ {
		full.Record(float64(i), float64(i))
		ok.Record(float64(i), float64(i))
	}
	var sb strings.Builder
	if err := ps.WriteJSONL(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `{"probe":"wrapped","dropped":3}`) {
		t.Errorf("missing dropped record:\n%s", out)
	}
	if strings.Contains(out, `{"probe":"whole","dropped"`) {
		t.Errorf("unwrapped probe must not export a dropped record:\n%s", out)
	}
	// The dropped record follows its probe's own samples.
	di := strings.Index(out, `"dropped"`)
	li := strings.LastIndex(out, `{"probe":"wrapped","t"`)
	if di < li {
		t.Errorf("dropped record must follow its probe's samples:\n%s", out)
	}
}

func TestProbeConcurrentReadDuringRecord(t *testing.T) {
	// A reader may snapshot a probe while the run records; under -race
	// this pins the ring as data-race free.
	p := NewProbe("live", 128)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 5000; i++ {
			p.Record(float64(i), float64(i))
		}
	}()
	for {
		s := p.Samples()
		for i := 1; i < len(s); i++ {
			if s[i].T < s[i-1].T {
				t.Fatalf("snapshot out of order at %d: %v then %v", i, s[i-1], s[i])
			}
		}
		_ = p.Len()
		_ = p.Dropped()
		select {
		case <-done:
			if p.Len() != 128 || p.Dropped() != 5000-128 {
				t.Fatalf("final len=%d dropped=%d", p.Len(), p.Dropped())
			}
			return
		default:
		}
	}
}

func TestProbeSetDuplicateNamesStable(t *testing.T) {
	// Two probes under the same name (e.g. two sequential RunFCT calls
	// sharing an observer) export in insertion order, stably.
	ps := NewProbeSet()
	first := ps.NewProbe("queue_bytes", 0)
	second := ps.NewProbe("queue_bytes", 0)
	first.Record(0.1, 1)
	second.Record(0.2, 2)
	var sb strings.Builder
	if err := ps.WriteJSONL(&sb); err != nil {
		t.Fatal(err)
	}
	want := `{"probe":"queue_bytes","t":0.1,"v":1}
{"probe":"queue_bytes","t":0.2,"v":2}
`
	if sb.String() != want {
		t.Errorf("JSONL:\n%s\nwant:\n%s", sb.String(), want)
	}
}
