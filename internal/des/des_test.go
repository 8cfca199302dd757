package des

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestTimeArithmetic(t *testing.T) {
	t0 := Time(1000)
	if got := t0.Add(500); got != Time(1500) {
		t.Errorf("Add: got %d, want 1500", got)
	}
	if got := Time(1500).Sub(t0); got != Duration(500) {
		t.Errorf("Sub: got %d, want 500", got)
	}
	if got := (2 * Millisecond).Seconds(); got != 0.002 {
		t.Errorf("Seconds: got %g, want 0.002", got)
	}
	if got := DurationFromSeconds(1e-6); got != Microsecond {
		t.Errorf("DurationFromSeconds: got %d, want %d", got, Microsecond)
	}
	if got := DurationFromSeconds(-1e-6); got != -Microsecond {
		t.Errorf("DurationFromSeconds negative: got %d, want %d", got, -Microsecond)
	}
}

func TestScheduleOrdering(t *testing.T) {
	s := New()
	var order []int
	s.Schedule(30, func() { order = append(order, 3) })
	s.Schedule(10, func() { order = append(order, 1) })
	s.Schedule(20, func() { order = append(order, 2) })
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if s.Now() != 30 {
		t.Errorf("final time = %v, want 30", s.Now())
	}
}

func TestFIFOTieBreak(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		s.Schedule(10, func() { order = append(order, i) })
	}
	s.Run()
	for i := range order {
		if order[i] != i {
			t.Fatalf("same-time events fired out of order at %d: %v", i, order[:i+1])
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New()
	var times []Time
	s.Schedule(5, func() {
		times = append(times, s.Now())
		s.Schedule(5, func() {
			times = append(times, s.Now())
		})
	})
	s.Run()
	if len(times) != 2 || times[0] != 5 || times[1] != 10 {
		t.Fatalf("times = %v, want [5 10]", times)
	}
}

func TestCancel(t *testing.T) {
	s := New()
	fired := false
	e := s.Schedule(10, func() { fired = true })
	e.Cancel()
	if e.Pending() {
		t.Error("Pending() = true after Cancel")
	}
	s.Run()
	if fired {
		t.Error("cancelled event fired")
	}
	if s.Processed() != 0 {
		t.Errorf("Processed = %d, want 0", s.Processed())
	}
}

func TestCancelFromEarlierEvent(t *testing.T) {
	s := New()
	fired := false
	e := s.Schedule(20, func() { fired = true })
	s.Schedule(10, func() { e.Cancel() })
	s.Run()
	if fired {
		t.Error("event fired despite being cancelled by an earlier event")
	}
}

func TestRunUntil(t *testing.T) {
	s := New()
	var fired []Time
	for _, d := range []Duration{10, 20, 30, 40} {
		d := d
		s.Schedule(d, func() { fired = append(fired, s.Now()) })
	}
	n := s.RunUntil(25)
	if n != 2 {
		t.Errorf("fired %d events, want 2", n)
	}
	if s.Now() != 25 {
		t.Errorf("Now = %v, want 25 (clock advances to horizon)", s.Now())
	}
	if s.Pending() != 2 {
		t.Errorf("Pending = %d, want 2", s.Pending())
	}
	s.RunUntil(100)
	if len(fired) != 4 {
		t.Errorf("total fired %d, want 4", len(fired))
	}
}

func TestStop(t *testing.T) {
	s := New()
	count := 0
	s.Schedule(10, func() { count++; s.Stop() })
	s.Schedule(20, func() { count++ })
	s.Run()
	if count != 1 {
		t.Errorf("count = %d, want 1 (Stop should halt the loop)", count)
	}
	// A fresh Run resumes.
	s.Run()
	if count != 2 {
		t.Errorf("count = %d after resume, want 2", count)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	s := New()
	s.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("At(past) did not panic")
			}
		}()
		s.At(5, func() {})
	})
	s.Run()
}

func TestNegativeDelayPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Error("Schedule(-1) did not panic")
		}
	}()
	s.Schedule(-1, func() {})
}

func TestTicker(t *testing.T) {
	s := New()
	var times []Time
	var tk *Ticker
	tk = s.Every(5, 10, func() {
		times = append(times, s.Now())
		if len(times) == 3 {
			tk.Stop()
		}
	})
	s.Run()
	want := []Time{5, 15, 25}
	if len(times) != len(want) {
		t.Fatalf("ticks = %v, want %v", times, want)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("ticks = %v, want %v", times, want)
		}
	}
}

func TestTickerStopBeforeFirstFire(t *testing.T) {
	s := New()
	count := 0
	tk := s.Every(5, 10, func() { count++ })
	tk.Stop()
	s.Run()
	if count != 0 {
		t.Errorf("stopped ticker fired %d times", count)
	}
}

// Property: events always fire in non-decreasing time order regardless of the
// insertion order, including events inserted while the simulation runs.
func TestPropertyMonotonicFiring(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) == 0 {
			return true
		}
		s := New()
		var fired []Time
		for _, d := range delays {
			s.Schedule(Duration(d), func() { fired = append(fired, s.Now()) })
		}
		s.Run()
		if len(fired) != len(delays) {
			return false
		}
		if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
			return false
		}
		// The set of firing times must equal the set of requested delays.
		want := make([]Time, len(delays))
		for i, d := range delays {
			want[i] = Time(d)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if fired[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: two simulators fed the same pseudo-random schedule fire the same
// number of events at the same final clock (determinism).
func TestPropertyDeterminism(t *testing.T) {
	run := func(seed int64) (uint64, Time) {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		var recurse func()
		n := 0
		recurse = func() {
			n++
			if n < 500 {
				s.Schedule(Duration(rng.Intn(100)), recurse)
				if rng.Intn(3) == 0 {
					s.Schedule(Duration(rng.Intn(100)), func() {})
				}
			}
		}
		s.Schedule(0, recurse)
		s.Run()
		return s.Processed(), s.Now()
	}
	for seed := int64(0); seed < 5; seed++ {
		n1, t1 := run(seed)
		n2, t2 := run(seed)
		if n1 != n2 || t1 != t2 {
			t.Fatalf("seed %d: run1=(%d,%v) run2=(%d,%v)", seed, n1, t1, n2, t2)
		}
	}
}

func BenchmarkScheduleRun(b *testing.B) {
	s := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Schedule(Duration(i%1000), func() {})
		if s.Pending() > 1024 {
			s.RunUntil(s.Now() + 500)
		}
	}
	s.Run()
}
