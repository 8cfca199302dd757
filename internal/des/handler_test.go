package des

import (
	"testing"
)

// recorder is a test Handler that logs firing times and can chain itself.
type recorder struct {
	sim   *Simulator
	times []Time
	left  int      // remaining self-reschedules
	gap   Duration // reschedule gap
}

func (r *recorder) OnEvent(arg any) {
	r.times = append(r.times, r.sim.Now())
	if r.left > 0 {
		r.left--
		r.sim.ScheduleHandler(r.gap, r, arg)
	}
}

func TestScheduleHandlerOrdering(t *testing.T) {
	s := New()
	var order []int
	h := handlerFunc(func(arg any) { order = append(order, arg.(int)) })
	s.ScheduleHandler(30, h, 3)
	s.Schedule(10, func() { order = append(order, 1) }) // closure API interleaves
	s.ScheduleHandler(20, h, 2)
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// handlerFunc adapts a func to Handler for tests.
type handlerFunc func(arg any)

func (f handlerFunc) OnEvent(arg any) { f(arg) }

// Caller-minted keys beat simulator-counter keys deterministically: at an
// equal (time, sub) instant, the explicit seq decides the order no matter
// which call was issued first. The sub key ranks above seq: node-minted
// seqs do not increase with schedule time, so an event scheduled later
// with a smaller seq must still fire after one scheduled earlier for the
// same instant.
func TestAtHandlerSeqOrdersTies(t *testing.T) {
	s := New()
	var got []int
	h := handlerFunc(func(arg any) { got = append(got, arg.(int)) })
	s.AtHandlerSeq(10, 500, h, 2)
	s.AtHandlerSeq(10, 100, h, 1)
	s.ScheduleHandlerSeq(10, 900, h, 3)
	s.RunUntil(10)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("fired order %v, want [1 2 3]", got)
	}

	got = got[:0]
	s.AtHandlerSeq(30, 500, h, 1) // scheduled at t=10
	s.RunUntil(20)
	s.AtHandlerSeq(30, 100, h, 2) // scheduled at t=20 with a smaller seq
	s.RunUntil(30)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("fired order %v, want [1 2]: the earlier-scheduled event fires first", got)
	}
}

func TestHandlerSelfReschedule(t *testing.T) {
	s := New()
	r := &recorder{sim: s, left: 4, gap: 10}
	s.ScheduleHandler(5, r, nil)
	s.Run()
	want := []Time{5, 15, 25, 35, 45}
	if len(r.times) != len(want) {
		t.Fatalf("fired %v, want %v", r.times, want)
	}
	for i := range want {
		if r.times[i] != want[i] {
			t.Fatalf("fired %v, want %v", r.times, want)
		}
	}
	if s.FreeEvents() == 0 {
		t.Error("no events returned to the free list after the run")
	}
}

func TestEventRefCancel(t *testing.T) {
	s := New()
	fired := 0
	h := handlerFunc(func(any) { fired++ })
	ref := s.ScheduleHandler(10, h, nil)
	if !ref.Pending() {
		t.Error("Pending() = false for a queued event")
	}
	ref.Cancel()
	if ref.Pending() {
		t.Error("Pending() = true after Cancel")
	}
	if s.Pending() != 0 {
		t.Errorf("Pending = %d after Cancel, want 0 (eager removal)", s.Pending())
	}
	ref.Cancel() // double cancel must be a no-op
	s.Run()
	if fired != 0 {
		t.Error("cancelled handler event fired")
	}
}

func TestEventRefCancelAfterFire(t *testing.T) {
	s := New()
	fired := 0
	h := handlerFunc(func(any) { fired++ })
	ref := s.ScheduleHandler(10, h, nil)
	s.Run()
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	ref.Cancel() // stale: must not touch the recycled event
	// The recycled struct now backs a new event; the stale ref must not
	// cancel it.
	ref2 := s.ScheduleHandler(10, h, nil)
	ref.Cancel()
	if !ref2.Pending() {
		t.Error("stale ref cancelled an unrelated recycled event")
	}
	s.Run()
	if fired != 2 {
		t.Errorf("fired = %d, want 2", fired)
	}
}

func TestEventRefZeroValue(t *testing.T) {
	var ref EventRef
	ref.Cancel() // must not panic
	if ref.Pending() {
		t.Error("zero EventRef reports Pending")
	}
}

// Cancelling the firing event from inside its own handler is a no-op: the
// ref went stale the moment the event was dispatched.
func TestCancelInsideOwnHandler(t *testing.T) {
	s := New()
	fired := 0
	var ref EventRef
	h := handlerFunc(func(any) {
		fired++
		ref.Cancel()
	})
	ref = s.ScheduleHandler(10, h, nil)
	s.Run()
	if fired != 1 {
		t.Errorf("fired = %d, want 1", fired)
	}
}

// An event cancelling a later handler event from inside a handler.
func TestCancelOtherFromHandler(t *testing.T) {
	s := New()
	fired := 0
	h := handlerFunc(func(any) { fired++ })
	victim := s.ScheduleHandler(20, h, nil)
	s.ScheduleHandler(10, handlerFunc(func(any) { victim.Cancel() }), nil)
	s.Run()
	if fired != 0 {
		t.Error("event fired despite being cancelled by an earlier handler event")
	}
}

// Satellite: closure-API Cancel removes the event from the heap immediately
// instead of letting it linger until its fire time.
func TestClosureCancelRemovesEagerly(t *testing.T) {
	s := New()
	var evs []*Event
	for i := 0; i < 100; i++ {
		evs = append(evs, s.Schedule(Duration(1000+i), func() {}))
	}
	for _, e := range evs {
		e.Cancel()
		e.Cancel() // double Cancel is safe
	}
	if s.Pending() != 0 {
		t.Errorf("Pending = %d after cancelling all, want 0", s.Pending())
	}
	if n := s.RunUntil(10000); n != 0 {
		t.Errorf("fired %d cancelled events", n)
	}
}

func TestClosureCancelAfterFire(t *testing.T) {
	s := New()
	e := s.Schedule(10, func() {})
	s.Run()
	e.Cancel() // after fire: marks cancelled, no heap op, no panic
	if !e.Cancelled() {
		t.Error("Cancelled() = false after cancel-after-fire")
	}
	// The queue must still work.
	fired := false
	s.Schedule(10, func() { fired = true })
	s.Run()
	if !fired {
		t.Error("follow-up event did not fire")
	}
}

// Stopping a ticker from within its own fire callback must stick even
// though the firing event is already being dispatched.
func TestTickerStopInsideFire(t *testing.T) {
	s := New()
	count := 0
	var tk *Ticker
	tk = s.Every(5, 10, func() {
		count++
		tk.Stop()
	})
	s.Run()
	if count != 1 {
		t.Errorf("ticker fired %d times after Stop inside fire, want 1", count)
	}
	if s.Pending() != 0 {
		t.Errorf("Pending = %d after ticker stop, want 0", s.Pending())
	}
}

// Mixing cancel and reschedule must keep the pool consistent: events fire
// exactly once, in order, for long cancel-heavy runs.
func TestPooledCancelRescheduleChurn(t *testing.T) {
	s := New()
	fired := 0
	h := handlerFunc(func(any) { fired++ })
	var live []EventRef
	for round := 0; round < 1000; round++ {
		live = append(live, s.ScheduleHandler(Duration(10+round%7), h, nil))
		if round%3 == 0 && len(live) > 0 {
			live[0].Cancel()
			live = live[1:]
		}
		if round%11 == 0 {
			s.RunUntil(s.Now() + 5)
		}
	}
	s.Run()
	// 1000 scheduled; ~334 cancelled (but some may have fired before their
	// cancel — Cancel is then a stale no-op). The invariant is no double
	// fire and no lost live event: fired + still-pending-cancels == 1000.
	if fired > 1000 || fired < 600 {
		t.Errorf("fired = %d, outside plausible [600,1000]", fired)
	}
	if s.Pending() != 0 {
		t.Errorf("Pending = %d at end, want 0", s.Pending())
	}
}

// Alloc-regression gate: the handler path must not allocate in steady state.
// Covers ScheduleHandler/fire/recycle, cancel/recycle, and ticker ticks.
func TestHandlerPathAllocFree(t *testing.T) {
	s := New()
	h := handlerFunc(func(any) {})
	drive := func() {
		for i := 0; i < 64; i++ {
			s.ScheduleHandler(Duration(i%9), h, i%4)
		}
		ref := s.ScheduleHandler(1000, h, nil)
		ref.Cancel()
		s.Run()
	}
	drive() // warm the free list
	if allocs := testing.AllocsPerRun(50, drive); allocs != 0 {
		t.Errorf("handler event path allocates %.1f allocs/run, want 0", allocs)
	}
}

func TestTickerAllocFree(t *testing.T) {
	s := New()
	ticks := 0
	tk := s.Every(0, 10, func() { ticks++ })
	s.RunUntil(1000) // warm up
	drive := func() { s.RunUntil(s.Now() + 1000) }
	if allocs := testing.AllocsPerRun(50, drive); allocs != 0 {
		t.Errorf("ticker path allocates %.1f allocs/run, want 0", allocs)
	}
	tk.Stop()
	if ticks == 0 {
		t.Fatal("ticker never fired")
	}
}

// chainHandler self-reschedules until its budget runs out, counting fires.
type chainHandler struct {
	sim  *Simulator
	n    int
	left int
}

func (h *chainHandler) OnEvent(any) {
	h.n++
	if h.left > 0 {
		h.left--
		h.sim.ScheduleHandler(1, h, nil)
	}
}

// BenchmarkHandlerEvents measures raw DES throughput on the pooled handler
// path: one self-rescheduling event per iteration (events/sec = 1e9/ns_op).
func BenchmarkHandlerEvents(b *testing.B) {
	s := New()
	h := &chainHandler{sim: s, left: b.N - 1}
	s.ScheduleHandler(0, h, nil)
	b.ReportAllocs()
	b.ResetTimer()
	s.Run()
	if h.n != b.N {
		b.Fatalf("fired %d, want %d", h.n, b.N)
	}
}

// BenchmarkClosureEvents is the legacy closure path, for comparison.
func BenchmarkClosureEvents(b *testing.B) {
	s := New()
	n := 0
	var fn func()
	fn = func() {
		n++
		if n < b.N {
			s.Schedule(1, fn)
		}
	}
	s.Schedule(0, fn)
	b.ReportAllocs()
	b.ResetTimer()
	s.Run()
	if n != b.N {
		b.Fatalf("fired %d, want %d", n, b.N)
	}
}
