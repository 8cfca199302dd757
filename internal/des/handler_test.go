package des

import (
	"fmt"
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
	s.Schedule(10, func() { order = append(order, 1) }) // closures interleave
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

// A handler panic that the caller recovers outside Run leaves a sound
// queue: the fired event is gone, every other one is kept, and the next
// Run fires the rest in key order. The handler panics either before it
// schedules anything or after scheduling one event.
func TestHandlerPanicLeavesQueueIntact(t *testing.T) {
	for _, schedules := range []bool{false, true} {
		s := New()
		var got []int
		rec := handlerFunc(func(arg any) { got = append(got, arg.(int)) })
		boom := handlerFunc(func(any) {
			if schedules {
				s.ScheduleHandler(15, rec, 35)
			}
			panic("boom")
		})
		for _, at := range []int{70, 10, 50, 30, 80, 40, 60} {
			s.AtHandler(Time(at), rec, at)
		}
		boomRef := s.AtHandler(20, boom, nil)
		func() {
			defer func() {
				if r := recover(); r != "boom" {
					t.Fatalf("recovered %v, want the handler's panic", r)
				}
			}()
			s.Run()
		}()
		want := []int{10, 30, 40, 50, 60, 70, 80}
		if schedules {
			want = []int{10, 30, 35, 40, 50, 60, 70, 80}
		}
		if n := s.Pending(); n != len(want)-1 || boomRef.Pending() {
			t.Fatalf("schedules=%v: after the panic Pending() = %d (fired ref pending %v), want %d",
				schedules, n, boomRef.Pending(), len(want)-1)
		}
		s.Run()
		if fmt.Sprint(got) != fmt.Sprint(want) || s.Pending() != 0 {
			t.Errorf("schedules=%v: fired %v with %d left, want %v", schedules, got, s.Pending(), want)
		}
	}
}

// The lane policy: a delay takes the lane that holds it, else an empty
// lane, which then holds it; with every lane holding another delay and
// busy, the event goes to the heap. Same-instant events minted in
// descending order are inserted from the tail, also across the ring's wrap
// and growth, and everything fires in (time, sub, seq) order.
func TestFixedLanePolicy(t *testing.T) {
	s := New()
	var got []int
	rec := handlerFunc(func(arg any) { got = append(got, arg.(int)) })
	for k := 1; k <= numLanes+1; k++ {
		s.ScheduleFixedSeq(Duration(10*k), uint64(k), rec, 10*k)
	}
	if s.nlanes != numLanes || len(s.queue) != 1 || s.Pending() != numLanes+1 {
		t.Fatalf("%d lanes, %d heap events, Pending %d; want %d lanes and the last delay on the heap",
			s.nlanes, len(s.queue), s.Pending(), numLanes)
	}
	s.RunUntil(10) // the lane of delay 10 empties
	s.ScheduleFixedSeq(60, 6, rec, 70)
	if l := s.lanes[0]; l.d != 60 || l.n != 1 || len(s.queue) != 1 {
		t.Fatalf("lane 0 holds delay %v with %d events, %d heap events; want the emptied lane handed to 60",
			l.d, l.n, len(s.queue))
	}
	s.RunUntil(20) // the lane of delay 20 empties, its head past slot 0
	for seq := 110; seq > 100; seq-- {
		s.ScheduleFixedSeq(20, uint64(seq), rec, seq)
	}
	if l := s.lanes[1]; l.d != 20 || l.n != 10 || len(s.queue) != 1 || s.Pending() != 14 {
		t.Fatalf("lane 1 holds delay %v with %d events, %d heap events, Pending %d; want 20, 10, 1, 14",
			l.d, l.n, len(s.queue), s.Pending())
	}
	s.Run()
	want := []int{10, 20, 30, 40, 101, 102, 103, 104, 105, 106, 107, 108, 109, 110, 50, 70}
	if fmt.Sprint(got) != fmt.Sprint(want) || s.Pending() != 0 {
		t.Errorf("fired %v with %d left, want %v", got, s.Pending(), want)
	}
}

// A heap event's handler schedules a lane event, which takes the fired
// event's recycled struct with a later key, and then cancels a heap event
// whose removal sifts the last entry up toward the root. The dispatch
// slot holds the sentinel, not the fired struct, so the sift stops below
// it: were the slot still the recycled struct, the sift would seat that
// struct in the heap as well as in its lane, so it would fire twice, and
// the entry it displaced would be lost.
func TestLaneEventTakesFiredStruct(t *testing.T) {
	s := New()
	var got []int
	rec := handlerFunc(func(arg any) { got = append(got, arg.(int)) })
	var victim EventRef
	s.AtHandler(10, handlerFunc(func(any) {
		got = append(got, 10)
		s.ScheduleFixedSeq(1000, 1<<40, rec, 1010)
		victim.Cancel()
	}), nil)
	victim = s.AtHandler(100, rec, 100) // heap slot 1
	s.AtHandler(200, rec, 200)          // slot 2
	s.AtHandler(150, rec, 150)          // slot 3, the last: refills slot 1
	s.RunUntil(10)
	if n := s.Pending(); n != 3 {
		t.Fatalf("Pending() = %d after the handler, want 3", n)
	}
	s.Run()
	if want := []int{10, 150, 200, 1010}; fmt.Sprint(got) != fmt.Sprint(want) || s.Pending() != 0 {
		t.Errorf("fired %v with %d left, want %v", got, s.Pending(), want)
	}
}

// Cancelling a closure event removes it from the heap immediately instead
// of letting it linger until its fire time.
func TestClosureCancelRemovesEagerly(t *testing.T) {
	s := New()
	var evs []EventRef
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
	e.Cancel() // after fire: the ref is stale, no heap op, no panic
	if e.Pending() {
		t.Error("Pending() = true after the event fired")
	}
	// The follow-up event reuses the recycled struct; the stale ref must
	// not cancel it.
	fired := false
	s.Schedule(10, func() { fired = true })
	e.Cancel()
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
	cancelled := 0 // cancels whose ref was still pending at the call
	for round := 0; round < 1000; round++ {
		live = append(live, s.ScheduleHandler(Duration(10+round%7), h, nil))
		if round%3 == 0 && len(live) > 0 {
			if live[0].Pending() {
				cancelled++
			}
			live[0].Cancel()
			live = live[1:]
		}
		if round%11 == 0 {
			s.RunUntil(s.Now() + 5)
		}
	}
	s.Run()
	// Some cancels come after their event fired and are stale no-ops; every
	// other scheduled event fires exactly once.
	if want := 1000 - cancelled; fired != want {
		t.Errorf("fired = %d, want %d (1000 scheduled, %d cancelled while pending)", fired, want, cancelled)
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

// The lane path, ScheduleFixedSeq, allocates nothing once warm: lane rings
// grow only when full, and delays that find no lane ride the heap.
func TestFixedPathAllocFree(t *testing.T) {
	s := New()
	h := handlerFunc(func(any) {})
	drive := func() {
		for i := 0; i < 64; i++ {
			s.ScheduleFixedSeq(Duration(i%(numLanes+2)), uint64(i), h, i%4)
		}
		s.Run()
	}
	drive() // warm the free list, the lanes and the heap
	if allocs := testing.AllocsPerRun(50, drive); allocs != 0 {
		t.Errorf("lane event path allocates %.1f allocs/run, want 0", allocs)
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

// BenchmarkClosureEvents runs the same chain through the Schedule closure
// wrapper, for comparison.
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
