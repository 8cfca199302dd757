// Package des provides a deterministic discrete-event simulation engine.
//
// The engine is the foundation of the packet-level network simulator: it owns
// a virtual clock with nanosecond resolution and a priority queue of pending
// events. Events scheduled for the same instant fire in the order they were
// scheduled, which keeps runs bit-for-bit reproducible.
//
// Two scheduling APIs exist. The closure API (Schedule, At) allocates a fresh
// Event per call and returns a *Event handle that stays valid forever. The
// handler API (ScheduleHandler, AtHandler) is the hot path: it dispatches to a
// long-lived Handler with an opaque argument, recycles Event structs through a
// free list, and allocates nothing in steady state. Handler-path events are
// addressed through generation-checked EventRef values, so a stale ref held
// after the event fired (or was cancelled) is a safe no-op.
package des

import (
	"container/heap"
	"fmt"
)

// Time is an absolute simulation time in nanoseconds since the start of the
// run. The zero value is the beginning of the simulation.
type Time int64

// Duration is a span of simulation time in nanoseconds.
type Duration int64

// Common durations, mirroring the time package but for simulation time.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Seconds reports the duration as a floating-point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / 1e9 }

// Seconds reports the time as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// DurationFromSeconds converts seconds to a Duration, rounding to the nearest
// nanosecond.
func DurationFromSeconds(s float64) Duration {
	if s < 0 {
		return Duration(s*1e9 - 0.5)
	}
	return Duration(s*1e9 + 0.5)
}

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

func (t Time) String() string     { return fmt.Sprintf("%.6fms", float64(t)/1e6) }
func (d Duration) String() string { return fmt.Sprintf("%.3fus", float64(d)/1e3) }

// Handler is the allocation-free event callback: a long-lived object (port,
// sender, ticker) that receives the opaque argument it was scheduled with.
// Handlers with several periodic duties conventionally dispatch on a small
// integer argument; values 0-255 box without allocating.
type Handler interface {
	OnEvent(arg any)
}

// Event is a handle to a scheduled callback. Closure-API events can be
// cancelled before they fire; cancelling a fired or already-cancelled event
// is a no-op. Cancel removes the event from the queue immediately, so
// cancelled events cost nothing at drain time.
type Event struct {
	time Time
	sub  Time // schedule time: the clock value when the event was queued
	seq  uint64
	fn   func()  // closure path
	h    Handler // handler path
	arg  any

	sim       *Simulator
	index     int    // heap index, -1 once removed
	gen       uint32 // bumped when a pooled event is recycled
	pooled    bool   // owned by the simulator free list
	cancelled bool
}

// Time reports when the event is (or was) scheduled to fire.
func (e *Event) Time() Time { return e.time }

// Cancel prevents the event from firing. It is safe to call at any point,
// including twice or after the event fired. A still-queued event is removed
// from the heap eagerly via its stored index.
func (e *Event) Cancel() {
	if e.cancelled {
		return
	}
	e.cancelled = true
	if e.index >= 0 && e.sim != nil {
		heap.Remove(&e.sim.queue, e.index)
	}
}

// Cancelled reports whether Cancel has been called.
func (e *Event) Cancelled() bool { return e.cancelled }

// EventRef is a generation-checked handle to a handler-path event. The zero
// value refers to nothing; Cancel and Pending on it are no-ops. A ref that
// outlives its event (fired, cancelled, or recycled) goes stale and is
// likewise inert, so callers may keep refs around without bookkeeping.
type EventRef struct {
	e   *Event
	gen uint32
}

// Pending reports whether the referenced event is still queued.
func (r EventRef) Pending() bool {
	return r.e != nil && r.e.gen == r.gen && r.e.index >= 0
}

// Cancel removes the referenced event from the queue and recycles it. Stale
// or zero refs are no-ops, so double-Cancel and cancel-after-fire are safe.
func (r EventRef) Cancel() {
	e := r.e
	if e == nil || e.gen != r.gen {
		return
	}
	if e.index >= 0 {
		heap.Remove(&e.sim.queue, e.index)
		e.sim.release(e)
	}
}

type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }

// Less orders by (time, sub, seq), where sub is the clock value when the
// event was scheduled. The sub key is needed because caller-minted seqs
// (AtHandlerSeq) do not increase with schedule time: netsim mints them per
// node, so an event scheduled later may carry a smaller seq than one
// scheduled earlier for the same instant. Ordering by sub first keeps
// same-instant events in schedule order; seq only breaks ties among
// events scheduled at the same clock value.
func (h eventHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	if h[i].sub != h[j].sub {
		return h[i].sub < h[j].sub
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	e := x.(*Event)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

// Simulator owns the virtual clock and event queue. The zero value is ready
// to use.
type Simulator struct {
	now       Time
	queue     eventHeap
	free      []*Event // recycled handler-path events
	seq       uint64
	processed uint64
	running   bool
	stopped   bool
}

// New returns a fresh simulator with the clock at zero.
func New() *Simulator { return &Simulator{} }

// Now reports the current simulation time.
func (s *Simulator) Now() Time { return s.now }

// Processed reports how many events have fired so far.
func (s *Simulator) Processed() uint64 { return s.processed }

// Pending reports how many events are queued. Cancelled events are removed
// eagerly and never counted.
func (s *Simulator) Pending() int { return len(s.queue) }

// FreeEvents reports the size of the event free list (tests, monitoring).
func (s *Simulator) FreeEvents() int { return len(s.free) }

// alloc takes an Event from the free list, or mints one on a cold start.
func (s *Simulator) alloc() *Event {
	if n := len(s.free); n > 0 {
		e := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return e
	}
	return &Event{sim: s, pooled: true}
}

// release recycles a pooled event, invalidating every outstanding EventRef
// to this incarnation.
func (s *Simulator) release(e *Event) {
	e.gen++
	e.fn, e.h, e.arg = nil, nil, nil
	e.cancelled = false
	s.free = append(s.free, e)
}

// Schedule runs fn after delay d. A negative delay is an error in the caller;
// it panics to surface the bug immediately.
func (s *Simulator) Schedule(d Duration, fn func()) *Event {
	if d < 0 {
		panic(fmt.Sprintf("des: negative delay %v at %v", d, s.now))
	}
	return s.At(s.now.Add(d), fn)
}

// At runs fn at absolute time t, which must not be in the past.
func (s *Simulator) At(t Time, fn func()) *Event {
	if t < s.now {
		panic(fmt.Sprintf("des: schedule in the past: %v < %v", t, s.now))
	}
	e := &Event{time: t, sub: s.now, seq: s.seq, fn: fn, sim: s}
	s.seq++
	heap.Push(&s.queue, e)
	return e
}

// ScheduleHandler runs h.OnEvent(arg) after delay d through the pooled,
// allocation-free path. Negative delays panic, as with Schedule.
func (s *Simulator) ScheduleHandler(d Duration, h Handler, arg any) EventRef {
	if d < 0 {
		panic(fmt.Sprintf("des: negative delay %v at %v", d, s.now))
	}
	return s.AtHandler(s.now.Add(d), h, arg)
}

// AtHandler runs h.OnEvent(arg) at absolute time t through the pooled path.
func (s *Simulator) AtHandler(t Time, h Handler, arg any) EventRef {
	if t < s.now {
		panic(fmt.Sprintf("des: schedule in the past: %v < %v", t, s.now))
	}
	if h == nil {
		panic("des: nil Handler")
	}
	e := s.alloc()
	e.time, e.sub, e.seq, e.h, e.arg = t, s.now, s.seq, h, arg
	s.seq++
	heap.Push(&s.queue, e)
	return EventRef{e: e, gen: e.gen}
}

// ScheduleHandlerSeq is ScheduleHandler with a caller-minted sequence key.
// netsim mints keys per network node rather than per simulator, so
// same-instant ties resolve by node id, then by the node's program order.
func (s *Simulator) ScheduleHandlerSeq(d Duration, seq uint64, h Handler, arg any) EventRef {
	if d < 0 {
		panic(fmt.Sprintf("des: negative delay %v at %v", d, s.now))
	}
	return s.AtHandlerSeq(s.now.Add(d), seq, h, arg)
}

// AtHandlerSeq is AtHandler with a caller-minted sequence key (see
// ScheduleHandlerSeq). The sub key is still the current clock value.
func (s *Simulator) AtHandlerSeq(t Time, seq uint64, h Handler, arg any) EventRef {
	if t < s.now {
		panic(fmt.Sprintf("des: schedule in the past: %v < %v", t, s.now))
	}
	if h == nil {
		panic("des: nil Handler")
	}
	e := s.alloc()
	e.time, e.sub, e.seq, e.h, e.arg = t, s.now, seq, h, arg
	heap.Push(&s.queue, e)
	return EventRef{e: e, gen: e.gen}
}

// Stop makes Run and RunUntil return after the current event completes.
func (s *Simulator) Stop() { s.stopped = true }

// Run processes events until the queue is empty or Stop is called. The clock
// finishes at the time of the last fired event.
func (s *Simulator) Run() { s.run(Time(1<<63-1), false) }

// RunUntil processes events with time <= end, advancing the clock as it goes.
// The clock finishes at end (or at the last fired event if Stop was called).
// It returns the number of events fired by this call.
func (s *Simulator) RunUntil(end Time) uint64 { return s.run(end, true) }

func (s *Simulator) run(end Time, advance bool) uint64 {
	if s.running {
		panic("des: RunUntil re-entered from within an event")
	}
	s.running = true
	s.stopped = false
	defer func() { s.running = false }()
	var fired uint64
	for len(s.queue) > 0 && !s.stopped {
		e := s.queue[0]
		if e.time > end {
			break
		}
		heap.Pop(&s.queue)
		if e.cancelled {
			// Cancel removes events eagerly, so this only catches an event
			// cancelled through a stale *Event handle mid-pop; skip it.
			if e.pooled {
				s.release(e)
			}
			continue
		}
		s.now = e.time
		if e.h != nil {
			// Recycle before dispatch: the handler may reschedule and get
			// this struct back, and a ref to the firing incarnation held by
			// user code is already stale (cancel-inside-fn is a no-op).
			h, arg := e.h, e.arg
			if e.pooled {
				s.release(e)
			}
			h.OnEvent(arg)
		} else {
			e.fn()
		}
		s.processed++
		fired++
	}
	if advance && s.now < end && !s.stopped {
		// Advance the clock even if no event lands exactly at end, so a
		// subsequent Schedule(0, ...) happens at the requested horizon.
		if len(s.queue) == 0 || s.queue[0].time > end {
			s.now = end
		}
	}
	return fired
}

// Every schedules fn to run at t0 and then every period thereafter until the
// returned Ticker is stopped. fn runs before the next firing is scheduled, so
// it may safely stop the ticker. Ticker firings ride the pooled event path,
// so a steady-state ticker allocates nothing per tick.
func (s *Simulator) Every(t0 Time, period Duration, fn func()) *Ticker {
	if period <= 0 {
		panic("des: non-positive ticker period")
	}
	tk := &Ticker{sim: s, period: period, fn: fn}
	tk.ev = s.AtHandler(t0, tk, nil)
	return tk
}

// Ticker is a repeating event created by Every.
type Ticker struct {
	sim     *Simulator
	period  Duration
	fn      func()
	ev      EventRef
	stopped bool
}

// OnEvent implements Handler.
func (tk *Ticker) OnEvent(any) {
	if tk.stopped {
		return
	}
	tk.fn()
	if tk.stopped {
		return
	}
	tk.ev = tk.sim.ScheduleHandler(tk.period, tk, nil)
}

// Stop cancels all future firings.
func (tk *Ticker) Stop() {
	tk.stopped = true
	tk.ev.Cancel()
}
