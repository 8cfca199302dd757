// Package des provides a deterministic discrete-event simulation engine.
//
// The engine is the foundation of the packet-level network simulator: it owns
// a virtual clock with nanosecond resolution and a priority queue of pending
// events. Events scheduled for the same instant fire in the order they were
// scheduled, which keeps runs bit-for-bit reproducible.
//
// The queue is a binary heap plus a few fixed-delay lanes. Events that fire
// one fixed delay after they were scheduled, and that nothing cancels (a
// port's serialisation tick and its deliveries), go through ScheduleFixedSeq
// into a FIFO lane that holds that delay; they are already in firing order,
// so the lane holds them without a sift. Everything else stays on the heap.
// The next event is the earliest of the heap's root and the lanes' fronts,
// so the firing order is the one a heap alone would give.
//
// Every event rides one pooled lifecycle. A Handler (a long-lived port,
// sender or ticker) is scheduled with an opaque argument through
// ScheduleHandler/AtHandler; Event structs are recycled through a free
// list, so the steady state allocates nothing. Schedule and At are
// one-line conveniences that wrap a closure as a Handler. Every event
// scheduled on the heap is addressed through a generation-checked
// EventRef, so a stale ref held after the event fired (or was cancelled)
// is a safe no-op; lane events have none.
package des

import "fmt"

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

// Event is one queued callback. Events are owned by the simulator's free
// list and recycled after they fire or are cancelled; callers hold an
// EventRef, never an *Event.
type Event struct {
	time Time
	sub  Time // schedule time: the clock value when the event was queued
	seq  uint64
	h    Handler
	arg  any

	sim   *Simulator
	index int    // heap index; -1 off the heap (free, fired, cancelled or in a lane)
	gen   uint32 // bumped when the event is recycled
}

// EventRef is a generation-checked handle to a scheduled event. The zero
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
		e.sim.remove(e.index)
		e.sim.release(e)
	}
}

// before orders events by (time, sub, seq), where sub is the clock value
// when the event was scheduled. The sub key is needed because
// caller-minted seqs (AtHandlerSeq) do not increase with schedule time:
// netsim mints them per node, so an event scheduled later may carry a
// smaller seq than one scheduled earlier for the same instant. Ordering by
// sub first keeps same-instant events in schedule order; seq only breaks
// ties among events scheduled at the same clock value.
func before(a, b *Event) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	if a.sub != b.sub {
		return a.sub < b.sub
	}
	return a.seq < b.seq
}

// The queue is a binary min-heap over *Event ordered by before. Keys are
// unique: the simulator's counter stays below bit 40, and netsim's node
// keys sit above it. So the next event to fire never depends on the
// heap's shape. up and down carry e through a hole, moving each displaced
// entry once and writing its index once, and seat e where the hole stops.
//
// While a heap event is dispatched, its root slot stays in the heap, empty
// (s.hole): the first heap event its handler schedules fills the slot and
// sifts down once, instead of the pop sifting the last entry down and the
// push sifting the new one up. A handler that schedules nothing has the
// slot removed after it returns, as a pop would. The empty slot holds the
// simulator's sentinel, whose key sorts before every other, so a Cancel
// inside the handler never sifts an entry up into it. It cannot hold the
// fired event: that struct is back on the free list, and a lane event
// scheduled by the handler may take it with a later key.

// push queues e on the heap.
func (s *Simulator) push(e *Event) {
	if s.hole {
		s.hole = false
		s.down(e, 0)
		return
	}
	s.queue = append(s.queue, e)
	s.up(e, len(s.queue)-1)
}

// fill refills the empty root slot from the last entry, as a pop would,
// if no push has filled it.
func (s *Simulator) fill() {
	if s.hole {
		s.hole = false
		s.remove(0)
	}
}

// up seats e at or above the hole at i.
func (s *Simulator) up(e *Event, i int) {
	q := s.queue
	for i > 0 {
		p := (i - 1) / 2
		if !before(e, q[p]) {
			break
		}
		q[i] = q[p]
		q[i].index = i
		i = p
	}
	q[i] = e
	e.index = i
}

// down seats e at or below the hole at i.
func (s *Simulator) down(e *Event, i int) {
	q := s.queue
	n := len(q)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && before(q[r], q[c]) {
			c = r
		}
		if !before(q[c], e) {
			break
		}
		q[i] = q[c]
		q[i].index = i
		i = c
	}
	q[i] = e
	e.index = i
}

// remove takes the event at heap position i out of the queue: an unfilled
// dispatch slot (i = 0, see fill) and Cancel (any i). The last entry
// refills the hole.
func (s *Simulator) remove(i int) {
	q := s.queue
	n := len(q) - 1
	q[i].index = -1
	last := q[n]
	q[n] = nil
	s.queue = q[:n]
	if i < n {
		if i > 0 && before(last, q[(i-1)/2]) {
			s.up(last, i)
		} else {
			s.down(last, i)
		}
	}
}

// numLanes bounds the fixed-delay lanes. The dispatch loop compares the
// front of every lane in use, so the count stays small: the packet
// workloads need two (a serialisation time and the propagation delay),
// and a delay that finds no lane goes to the heap.
const numLanes = 4

// A lane is a FIFO of events that all fire d after they were scheduled,
// in a power-of-two ring that doubles only when full. The clock never goes
// back, so a new event is never earlier than the lane's tail, except among
// events scheduled at the same instant: node-minted seqs arrive there in
// any order, so push inserts from the tail.
type lane struct {
	d    Duration
	ring []*Event
	head int // index of the front event
	n    int // events queued
}

// push appends e, moving it ahead of tail events that sort after it.
func (l *lane) push(e *Event) {
	if l.n == len(l.ring) {
		l.grow()
	}
	mask := len(l.ring) - 1
	i := l.head + l.n
	for ; i > l.head; i-- {
		prev := l.ring[(i-1)&mask]
		if !before(e, prev) {
			break
		}
		l.ring[i&mask] = prev
	}
	l.ring[i&mask] = e
	l.n++
}

// pop removes the front event.
func (l *lane) pop() {
	l.ring[l.head] = nil
	l.head = (l.head + 1) & (len(l.ring) - 1)
	l.n--
}

// grow doubles the ring (8 slots at first), unwrapping it to start at 0.
func (l *lane) grow() {
	ring := make([]*Event, max(8, 2*len(l.ring)))
	for i := 0; i < l.n; i++ {
		ring[i] = l.ring[(l.head+i)&(len(l.ring)-1)]
	}
	l.ring, l.head = ring, 0
}

// lane returns the lane that holds delay d. If none does, it hands out an
// empty lane, which then holds d; if every lane holds another delay and
// has events queued, it returns nil and the event goes to the heap.
func (s *Simulator) lane(d Duration) *lane {
	var empty *lane
	for i := range s.lanes[:s.nlanes] {
		l := &s.lanes[i]
		if l.d == d {
			return l
		}
		if l.n == 0 && empty == nil {
			empty = l
		}
	}
	if s.nlanes < numLanes {
		empty = &s.lanes[s.nlanes]
		s.nlanes++
	}
	if empty != nil {
		empty.d = d
	}
	return empty
}

// Simulator owns the virtual clock and event queue. The zero value is ready
// to use.
type Simulator struct {
	now       Time
	queue     []*Event // binary min-heap, see before
	hole      bool     // queue[0] is the empty slot of the event in dispatch
	sentinel  Event    // fills the empty slot; its key sorts first (see run)
	lanes     [numLanes]lane
	nlanes    int      // lanes[:nlanes] have held a delay
	free      []*Event // recycled events
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

// Pending reports how many events are queued, on the heap and in the
// lanes. Cancelled events are removed eagerly and never counted, nor is
// the slot of the event in dispatch.
func (s *Simulator) Pending() int {
	n := len(s.queue)
	if s.hole {
		n--
	}
	for i := range s.lanes[:s.nlanes] {
		n += s.lanes[i].n
	}
	return n
}

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
	return &Event{sim: s, index: -1}
}

// release recycles an event, invalidating every outstanding EventRef to
// this incarnation.
func (s *Simulator) release(e *Event) {
	e.gen++
	e.h, e.arg = nil, nil
	s.free = append(s.free, e)
}

// funcHandler adapts a closure to Handler for Schedule and At.
type funcHandler func()

func (f funcHandler) OnEvent(any) { f() }

// Schedule runs fn after delay d. A negative delay is an error in the caller;
// it panics to surface the bug immediately.
func (s *Simulator) Schedule(d Duration, fn func()) EventRef {
	return s.ScheduleHandler(d, funcHandler(fn), nil)
}

// At runs fn at absolute time t, which must not be in the past.
func (s *Simulator) At(t Time, fn func()) EventRef { return s.AtHandler(t, funcHandler(fn), nil) }

// ScheduleHandler runs h.OnEvent(arg) after delay d without allocating in
// steady state. A negative delay panics.
func (s *Simulator) ScheduleHandler(d Duration, h Handler, arg any) EventRef {
	if d < 0 {
		panic(fmt.Sprintf("des: negative delay %v at %v", d, s.now))
	}
	return s.AtHandler(s.now.Add(d), h, arg)
}

// AtHandler runs h.OnEvent(arg) at absolute time t, which must not be in
// the past.
func (s *Simulator) AtHandler(t Time, h Handler, arg any) EventRef {
	r := s.AtHandlerSeq(t, s.seq, h, arg)
	s.seq++
	return r
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
	s.push(e)
	return EventRef{e: e, gen: e.gen}
}

// ScheduleFixedSeq is ScheduleHandlerSeq for an event that nothing
// cancels, so it returns no EventRef. It goes to the lane that holds d
// (see lane), or to the heap if no lane is free; either way it fires in
// the same (time, sub, seq) order.
func (s *Simulator) ScheduleFixedSeq(d Duration, seq uint64, h Handler, arg any) {
	if d < 0 {
		panic(fmt.Sprintf("des: negative delay %v at %v", d, s.now))
	}
	if h == nil {
		panic("des: nil Handler")
	}
	e := s.alloc()
	e.time, e.sub, e.seq, e.h, e.arg = s.now.Add(d), s.now, seq, h, arg
	if l := s.lane(d); l != nil {
		l.push(e)
		return
	}
	s.push(e)
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
	s.sentinel.time = -1 << 63
	// A handler panic that a caller recovers must leave a sound queue.
	defer func() {
		s.fill()
		s.running = false
	}()
	var fired uint64
	for !s.stopped {
		// The next event is the earliest of the heap's root and the
		// lanes' fronts: each of them is the minimum of its own set.
		var e *Event
		var from *lane
		if len(s.queue) > 0 {
			e = s.queue[0]
		}
		for i := range s.lanes[:s.nlanes] {
			l := &s.lanes[i]
			if l.n > 0 && (e == nil || before(l.ring[l.head], e)) {
				e, from = l.ring[l.head], l
			}
		}
		if e == nil || e.time > end {
			break
		}
		if from != nil {
			from.pop()
		} else {
			e.index = -1
			s.queue[0] = &s.sentinel
			s.hole = true
		}
		s.now = e.time
		// Recycle before dispatch: the handler may reschedule and get this
		// struct back, and a ref to the firing incarnation held by user
		// code is already stale (cancel-inside-fn is a no-op).
		h, arg := e.h, e.arg
		s.release(e)
		h.OnEvent(arg)
		s.fill()
		s.processed++
		fired++
	}
	// The loop ends without Stop only once no event at or before end is
	// left, so the clock may advance to end even if no event lands exactly
	// there, and a subsequent Schedule(0, ...) happens at the horizon.
	if advance && s.now < end && !s.stopped {
		s.now = end
	}
	return fired
}

// Every schedules fn to run at t0 and then every period thereafter until the
// returned Ticker is stopped. fn runs before the next firing is scheduled, so
// it may safely stop the ticker. A steady-state ticker allocates nothing
// per tick.
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
