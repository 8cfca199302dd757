package des

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// sliceQueue is the reference the event queue is checked against: pending
// events sit in a plain slice, and the run loop fires the minimum by
// (time, sub, seq) found by a linear scan. It mirrors the Simulator's
// clock, Stop and RunUntil rules, and nothing else.
type sliceQueue struct {
	now     Time
	seq     uint64
	pending []sliceEvent
	ids     int
	stopped bool
}

type sliceEvent struct {
	time, sub Time
	seq       uint64
	h         Handler
	arg       any
	id        int
}

func (q *sliceQueue) Now() Time    { return q.now }
func (q *sliceQueue) Pending() int { return len(q.pending) }
func (q *sliceQueue) Stop()        { q.stopped = true }

func (q *sliceQueue) schedule(t Time, seq uint64, minted bool, h Handler, arg any) int {
	if !minted {
		seq = q.seq
		q.seq++
	}
	q.ids++
	q.pending = append(q.pending, sliceEvent{time: t, sub: q.now, seq: seq, h: h, arg: arg, id: q.ids})
	return q.ids
}

// fixed queues a lane event like any other, with no ref: id 0 matches
// no ref the script can cancel.
func (q *sliceQueue) fixed(d Duration, seq uint64, h Handler, arg any) {
	q.pending = append(q.pending, sliceEvent{time: q.now + Time(d), sub: q.now, seq: seq, h: h, arg: arg})
}

func (q *sliceQueue) find(ref int) int {
	for i, e := range q.pending {
		if e.id == ref {
			return i
		}
	}
	return -1
}

func (q *sliceQueue) pendingRef(ref int) bool { return q.find(ref) >= 0 }

func (q *sliceQueue) cancel(ref int) {
	if i := q.find(ref); i >= 0 {
		q.pending = append(q.pending[:i], q.pending[i+1:]...)
	}
}

func (q *sliceQueue) min() int {
	m := 0
	for i, e := range q.pending {
		b := q.pending[m]
		if e.time < b.time || e.time == b.time && (e.sub < b.sub || e.sub == b.sub && e.seq < b.seq) {
			m = i
		}
	}
	return m
}

func (q *sliceQueue) RunUntil(end Time) uint64 {
	q.stopped = false
	var fired uint64
	for len(q.pending) > 0 && !q.stopped {
		i := q.min()
		e := q.pending[i]
		if e.time > end {
			break
		}
		q.pending = append(q.pending[:i], q.pending[i+1:]...)
		q.now = e.time
		e.h.OnEvent(e.arg)
		fired++
	}
	if q.now < end && !q.stopped {
		q.now = end
	}
	return fired
}

// simQueue adapts the Simulator to the script, keeping every EventRef it
// ever returned so that live, fired and stale refs can all be cancelled.
type simQueue struct {
	*Simulator
	refs []EventRef
}

func (q *simQueue) schedule(t Time, seq uint64, minted bool, h Handler, arg any) int {
	var r EventRef
	if minted {
		r = q.AtHandlerSeq(t, seq, h, arg)
	} else {
		r = q.AtHandler(t, h, arg)
	}
	q.refs = append(q.refs, r)
	return len(q.refs)
}

func (q *simQueue) fixed(d Duration, seq uint64, h Handler, arg any) {
	q.ScheduleFixedSeq(d, seq, h, arg)
}

func (q *simQueue) pendingRef(ref int) bool { return q.refs[ref-1].Pending() }
func (q *simQueue) cancel(ref int)          { q.refs[ref-1].Cancel() }

// oracleQueue is what the script needs from either queue. Refs are the
// 1-based order in which events were scheduled.
type oracleQueue interface {
	Now() Time
	Pending() int
	Stop()
	RunUntil(end Time) uint64
	schedule(t Time, seq uint64, minted bool, h Handler, arg any) int
	fixed(d Duration, seq uint64, h Handler, arg any)
	pendingRef(ref int) bool
	cancel(ref int)
}

// queueScript plays one seeded random script against a queue and logs
// everything observable: fired (arg, time), Pending counts, ref states
// and RunUntil results. The script's choices depend only on the seed and
// on what the queue reports, so two correct queues log the same lines.
type queueScript struct {
	q    oracleQueue
	rng  *rand.Rand
	mint [3]uint64 // per-"node" key counters, (node+1)<<40 | count
	refs int
	args int
	log  []string
}

func (d *queueScript) OnEvent(arg any) {
	d.log = append(d.log, fmt.Sprintf("fire %d at %d", arg.(int), d.q.Now()))
	d.ops(d.rng.Intn(3))
	if d.rng.Intn(60) == 0 {
		d.q.Stop()
		d.log = append(d.log, "stop")
	}
}

// burst is a script event keyed from the highest node and queued at zero
// delay. When it fires, it schedules three events at zero delay keyed
// from node 0, so the first new key sorts before the fired event's own.
type burst struct{ d *queueScript }

func (b burst) OnEvent(arg any) {
	d := b.d
	d.log = append(d.log, fmt.Sprintf("burst %d at %d", arg.(int), d.q.Now()))
	for k := 0; k < 3; k++ {
		d.args++
		d.refs = d.q.schedule(d.q.Now(), d.minted(0), true, d, d.args)
	}
	d.log = append(d.log, fmt.Sprintf("pending %d", d.q.Pending()))
}

// minted returns the next key of the given node.
func (d *queueScript) minted(node int) uint64 {
	seq := uint64(node+1)<<40 | d.mint[node]
	d.mint[node]++
	return seq
}

// fixedDelays are the lane events' delays: more of them than there are
// lanes, so lanes fill, overflow to the heap and are handed to another
// delay once empty. They sit on the script's 10 ns grid, zero included.
var fixedDelays = [...]Duration{0, 10, 20, 30, 40, 50}

// ops schedules and cancels n times. Fire times land on a coarse grid
// near the clock, so equal-time and equal-sub ties are common. Lane events
// (ScheduleFixedSeq) are never cancelled; some come in a same-instant run
// keyed from the highest node down, which the lane must insert from its
// tail.
func (d *queueScript) ops(n int) {
	for k := 0; k < n; k++ {
		if d.refs > 0 && d.rng.Intn(3) == 0 {
			ref := 1 + d.rng.Intn(d.refs)
			d.log = append(d.log, fmt.Sprintf("cancel %d pending=%v", ref, d.q.pendingRef(ref)))
			d.q.cancel(ref)
			continue
		}
		if d.rng.Intn(3) == 0 {
			delay := fixedDelays[d.rng.Intn(len(fixedDelays))]
			node, count := d.rng.Intn(len(d.mint)), 1
			if d.rng.Intn(8) == 0 {
				node, count = len(d.mint)-1, len(d.mint) // every node, highest first
			}
			for ; count > 0; count-- {
				d.args++
				d.q.fixed(delay, d.minted(node), d, d.args)
				node--
			}
			continue
		}
		d.args++
		if d.rng.Intn(16) == 0 {
			d.refs = d.q.schedule(d.q.Now(), d.minted(len(d.mint)-1), true, burst{d}, d.args)
			continue
		}
		t := d.q.Now() + Time(10*d.rng.Intn(4))
		if node := d.rng.Intn(len(d.mint) + 1); node < len(d.mint) {
			d.refs = d.q.schedule(t, d.minted(node), true, d, d.args)
		} else {
			d.refs = d.q.schedule(t, 0, false, d, d.args)
		}
	}
	d.log = append(d.log, fmt.Sprintf("pending %d", d.q.Pending()))
}

func (d *queueScript) play() {
	for slice := 0; slice < 300; slice++ {
		d.ops(d.rng.Intn(8))
		n := d.q.RunUntil(d.q.Now() + Time(d.rng.Intn(40)))
		d.log = append(d.log, fmt.Sprintf("slice fired %d now %d pending %d", n, d.q.Now(), d.q.Pending()))
	}
	n := d.q.RunUntil(1 << 40)
	d.log = append(d.log, fmt.Sprintf("drain fired %d pending %d", n, d.q.Pending()))
}

// The Simulator fires exactly what a linear-scan reference fires, in the
// same order, under a random mix of simulator-counter and node-minted
// keys, lane events at more delays than there are lanes (some minted in
// descending node order at one instant), cancels of live, fired and stale
// refs (also from inside handlers), handlers whose first new event sorts
// before their own key, RunUntil slices and Stop. Keys are unique, as
// they are in netsim: exact duplicates can only come from a direct
// AtHandlerSeq caller, and their order is unspecified.
func TestQueueMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		got := &queueScript{rng: rand.New(rand.NewSource(seed))}
		got.q = &simQueue{Simulator: New()}
		got.play()
		want := &queueScript{rng: rand.New(rand.NewSource(seed))}
		want.q = &sliceQueue{}
		want.play()
		for i := range want.log {
			if i >= len(got.log) || got.log[i] != want.log[i] {
				t.Fatalf("seed %d: line %d: got %q, want %q", seed, i, logLine(got.log, i), want.log[i])
			}
		}
		if len(got.log) != len(want.log) {
			t.Fatalf("seed %d: %d log lines, want %d", seed, len(got.log), len(want.log))
		}
		if got.args < 1000 {
			t.Fatalf("seed %d: only %d events scheduled", seed, got.args)
		}
		if bursts := strings.Count(strings.Join(got.log, "\n"), "burst "); bursts < 10 {
			t.Fatalf("seed %d: only %d bursts fired", seed, bursts)
		}
	}
}

func logLine(log []string, i int) string {
	if i < len(log) {
		return log[i]
	}
	return "<end of log>"
}

// holdHandler is the hold model's event: each firing schedules one
// successor a seeded random increment ahead, so the queue stays at its
// starting depth, until the op budget runs out and it stops the run.
// With fixed set, successors go through ScheduleFixedSeq, so they ride
// the lanes.
type holdHandler struct {
	sim   *Simulator
	incr  []Duration
	fixed bool
	seq   uint64 // the lane events' keys
	ops   int
	left  int
}

func (h *holdHandler) OnEvent(any) {
	h.schedule(h.incr[h.ops%len(h.incr)])
	h.ops++
	if h.ops == h.left {
		h.sim.Stop()
	}
}

func (h *holdHandler) schedule(d Duration) {
	if h.fixed {
		h.sim.ScheduleFixedSeq(d, h.seq, h, nil)
		h.seq++
		return
	}
	h.sim.ScheduleHandler(d, h, nil)
}

// BenchmarkHold is the classic hold model of a pending-event set: N events
// pending, and each op pops the minimum and pushes one event at now plus
// an increment drawn up front. On the heap (N=…) the increment is
// exponential with mean 1 µs. N=128 and N=1024 bracket the peak queue
// depths of the benchmark's packet workloads (des.pending_peak 138 on
// fct_dumbbell, 498 on incast_clos_observed). The fixed variant
// (fixed/N=…) reschedules through the lanes at one of two fixed delays,
// a 1,000-byte packet's serialisation at 10 Gb/s (800 ns) and a link's
// propagation (1 µs), the two delays that carry most packet events.
func BenchmarkHold(b *testing.B) {
	for _, fixed := range []bool{false, true} {
		for _, n := range []int{128, 1024} {
			name := fmt.Sprintf("N=%d", n)
			if fixed {
				name = "fixed/" + name
			}
			b.Run(name, func(b *testing.B) {
				rng := rand.New(rand.NewSource(1))
				incr := make([]Duration, 4096)
				for i := range incr {
					switch {
					case !fixed:
						incr[i] = Duration(rng.ExpFloat64() * float64(Microsecond))
					case rng.Intn(2) == 0:
						incr[i] = 800
					default:
						incr[i] = Microsecond
					}
				}
				s := New()
				h := &holdHandler{sim: s, incr: incr, fixed: fixed, left: b.N}
				for i := 0; i < n; i++ {
					h.schedule(incr[rng.Intn(len(incr))])
				}
				b.ReportAllocs()
				b.ResetTimer()
				s.Run()
				if h.ops != b.N || s.Pending() != n {
					b.Fatalf("ops %d pending %d, want %d and %d", h.ops, s.Pending(), b.N, n)
				}
			})
		}
	}
}
