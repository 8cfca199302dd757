package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"ecndelay/internal/des"
)

// queueEvent builds a consistent enqueue/dequeue record for port 0->1.
func queueEvent(typ EventType, size int32, qLen int32, qBytes int64) Event {
	return Event{Type: typ, Node: 0, Peer: 1, Size: size, QLen: qLen, QBytes: qBytes}
}

func TestCheckerCleanStream(t *testing.T) {
	c := NewChecker()
	// Two packets through one queue, fully drained: every invariant holds.
	c.Feed(queueEvent(Enqueue, 1000, 1, 1000))
	c.Feed(queueEvent(Enqueue, 500, 2, 1500))
	c.Feed(queueEvent(Dequeue, 1000, 1, 500))
	c.Feed(queueEvent(Dequeue, 500, 0, 0))
	c.Feed(Event{Type: Pause, Node: 0, Peer: 1})
	c.Feed(Event{Type: Resume, Node: 0, Peer: 1})
	c.Finish(des.Time(des.Second))
	if c.Total() != 0 {
		t.Fatalf("clean stream produced %d violations: %v", c.Total(), c.Violations())
	}
	if c.Err() != nil {
		t.Fatalf("Err = %v on a clean stream", c.Err())
	}
}

func TestCheckerConservationFires(t *testing.T) {
	c := NewChecker()
	c.Feed(queueEvent(Enqueue, 1000, 1, 1000))
	// Queue self-reports 900 bytes after a 1000-byte enqueue onto an empty
	// queue: the books disagree with the hardware.
	c.Feed(queueEvent(Enqueue, 1000, 2, 1900))
	if got := c.Count(InvConservation); got != 1 {
		t.Fatalf("Count(InvConservation) = %d, want 1", got)
	}
	// The checker resyncs after a divergence: the same consistent stream
	// continuing from the reported state raises nothing further.
	c.Feed(queueEvent(Dequeue, 1000, 1, 900))
	if got := c.Count(InvConservation); got != 1 {
		t.Fatalf("post-resync Count = %d, want still 1 (one divergence, one violation)", got)
	}
}

func TestCheckerEndOfRunConservationFires(t *testing.T) {
	c := NewChecker()
	c.Feed(queueEvent(Enqueue, 1000, 1, 1000))
	// Dequeue reports fewer bytes than were enqueued and the queue claims
	// empty: running checks resync, but end-of-run closure must notice the
	// enq != deq + queued imbalance.
	c.Feed(queueEvent(Dequeue, 600, 0, 0))
	before := c.Total()
	c.Finish(des.Time(42))
	if c.Count(InvConservation) <= before {
		t.Fatal("Finish did not flag the end-of-run byte imbalance")
	}
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), "conservation") {
		t.Fatalf("Err = %v, want a conservation summary", err)
	}
}

func TestCheckerQueueBoundsFires(t *testing.T) {
	t.Run("negative", func(t *testing.T) {
		c := NewChecker()
		c.Feed(queueEvent(Dequeue, 100, -1, -100))
		if c.Count(InvQueueBounds) == 0 {
			t.Fatal("negative queue occupancy not flagged")
		}
	})
	t.Run("empty-with-bytes", func(t *testing.T) {
		c := NewChecker()
		e := queueEvent(Enqueue, 100, 0, 100)
		c.Feed(e)
		if c.Count(InvQueueBounds) == 0 {
			t.Fatal("empty queue holding bytes not flagged")
		}
	})
	t.Run("over-capacity", func(t *testing.T) {
		c := NewChecker()
		// One over-cap tail packet is the admit rule and must pass...
		one := queueEvent(Enqueue, 1500, 1, 1500)
		one.QCap = 1000
		c.Feed(one)
		if c.Count(InvQueueBounds) != 0 {
			t.Fatal("single over-cap packet wrongly flagged (admit rule)")
		}
		// ...but standing above capacity with multiple packets queued is a
		// broken queue.
		two := queueEvent(Enqueue, 1500, 2, 3000)
		two.QCap = 1000
		c.Feed(two)
		if c.Count(InvQueueBounds) == 0 {
			t.Fatal("multi-packet over-capacity queue not flagged")
		}
	})
}

func TestCheckerPFCPairingFires(t *testing.T) {
	t.Run("double-pause", func(t *testing.T) {
		c := NewChecker()
		c.Feed(Event{Type: Pause, Node: 0, Peer: 1})
		c.Feed(Event{Type: Pause, Node: 0, Peer: 1})
		if c.Count(InvPFCPairing) != 1 {
			t.Fatalf("Count = %d, want 1", c.Count(InvPFCPairing))
		}
	})
	t.Run("resume-unpaused", func(t *testing.T) {
		c := NewChecker()
		c.Feed(Event{Type: Resume, Node: 0, Peer: 1})
		if c.Count(InvPFCPairing) != 1 {
			t.Fatalf("Count = %d, want 1", c.Count(InvPFCPairing))
		}
	})
	t.Run("ports-independent", func(t *testing.T) {
		c := NewChecker()
		c.Feed(Event{Type: Pause, Node: 0, Peer: 1})
		c.Feed(Event{Type: Pause, Node: 2, Peer: 1}) // different port: fine
		c.Feed(Event{Type: Resume, Node: 0, Peer: 1})
		c.Feed(Event{Type: Resume, Node: 2, Peer: 1})
		if c.Total() != 0 {
			t.Fatalf("independent ports cross-contaminated: %v", c.Violations())
		}
	})
}

// One checker serving several networks with identical node ids must keep
// their books apart: events carry a run tag, and interleaving two runs —
// including one run's Finish landing while another run's queue is
// non-empty — raises nothing.
func TestCheckerRunScoping(t *testing.T) {
	c := NewChecker()
	ev := func(run uint32, typ EventType, size, qLen int32, qBytes int64) Event {
		return Event{Run: run, Type: typ, Node: 0, Peer: 1, Size: size, QLen: qLen, QBytes: qBytes}
	}
	c.Feed(ev(1, Enqueue, 1000, 1, 1000))
	c.Feed(ev(2, Enqueue, 700, 1, 700)) // same port ids, different network
	c.Feed(ev(1, Dequeue, 1000, 0, 0))
	// Run 1 finishes — and audits every port recorded so far — while run 2
	// still holds 700 queued bytes.
	c.Finish(des.Time(1))
	c.Feed(ev(2, Dequeue, 700, 0, 0))
	c.Finish(des.Time(2))
	if c.Total() != 0 {
		t.Fatalf("run-scoped streams produced %d violations: %v", c.Total(), c.Violations())
	}
	// PFC pairing is scoped the same way: each run pauses the same port
	// once, which is a double pause only within a single run.
	c.Feed(Event{Run: 1, Type: Pause, Node: 0, Peer: 1})
	c.Feed(Event{Run: 2, Type: Pause, Node: 0, Peer: 1})
	if c.Count(InvPFCPairing) != 0 {
		t.Fatal("pause state leaked across run tags")
	}
	c.Feed(Event{Run: 1, Type: Pause, Node: 0, Peer: 1})
	if c.Count(InvPFCPairing) != 1 {
		t.Fatal("genuine same-run double pause not flagged")
	}
	// Within one run the books are still shared: a divergence is caught.
	c.Feed(ev(3, Enqueue, 500, 1, 500))
	c.Feed(ev(3, Enqueue, 500, 1, 500)) // books say 1000, queue reports 500
	if c.Count(InvConservation) != 1 {
		t.Fatalf("same-run divergence count = %d, want 1", c.Count(InvConservation))
	}
}

// The end-of-run closure check flags a broken port exactly once, however
// many later runs on the same shared checker call Finish again.
func TestCheckerFinishIdempotentPerPort(t *testing.T) {
	c := NewChecker()
	c.Feed(queueEvent(Enqueue, 1000, 1, 1000))
	c.Feed(queueEvent(Dequeue, 600, 0, 0)) // 400 bytes vanish
	c.Finish(des.Time(1))
	n := c.Count(InvConservation)
	if n == 0 {
		t.Fatal("broken closure not flagged")
	}
	c.Finish(des.Time(2))
	c.Finish(des.Time(3))
	if got := c.Count(InvConservation); got != n {
		t.Fatalf("repeated Finish inflated the count: %d -> %d", n, got)
	}
}

// brokenPorts feeds four ports that each lose bytes, spread over two
// runs, in an order unrelated to their keys.
func brokenPorts(c *Checker) {
	for _, k := range []portKey{{2, 5, 1}, {1, 3, 0}, {2, 0, 4}, {1, 3, 2}} {
		ev := func(typ EventType, size, qLen int32, qBytes int64) Event {
			return Event{Run: k.run, Type: typ, Node: k.node, Peer: k.peer,
				Size: size, QLen: qLen, QBytes: qBytes}
		}
		c.Feed(ev(Enqueue, 1000, 1, 1000))
		c.Feed(ev(Dequeue, 600, 0, 0)) // 400 bytes vanish
	}
}

// Job copies of one checker (NetObserver.ForJob) run concurrently: each
// copy owns its books, updates them with no lock and audits only them at
// Finish, while counts land on the root. Four jobs, each losing bytes on
// its own port, count what they count one after another; the root's own
// Finish, with no books of its own, adds nothing.
func TestCheckerConcurrentJobCopies(t *testing.T) {
	job := func(o *NetObserver, i int) {
		c := o.ForJob(fmt.Sprint(i)).Check
		for n := 0; n < 500; n++ {
			c.Feed(Event{Run: uint32(i), Type: Enqueue, Node: 0, Peer: 1, Size: 1000, QLen: 1, QBytes: 1000})
			c.Feed(Event{Run: uint32(i), Type: Dequeue, Node: 0, Peer: 1, Size: 1000})
		}
		c.Feed(Event{Run: uint32(i), Type: Enqueue, Node: 2, Peer: 1, Size: 1000, QLen: 1, QBytes: 1000})
		c.Feed(Event{Run: uint32(i), Type: Dequeue, Node: 2, Peer: 1, Size: 600}) // 400 bytes vanish
		c.Finish(des.Time(i))
	}
	run := func(concurrent bool) *Checker {
		o := &NetObserver{Check: NewChecker()}
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			if !concurrent {
				job(o, i)
				continue
			}
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				job(o, i)
			}(i)
		}
		wg.Wait()
		o.Check.Finish(des.Time(9))
		return o.Check
	}
	got, want := run(true), run(false)
	// Per job, one divergence at the dequeue and one closure at Finish.
	if want.Count(InvConservation) != 8 || want.Total() != 8 {
		t.Fatalf("serial jobs: conservation %d of %d violations, want 8 of 8",
			want.Count(InvConservation), want.Total())
	}
	for inv := Invariant(0); inv < numInvariants; inv++ {
		if got.Count(inv) != want.Count(inv) {
			t.Errorf("%s: concurrent %d, serial %d", inv, got.Count(inv), want.Count(inv))
		}
	}
}

// The end-of-run closure violations come out in (run, node, peer) order,
// so the list -invariants prints is the same on every rerun.
func TestCheckerFinishOrderStable(t *testing.T) {
	var ref []Violation
	for i := 0; i < 50; i++ {
		c := NewChecker()
		brokenPorts(c)
		before := len(c.Violations())
		c.Finish(des.Time(9))
		got := c.Violations()[before:]
		if len(got) != 4 {
			t.Fatalf("checker %d: %d closure violations, want 4: %v", i, len(got), got)
		}
		if i == 0 {
			ref = got
			continue
		}
		for j := range got {
			if got[j] != ref[j] {
				t.Fatalf("checker %d: closure violation %d is %q, first checker had %q",
					i, j, got[j], ref[j])
			}
		}
	}
	want := []string{"port 3->0 (run 1)", "port 3->2 (run 1)", "port 0->4 (run 2)", "port 5->1 (run 2)"}
	for j, w := range want {
		if !strings.Contains(ref[j].Detail, w) {
			t.Errorf("closure violation %d = %q, want %s", j, ref[j].Detail, w)
		}
	}
}

// A port's book reached through Port and one reached through Feed run the
// same invariants: every broken stream yields the same violations, and
// the same closure verdict at Finish, either way.
func TestCheckerPortMatchesFeed(t *testing.T) {
	q := func(run uint32, typ EventType, size, qLen int32, qBytes, qCap int64) Event {
		return Event{T: des.Time(qBytes), Run: run, Type: typ, Node: 4, Peer: 7,
			Size: size, QLen: qLen, QBytes: qBytes, QCap: qCap}
	}
	pfc := func(run uint32, typ EventType) Event {
		return Event{T: 3, Run: run, Type: typ, Node: 4, Peer: 7}
	}
	streams := []struct {
		name string
		evs  []Event
	}{
		{"clean", []Event{q(1, Enqueue, 1000, 1, 1000, 0), q(1, Dequeue, 1000, 0, 0, 0),
			pfc(1, Pause), pfc(1, Resume)}},
		{"divergence", []Event{q(1, Enqueue, 1000, 1, 1000, 0), q(1, Enqueue, 1000, 2, 1900, 0),
			q(1, Dequeue, 1000, 1, 900, 0)}},
		{"closure", []Event{q(1, Enqueue, 1000, 1, 1000, 0), q(1, Dequeue, 600, 0, 0, 0)}},
		{"negative", []Event{q(1, Dequeue, 100, -1, -100, 0)}},
		{"empty-with-bytes", []Event{q(1, Enqueue, 100, 0, 100, 0)}},
		{"over-capacity", []Event{q(1, Enqueue, 1500, 1, 1500, 1000), q(1, Enqueue, 1500, 2, 3000, 1000)}},
		{"double-pause", []Event{pfc(1, Pause), pfc(1, Pause)}},
		{"orphan-resume", []Event{pfc(1, Resume), pfc(1, Pause), pfc(1, Resume), pfc(1, Resume)}},
		{"runs-apart", []Event{q(1, Enqueue, 700, 1, 700, 0), q(2, Enqueue, 500, 1, 500, 0),
			pfc(1, Pause), pfc(2, Pause), q(2, Enqueue, 500, 1, 500, 0), q(1, Dequeue, 700, 0, 0, 0)}},
	}
	for _, st := range streams {
		t.Run(st.name, func(t *testing.T) {
			fed, bound := NewChecker(), NewChecker()
			for _, e := range st.evs {
				fed.Feed(e)
				b := bound.Port(e.Run, e.Node, e.Peer)
				if e.Type == Pause || e.Type == Resume {
					b.PFC(e.T, e.Type == Pause)
				} else {
					b.Queue(e.T, e.Type == Enqueue, e.Size, e.QLen, e.QBytes, e.QCap)
				}
			}
			fed.Finish(des.Time(99))
			bound.Finish(des.Time(99))
			fv, bv := fed.Violations(), bound.Violations()
			if len(fv) != len(bv) {
				t.Fatalf("Feed gave %d violations, Port %d:\n%v\n%v", len(fv), len(bv), fv, bv)
			}
			for i := range fv {
				if fv[i] != bv[i] {
					t.Errorf("violation %d: Feed %q, Port %q", i, fv[i], bv[i])
				}
			}
			if (st.name == "clean") != (len(fv) == 0) {
				t.Errorf("stream %s gave violations %v", st.name, fv)
			}
		})
	}
}

func TestCheckerDoubleFreeFires(t *testing.T) {
	c := NewChecker()
	c.Feed(Event{T: des.Time(7), Type: DoubleFree, Pkt: 99, Flow: 3})
	if c.Count(InvDoubleFree) != 1 {
		t.Fatalf("Count = %d, want 1", c.Count(InvDoubleFree))
	}
	v := c.Violations()
	if len(v) != 1 || v[0].Invariant != InvDoubleFree || !strings.Contains(v[0].Detail, "99") {
		t.Fatalf("violation record %+v", v)
	}
	if got := v[0].String(); !strings.Contains(got, "double-free") {
		t.Errorf("violation renders as %q, want the invariant name in it", got)
	}
}

func TestCheckerViolationStorm(t *testing.T) {
	c := NewChecker()
	for i := 0; i < 200; i++ {
		c.Feed(Event{Type: DoubleFree, Pkt: uint64(i)})
	}
	if got := c.Total(); got != 200 {
		t.Fatalf("Total = %d, want 200 (counts keep counting past the detail cap)", got)
	}
	if got := len(c.Violations()); got != maxViolationDetails {
		t.Fatalf("stored %d violation details, want the %d cap", got, maxViolationDetails)
	}
}

func TestCheckerFeedAllocFree(t *testing.T) {
	c := NewChecker()
	enq := queueEvent(Enqueue, 1000, 1, 1000)
	deq := queueEvent(Dequeue, 1000, 0, 0)
	// Warm the per-port map entry.
	c.Feed(enq)
	c.Feed(deq)
	if n := testing.AllocsPerRun(1000, func() {
		c.Feed(enq)
		c.Feed(deq)
	}); n != 0 {
		t.Fatalf("Feed allocates %.2f per pair after warm-up, want 0", n)
	}
}

func TestObserverEmitRouting(t *testing.T) {
	o := Full()
	m := NewMemorySink[Event](4)
	o.Trace = NewTracer(m)
	o.Emit(Event{Type: DoubleFree, Pkt: 1})
	if o.Trace.Count(DoubleFree) != 1 {
		t.Error("Emit did not reach the tracer")
	}
	if o.Check.Count(InvDoubleFree) != 1 {
		t.Error("Emit did not reach the checker")
	}
	if len(m.Records()) != 1 {
		t.Error("Emit did not reach the sink")
	}
	// Partially-populated observers route only what exists.
	part := &NetObserver{Trace: NewTracer()}
	part.Emit(Event{Type: Mark})
	if part.Trace.Count(Mark) != 1 {
		t.Error("partial observer dropped the event")
	}
}

func TestProbeCadenceDefault(t *testing.T) {
	o := &NetObserver{}
	if got := o.ProbeCadence(); got != 100*des.Microsecond {
		t.Errorf("default cadence %v, want 100µs", got)
	}
	o.ProbeEvery = des.Millisecond
	if got := o.ProbeCadence(); got != des.Millisecond {
		t.Errorf("configured cadence %v, want 1ms", got)
	}
}
