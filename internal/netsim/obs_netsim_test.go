package netsim

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"ecndelay/internal/des"
	"ecndelay/internal/obs"
)

// The obs package renders packet kinds from a name table it cannot derive
// from netsim (importing it would cycle); this test pins the value
// correspondence.
func TestObsKindNamesMatchNetsim(t *testing.T) {
	want := map[Kind]string{
		Data: "data", Ack: "ack", CNP: "cnp",
		Pause: "pause", Resume: "resume", Nack: "nack",
	}
	for k, name := range want {
		if got := obs.KindName(uint8(k)); got != name {
			t.Errorf("obs.KindName(%d) = %q, want %q (netsim.%v)", k, got, name, k)
		}
	}
}

// observedNet builds a network with every obs facility attached before any
// topology exists, so all counters bind at creation.
func observedNet(seed int64) (*Network, *obs.NetObserver) {
	nw := New(seed)
	nw.SetPooling(true)
	o := obs.Full()
	nw.SetObserver(o)
	return nw, o
}

func TestObsCountersMatchGroundTruth(t *testing.T) {
	nw, o := observedNet(3)
	star := NewStar(nw, StarConfig{
		Senders: 2,
		Link:    LinkConfig{Bandwidth: 1.25e8, PropDelay: des.Microsecond},
		Mark: func() Marker {
			return &REDMarker{Kmin: 1000, Kmax: 5000, Pmax: 0.5, Rng: nw.Rng}
		},
		SwitchQueueCap: 20000,
	})
	delivered, marked := 0, 0
	star.Receiver.Transport = TransportFunc(func(h *Host, pkt *Packet) {
		delivered++
		if pkt.CE {
			marked++
		}
	})
	for _, s := range star.Senders {
		for i := 0; i < 300; i++ {
			pkt := nw.NewPacket()
			pkt.Dst = star.Receiver.ID()
			pkt.Size = DataMTU
			pkt.Kind = Data
			pkt.ECT = true
			s.Send(pkt)
		}
	}
	nw.Sim.Run()

	bn := PortName(star.Switch.ID(), star.Receiver.ID())
	reg := o.Metrics
	if got, want := reg.Counter(bn+".tx_bytes").Value(), star.Bottleneck.TxBytes; got != want {
		t.Errorf("%s.tx_bytes = %d, ground truth %d", bn, got, want)
	}
	if got, want := reg.Counter(bn+".buf_drops").Value(), star.Bottleneck.Queue().Drops(); got != want {
		t.Errorf("%s.buf_drops = %d, ground truth %d", bn, got, want)
	}
	if got, want := reg.Counter(bn+".marks").Value(), int64(marked); got != want {
		t.Errorf("%s.marks = %d, receiver saw %d CE packets", bn, got, want)
	}
	if marked == 0 || star.Bottleneck.Queue().Drops() == 0 {
		t.Fatalf("scenario not exercising marks (%d) and drops (%d)", marked, star.Bottleneck.Queue().Drops())
	}
	// Trace totals agree with the counters and with delivery.
	if got := o.Trace.Count(obs.Mark); got != int64(marked) {
		t.Errorf("trace marks %d, want %d", got, marked)
	}
	if got := o.Trace.Count(obs.BufDrop); got != star.Bottleneck.Queue().Drops() {
		t.Errorf("trace buf drops %d, want %d", got, star.Bottleneck.Queue().Drops())
	}
	if got := o.Trace.Count(obs.Deliver); got != int64(delivered) {
		t.Errorf("trace delivers %d, want %d", got, delivered)
	}
	// All queues drained: enqueues and dequeues must balance.
	if enq, deq := o.Trace.Count(obs.Enqueue), o.Trace.Count(obs.Dequeue); enq != deq {
		t.Errorf("enq %d != deq %d with all queues drained", enq, deq)
	}
	// And the invariant checker saw nothing wrong end to end.
	o.Check.Finish(nw.Sim.Now())
	if err := o.Check.Err(); err != nil {
		t.Errorf("invariants violated on a healthy run: %v", err)
	}
}

func TestObsWireDropCounter(t *testing.T) {
	nw := New(5)
	o := obs.Full()
	nw.SetObserver(o)
	rx := nw.NewHost()
	tx := nw.NewHost()
	tx.Connect(rx, 1.25e8, des.Microsecond, nil)
	rx.Connect(tx, 1.25e8, des.Microsecond, nil)
	rx.Transport = TransportFunc(func(h *Host, pkt *Packet) {})
	for i := 0; i < 10; i++ {
		tx.Send(&Packet{Dst: rx.ID(), Size: DataMTU, Kind: Data})
	}
	// Take the link down mid-flight: everything still in the pipe or the
	// queue is lost on the wire.
	nw.Sim.At(des.Time(20*des.Microsecond), func() { tx.Port().SetLinkDown(true) })
	nw.Sim.Run()
	if tx.Port().WireDrops() == 0 {
		t.Fatal("scenario lost nothing; cannot validate the counter")
	}
	name := PortName(tx.ID(), rx.ID()) + ".wire_drops"
	if got, want := o.Metrics.Counter(name).Value(), tx.Port().WireDrops(); got != want {
		t.Errorf("%s = %d, ground truth %d", name, got, want)
	}
	if got := o.Trace.Count(obs.WireDrop); got != tx.Port().WireDrops() {
		t.Errorf("trace wire drops %d, want %d", got, tx.Port().WireDrops())
	}
}

// A PFC scenario: pauses and resumes alternate, the counters match the
// trace, and the pairing invariant holds on a genuine run.
func TestObsPFCCleanAndCounted(t *testing.T) {
	nw, o := observedNet(7)
	star := NewStar(nw, StarConfig{
		Senders: 2,
		Link:    LinkConfig{Bandwidth: 1.25e8, PropDelay: des.Microsecond},
		PFC:     PFCConfig{PauseBytes: 3000, ResumeBytes: 1000},
	})
	star.Receiver.Transport = TransportFunc(func(h *Host, pkt *Packet) {})
	for i := 0; i < 100; i++ {
		for _, s := range star.Senders {
			pkt := nw.NewPacket()
			pkt.Dst = star.Receiver.ID()
			pkt.Size = DataMTU
			pkt.Kind = Data
			s.Send(pkt)
		}
	}
	nw.Sim.Run()
	pauses, resumes := o.Trace.Count(obs.Pause), o.Trace.Count(obs.Resume)
	if pauses == 0 {
		t.Fatal("PFC never engaged; scenario broken")
	}
	if pauses != resumes {
		t.Errorf("pauses %d != resumes %d after full drain", pauses, resumes)
	}
	var ctrPauses, ctrResumes int64
	for _, m := range o.Metrics.Snapshot() {
		switch {
		case len(m.Name) > 7 && m.Name[len(m.Name)-7:] == ".pauses":
			ctrPauses += m.Value
		case len(m.Name) > 8 && m.Name[len(m.Name)-8:] == ".resumes":
			ctrResumes += m.Value
		}
	}
	if ctrPauses != pauses || ctrResumes != resumes {
		t.Errorf("counters (%d,%d) disagree with trace (%d,%d)", ctrPauses, ctrResumes, pauses, resumes)
	}
	o.Check.Finish(nw.Sim.Now())
	if err := o.Check.Err(); err != nil {
		t.Errorf("invariants violated on a healthy PFC run: %v", err)
	}
}

// Pause/resume records carry no packet, so their kind must render as "-"
// in the trace, never as a phantom data packet.
func TestObsPauseResumeKindNone(t *testing.T) {
	nw, o := observedNet(7)
	ms := obs.NewMemorySink[obs.Event](0)
	o.Trace = obs.NewTracer(ms)
	star := NewStar(nw, StarConfig{
		Senders: 2,
		Link:    LinkConfig{Bandwidth: 1.25e8, PropDelay: des.Microsecond},
		PFC:     PFCConfig{PauseBytes: 3000, ResumeBytes: 1000},
	})
	star.Receiver.Transport = TransportFunc(func(h *Host, pkt *Packet) {})
	for i := 0; i < 100; i++ {
		for _, s := range star.Senders {
			pkt := nw.NewPacket()
			pkt.Dst = star.Receiver.ID()
			pkt.Size = DataMTU
			pkt.Kind = Data
			s.Send(pkt)
		}
	}
	nw.Sim.Run()
	if o.Trace.Count(obs.Pause) == 0 {
		t.Fatal("PFC never engaged; scenario broken")
	}
	for _, e := range ms.Records() {
		switch e.Type {
		case obs.Pause, obs.Resume:
			if e.Kind != obs.KindNone {
				t.Fatalf("%s record carries kind %q, want %q",
					e.Type, obs.KindName(e.Kind), obs.KindName(obs.KindNone))
			}
		case obs.Enqueue:
			if e.Kind == obs.KindNone {
				t.Fatal("packet-carrying record lost its kind")
			}
		}
	}
}

// Two networks observed by one shared observer get distinct run tags, so
// their identically-numbered ports never share invariant books — even when
// the first network stops mid-flight with packets still queued and a later
// network reuses the same node ids from zero.
func TestObsSharedObserverAcrossNetworks(t *testing.T) {
	o := obs.Full()
	ms := obs.NewMemorySink[obs.Event](0)
	o.Trace = obs.NewTracer(ms)
	run := func(stopEarly bool) {
		nw, tx, rx := twoHopChain(1)
		nw.SetObserver(o)
		rx.Transport = TransportFunc(func(h *Host, pkt *Packet) {})
		for i := 0; i < 32; i++ {
			pkt := nw.NewPacket()
			pkt.Dst = rx.ID()
			pkt.Size = DataMTU
			pkt.Kind = Data
			tx.Send(pkt)
		}
		if stopEarly {
			// Stop with the switch queue still holding packets: the books
			// for this run legitimately end non-empty.
			nw.Sim.RunUntil(des.Time(30 * des.Microsecond))
		} else {
			nw.Sim.Run()
		}
		o.Check.Finish(nw.Sim.Now())
	}
	run(true)
	run(false)
	if err := o.Check.Err(); err != nil {
		t.Errorf("shared checker mixed books across networks: %v", err)
	}
	runs := make(map[uint32]bool)
	for _, e := range ms.Records() {
		runs[e.Run] = true
	}
	if len(runs) != 2 || runs[0] {
		t.Errorf("expected 2 distinct nonzero run tags, got %v", runs)
	}
}

// Concurrent jobs share one checker the way ecnbench and exp.SweepJobs
// share it: each goroutine runs its network on its own ForJob copy and
// finishes that copy. A healthy run leaves the shared checker clean, and
// one inconsistent record per job counts exactly as the same jobs count
// when run one after another. Run it under -race: a checker whose books
// no job owns lets one job's Finish read another job's books mid-run.
func TestObsConcurrentJobsShareChecker(t *testing.T) {
	const jobs = 4
	job := func(o *obs.NetObserver, i int, broken bool) {
		jo := o.ForJob(fmt.Sprintf("job%d", i))
		nw, tx, rx := twoHopChain(int64(i + 1))
		nw.SetObserver(jo)
		rx.Transport = TransportFunc(func(h *Host, pkt *Packet) {})
		if broken {
			// A port no packet crosses: the books hold 1000 bytes, the
			// queue reports 500, and the closure check sees it again.
			jo.Check.Feed(obs.Event{Run: nw.obsRun, Type: obs.Enqueue,
				Node: int32(rx.ID()), Peer: -1, Size: 1000, QLen: 1, QBytes: 500})
		}
		for k := 0; k < 256; k++ {
			pkt := nw.NewPacket()
			pkt.Dst = rx.ID()
			pkt.Size = DataMTU
			pkt.Kind = Data
			tx.Send(pkt)
		}
		nw.Sim.Run()
		jo.Check.Finish(nw.Sim.Now())
	}
	run := func(broken, concurrent bool) *obs.Checker {
		o := &obs.NetObserver{Check: obs.NewChecker()}
		var wg sync.WaitGroup
		for i := 0; i < jobs; i++ {
			if !concurrent {
				job(o, i, broken)
				continue
			}
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				job(o, i, broken)
			}(i)
		}
		wg.Wait()
		return o.Check
	}
	t.Run("clean", func(t *testing.T) {
		if err := run(false, true).Err(); err != nil {
			t.Errorf("concurrent jobs on one checker: %v", err)
		}
	})
	t.Run("violations", func(t *testing.T) {
		got, want := run(true, true), run(true, false)
		if want.Total() != 2*jobs {
			t.Fatalf("serial jobs raised %d violations, want %d", want.Total(), 2*jobs)
		}
		if got.Total() != want.Total() {
			t.Errorf("concurrent Total %d, serial %d", got.Total(), want.Total())
		}
		for _, inv := range []obs.Invariant{obs.InvConservation, obs.InvQueueBounds,
			obs.InvPFCPairing, obs.InvDoubleFree} {
			if got.Count(inv) != want.Count(inv) {
				t.Errorf("%s: concurrent count %d, serial %d", inv, got.Count(inv), want.Count(inv))
			}
		}
	})
}

// Freeing a pooled packet twice is detected when an observer watches, and
// the pool is protected from the corrupting second push.
func TestObsDoubleFreeDetected(t *testing.T) {
	nw := New(1)
	nw.SetPooling(true)
	o := obs.Full()
	nw.SetObserver(o)
	pkt := nw.NewPacket()
	pkt.ID = 42
	nw.FreePacket(pkt)
	if got := nw.PoolSize(); got != 1 {
		t.Fatalf("PoolSize = %d after first free, want 1", got)
	}
	nw.FreePacket(pkt)
	if got := o.Check.Count(obs.InvDoubleFree); got != 1 {
		t.Errorf("double-free violations = %d, want 1", got)
	}
	if got := o.Trace.Count(obs.DoubleFree); got != 1 {
		t.Errorf("double-free trace events = %d, want 1", got)
	}
	if got := nw.PoolSize(); got != 1 {
		t.Errorf("PoolSize = %d after double free, want 1 (second push rejected)", got)
	}
	// Legitimate reuse does not trip the detector.
	again := nw.NewPacket()
	nw.FreePacket(again)
	if got := o.Check.Count(obs.InvDoubleFree); got != 1 {
		t.Errorf("legitimate free counted as double free (%d violations)", got)
	}
}

// Attaching a full observer must not perturb the simulation: same seed,
// same traffic, same event count, same clock, observer on or off.
func TestObsOnOffDeterminism(t *testing.T) {
	run := func(observe bool) (processed uint64, now des.Time, delivered int, tx int64) {
		nw := New(11)
		nw.SetPooling(true)
		if observe {
			nw.SetObserver(obs.Full())
		}
		star := NewStar(nw, StarConfig{
			Senders: 3,
			Link:    LinkConfig{Bandwidth: 1.25e9, PropDelay: des.Microsecond},
			Mark: func() Marker {
				return &REDMarker{Kmin: 1000, Kmax: 5000, Pmax: 0.5, Rng: nw.Rng}
			},
			PFC: PFCConfig{PauseBytes: 50000, ResumeBytes: 20000},
		})
		star.Receiver.Transport = TransportFunc(func(h *Host, pkt *Packet) {
			delivered++
		})
		for _, s := range star.Senders {
			for i := 0; i < 500; i++ {
				pkt := nw.NewPacket()
				pkt.Dst = star.Receiver.ID()
				pkt.Size = DataMTU
				pkt.Kind = Data
				pkt.ECT = true
				s.Send(pkt)
			}
		}
		nw.Sim.Run()
		return nw.Sim.Processed(), nw.Sim.Now(), delivered, star.Bottleneck.TxBytes
	}
	p1, t1, d1, x1 := run(true)
	p2, t2, d2, x2 := run(false)
	if p1 != p2 || t1 != t2 || d1 != d2 || x1 != x2 {
		t.Errorf("observed run (%d,%v,%d,%d) != unobserved run (%d,%v,%d,%d)",
			p1, t1, d1, x1, p2, t2, d2, x2)
	}
}

// The packet hot path must stay allocation-free with a full observer
// attached, once counters are bound and checker port entries exist. The
// trace memory sink is preallocated with room for every event the drives
// below emit, so recording never grows it.
func TestObservedHotPathAllocFree(t *testing.T) {
	nw, tx, rx := twoHopChain(1)
	o := obs.Full()
	const room = 1 << 14
	sink := obs.NewMemorySink[obs.Event](room)
	o.Trace = obs.NewTracer(sink)
	nw.SetObserver(o)
	delivered := 0
	rx.Transport = TransportFunc(func(h *Host, pkt *Packet) { delivered++ })
	drive := func() {
		for i := 0; i < 32; i++ {
			pkt := nw.NewPacket()
			pkt.Dst = rx.ID()
			pkt.Size = DataMTU
			pkt.Kind = Data
			pkt.ECT = true
			tx.Send(pkt)
		}
		nw.Sim.Run()
	}
	drive() // warm pools, counters and checker state
	drive()
	if allocs := testing.AllocsPerRun(50, drive); allocs != 0 {
		t.Errorf("observed packet hot path allocates %.1f allocs/run, want 0", allocs)
	}
	if delivered == 0 {
		t.Fatal("no packets delivered")
	}
	if n := len(sink.Records()); cap(sink.Records()) != room || n == 0 {
		t.Errorf("the sink holds %d events in room for %d; it must record without growing", n, cap(sink.Records()))
	}
	o.Check.Finish(nw.Sim.Now())
	if err := o.Check.Err(); err != nil {
		t.Errorf("invariants violated: %v", err)
	}
}

// A checker attached without a tracer still sees every queue and PFC
// action, through the books the ports bind: a queue byte count corrupted
// mid-run and a forced second pause are both caught, whether the observer
// is attached before the topology is built or after it.
func TestObsCheckerOnlyBoundPath(t *testing.T) {
	run := func(late, corrupt bool) (*obs.Checker, *Star) {
		nw := New(5)
		o := &obs.NetObserver{Check: obs.NewChecker()}
		if !late {
			nw.SetObserver(o)
		}
		star := NewStar(nw, StarConfig{
			Senders: 2,
			Link:    LinkConfig{Bandwidth: 1.25e8, PropDelay: des.Microsecond},
		})
		if late {
			nw.SetObserver(o)
		}
		star.Receiver.Transport = TransportFunc(func(h *Host, pkt *Packet) {})
		for i := 0; i < 100; i++ {
			for _, s := range star.Senders {
				pkt := nw.NewPacket()
				pkt.Dst = star.Receiver.ID()
				pkt.Size = DataMTU
				pkt.Kind = Data
				s.Send(pkt)
			}
		}
		if corrupt {
			nw.Sim.At(des.Time(50*des.Microsecond), func() { star.Bottleneck.queue.bytes += 100 })
			p := star.Senders[0].Port()
			nw.Sim.At(des.Time(100*des.Microsecond), func() {
				p.pause()
				p.paused = false // forget the pause, so the next one is a transition
				p.pause()
			})
			nw.Sim.At(des.Time(200*des.Microsecond), func() { p.unpause() })
		}
		nw.Sim.Run()
		o.Check.Finish(nw.Sim.Now())
		return o.Check, star
	}
	for _, tc := range []struct {
		name string
		late bool
	}{{"attach-first", false}, {"late-attach", true}} {
		t.Run(tc.name, func(t *testing.T) {
			if c, _ := run(tc.late, false); c.Total() != 0 {
				t.Fatalf("clean run raised %v", c.Violations())
			}
			c, star := run(tc.late, true)
			if c.Count(obs.InvConservation) == 0 {
				t.Fatalf("corrupted queue bytes not reported: %v", c.Violations())
			}
			bn := fmt.Sprintf("port %d->%d ", star.Switch.ID(), star.Receiver.ID())
			for _, v := range c.Violations() {
				if v.Invariant == obs.InvConservation && !strings.Contains(v.Detail, bn) {
					t.Errorf("conservation violation on the wrong port: %v", v)
				}
			}
			var pairing []obs.Violation
			for _, v := range c.Violations() {
				if v.Invariant == obs.InvPFCPairing {
					pairing = append(pairing, v)
				}
			}
			if len(pairing) != 1 || !strings.Contains(pairing[0].Detail, "paused twice") {
				t.Errorf("forced second pause: pairing violations %v, want one double pause", pairing)
			}
		})
	}
}

// SetObserver after ports exist still binds their counters (late attach).
func TestObsLateAttachBindsExistingPorts(t *testing.T) {
	nw := New(1)
	rx := nw.NewHost()
	tx := nw.NewHost()
	tx.Connect(rx, 1.25e9, des.Microsecond, nil)
	rx.Connect(tx, 1.25e9, des.Microsecond, nil)
	o := obs.Full()
	nw.SetObserver(o) // ports already created
	rx.Transport = TransportFunc(func(h *Host, pkt *Packet) {})
	tx.Send(&Packet{Dst: rx.ID(), Size: DataMTU, Kind: Data})
	nw.Sim.Run()
	name := PortName(tx.ID(), rx.ID()) + ".tx_bytes"
	if got := o.Metrics.Counter(name).Value(); got != DataMTU {
		t.Errorf("%s = %d after late attach, want %d", name, got, DataMTU)
	}
	// Detaching stops everything without disturbing the run.
	nw.SetObserver(nil)
	tx.Send(&Packet{Dst: rx.ID(), Size: DataMTU, Kind: Data})
	nw.Sim.Run()
	if got := o.Metrics.Counter(name).Value(); got != DataMTU {
		t.Errorf("%s = %d after detach, want unchanged %d", name, got, DataMTU)
	}
}

// The parking-lot topology under cross traffic keeps every invariant:
// multi-hop store-and-forward, two trunks, all queues drained.
func TestObsParkingLotCleanInvariants(t *testing.T) {
	nw, o := observedNet(9)
	pl := NewParkingLot(nw, ParkingLotConfig{
		Hops: 3,
		Link: LinkConfig{Bandwidth: 1.25e8, PropDelay: des.Microsecond},
	})
	for _, r := range pl.Recvs {
		r.Transport = TransportFunc(func(h *Host, pkt *Packet) {})
	}
	for i := 0; i < 50; i++ {
		pl.Senders[0].Send(&Packet{Dst: pl.Recvs[2].ID(), Size: DataMTU, Kind: Data})
		pl.Senders[1].Send(&Packet{Dst: pl.Recvs[1].ID(), Size: DataMTU, Kind: Data})
		pl.Senders[2].Send(&Packet{Dst: pl.Recvs[0].ID(), Size: DataMTU, Kind: Data})
	}
	nw.Sim.Run()
	if o.Trace.Count(obs.Deliver) != 150 {
		t.Fatalf("delivered %d, want 150", o.Trace.Count(obs.Deliver))
	}
	o.Check.Finish(nw.Sim.Now())
	if err := o.Check.Err(); err != nil {
		t.Errorf("parking-lot invariants violated: %v", err)
	}
}

// A PFC pause storm long enough to trip the watchdog still satisfies the
// pairing invariant: storms are a performance pathology, not a protocol
// violation, and the checker must not confuse the two.
func TestObsWatchdogStormCleanPairing(t *testing.T) {
	nw, o := observedNet(13)
	rx := nw.NewHost()
	tx := nw.NewHost()
	p := tx.Connect(rx, 1.25e8, des.Microsecond, nil)
	wd := NewPFCWatchdog(nw.Sim, 100*des.Microsecond)
	wd.Watch(p)
	nw.Sim.At(des.Time(10*des.Microsecond), func() { p.pause() })
	nw.Sim.At(des.Time(15*des.Microsecond), func() { p.pause() }) // idempotent re-pause: absorbed
	nw.Sim.At(des.Time(500*des.Microsecond), func() { p.unpause() })
	nw.Sim.Run()
	if wd.Storms() != 1 {
		t.Fatalf("storms = %d, want 1 (scenario must trip the watchdog)", wd.Storms())
	}
	if got := o.Trace.Count(obs.Pause); got != 1 {
		t.Errorf("trace pauses = %d, want 1 (re-pause is not a transition)", got)
	}
	o.Check.Finish(nw.Sim.Now())
	if err := o.Check.Err(); err != nil {
		t.Errorf("storm run violated invariants: %v", err)
	}
}

// Mark episodes: each threshold excursion gets a unique id stamped at the
// marker, every fresh CE mark carries it on the packet, and the episode
// closes when the queue falls back below the threshold — so a receiver
// (and the CNPs it reflects) can name the exact congestion event behind
// each mark.
func TestObsMarkEpisodeLifecycle(t *testing.T) {
	mem := obs.NewMemorySink[obs.Decision](0)
	o := &obs.NetObserver{Audit: obs.NewAuditTrail(mem), Hists: obs.NewHistSet()}
	nw := New(1)
	nw.SetPooling(true)
	nw.SetObserver(o)
	star := NewStar(nw, StarConfig{
		Senders: 3, // 3× incast: the bottleneck queue must build
		Link:    LinkConfig{Bandwidth: 1.25e9, PropDelay: des.Microsecond},
		Mark: func() Marker {
			// A cliff at 3 packets: marking is deterministic above Kmax.
			return &REDMarker{Kmin: 3 * DataMTU, Kmax: 3*DataMTU + 1, Pmax: 1, Rng: nw.Rng}
		},
	})
	var marks []uint64
	var markT []des.Time
	star.Receiver.Transport = TransportFunc(func(h *Host, pkt *Packet) {
		if pkt.CE {
			marks = append(marks, pkt.MarkEp)
			markT = append(markT, pkt.MarkT)
		}
	})
	burst := func() {
		for _, s := range star.Senders {
			for i := 0; i < 20; i++ {
				pkt := nw.NewPacket()
				pkt.Dst = star.Receiver.ID()
				pkt.Size = DataMTU
				pkt.Kind = Data
				pkt.ECT = true
				s.Send(pkt)
			}
		}
	}
	burst()
	nw.Sim.Run() // queue drains to zero: the episode must close
	burst()
	nw.Sim.Run()

	var opens, closes []obs.Decision
	for _, d := range mem.Records() {
		switch d.Type {
		case obs.DecMarkOpen:
			opens = append(opens, d)
		case obs.DecMarkClose:
			closes = append(closes, d)
		}
	}
	if len(opens) != 2 || len(closes) != 2 {
		t.Fatalf("got %d opens, %d closes; want 2 and 2 (one per burst)", len(opens), len(closes))
	}
	if opens[0].Episode == 0 || opens[0].Episode == opens[1].Episode {
		t.Errorf("episode ids not unique: %d, %d", opens[0].Episode, opens[1].Episode)
	}
	for i := range opens {
		if closes[i].Episode != opens[i].Episode {
			t.Errorf("close %d names episode %d, open was %d", i, closes[i].Episode, opens[i].Episode)
		}
		if opens[i].QBytes <= int64(3*DataMTU) {
			t.Errorf("open %d queue depth %d not above the threshold", i, opens[i].QBytes)
		}
	}
	if len(marks) == 0 {
		t.Fatal("no CE-marked packet reached the receiver")
	}
	// Every mark names one of the two episodes, all first-episode marks
	// precede all second-episode marks, and both episodes produced marks.
	firstDone := false
	seen := map[uint64]bool{}
	for i, ep := range marks {
		seen[ep] = true
		switch ep {
		case opens[0].Episode:
			if firstDone {
				t.Errorf("mark %d names episode 1 after episode 2 began", i)
			}
		case opens[1].Episode:
			firstDone = true
		default:
			t.Errorf("mark %d carries unknown episode %d", i, ep)
		}
		if markT[i] == 0 {
			t.Errorf("mark %d carries no mark timestamp", i)
		}
	}
	if !seen[opens[0].Episode] || !seen[opens[1].Episode] {
		t.Errorf("marks covered episodes %v, want both %d and %d", seen, opens[0].Episode, opens[1].Episode)
	}
	if h := o.Hist("ctl.cross_to_mark_s"); h.Count() != 2 {
		t.Errorf("cross_to_mark histogram has %d samples, want 2 (one per episode)", h.Count())
	}

	// Detached: the same run stamps nothing — provenance fields stay zero.
	nw2 := New(1)
	nw2.SetPooling(true)
	star2 := NewStar(nw2, StarConfig{
		Senders: 3,
		Link:    LinkConfig{Bandwidth: 1.25e9, PropDelay: des.Microsecond},
		Mark: func() Marker {
			return &REDMarker{Kmin: 3 * DataMTU, Kmax: 3*DataMTU + 1, Pmax: 1, Rng: nw2.Rng}
		},
	})
	ceSeen := false
	star2.Receiver.Transport = TransportFunc(func(h *Host, pkt *Packet) {
		if pkt.CE {
			ceSeen = true
			if pkt.MarkEp != 0 || pkt.MarkT != 0 {
				t.Errorf("detached run stamped provenance: ep=%d t=%v", pkt.MarkEp, pkt.MarkT)
			}
		}
	})
	for _, s2 := range star2.Senders {
		for i := 0; i < 20; i++ {
			pkt := nw2.NewPacket()
			pkt.Dst = star2.Receiver.ID()
			pkt.Size = DataMTU
			pkt.Kind = Data
			pkt.ECT = true
			s2.Send(pkt)
		}
	}
	nw2.Sim.Run()
	if !ceSeen {
		t.Fatal("detached run produced no CE marks; scenario not comparable")
	}
}
