package netsim

import (
	"testing"

	"ecndelay/internal/des"
)

// --- Finite queue capacity (tail drop) ---

func TestQueueCapTailDrop(t *testing.T) {
	q := NewQueue(nil)
	q.SetCapBytes(2500)
	if q.CapBytes() != 2500 {
		t.Fatalf("CapBytes = %d, want 2500", q.CapBytes())
	}
	for i := 0; i < 5; i++ {
		q.Push(&Packet{ID: uint64(i), Size: 1000})
	}
	// 1000 + 1000 admitted; the third would hit 3000 > 2500 → dropped.
	if q.Len() != 2 || q.Bytes() != 2000 {
		t.Errorf("len/bytes = %d/%d, want 2/2000", q.Len(), q.Bytes())
	}
	if q.Drops() != 3 || q.DroppedBytes() != 3000 {
		t.Errorf("drops/bytes = %d/%d, want 3/3000", q.Drops(), q.DroppedBytes())
	}
	// FIFO order of survivors.
	if q.Pop().ID != 0 || q.Pop().ID != 1 {
		t.Error("tail drop disturbed FIFO order of admitted packets")
	}
}

func TestQueueCapEmptyQueueAdmitsOversize(t *testing.T) {
	q := NewQueue(nil)
	q.SetCapBytes(100) // below the packet size
	if !q.Push(&Packet{Size: 1000}) {
		t.Fatal("empty queue must admit one packet even above capacity")
	}
	if q.Push(&Packet{Size: 1000}) {
		t.Fatal("second oversize packet must tail-drop")
	}
	if q.Drops() != 1 {
		t.Errorf("drops = %d, want 1", q.Drops())
	}
}

func TestQueueCapZeroIsUnbounded(t *testing.T) {
	q := NewQueue(nil)
	for i := 0; i < 1000; i++ {
		if !q.Push(&Packet{Size: DataMTU}) {
			t.Fatal("unbounded queue dropped a packet")
		}
	}
	if q.Drops() != 0 {
		t.Errorf("drops = %d on unbounded queue", q.Drops())
	}
}

// A finite switch buffer under 2:1 overload: every sent packet is either
// delivered or accounted as a tail drop — no packet vanishes.
func TestFiniteSwitchBufferConservesWithDrops(t *testing.T) {
	nw := New(1)
	star := NewStar(nw, StarConfig{
		Senders:        2,
		Link:           LinkConfig{Bandwidth: 1.25e8, PropDelay: des.Microsecond},
		SwitchQueueCap: 5000,
	})
	received := 0
	star.Receiver.Transport = TransportFunc(func(h *Host, pkt *Packet) { received++ })
	const n = 200
	for i := 0; i < n/2; i++ {
		star.Senders[0].Send(&Packet{Dst: star.Receiver.ID(), Size: DataMTU, Kind: Data})
		star.Senders[1].Send(&Packet{Dst: star.Receiver.ID(), Size: DataMTU, Kind: Data})
	}
	nw.Sim.Run()
	drops := int(star.Bottleneck.Queue().Drops())
	if drops == 0 {
		t.Error("2:1 overload of a 5 KB buffer produced no tail drops")
	}
	if received+drops != n {
		t.Errorf("received %d + drops %d = %d, want %d (conservation)",
			received, drops, received+drops, n)
	}
	if star.Bottleneck.Queue().DroppedBytes() != int64(drops)*DataMTU {
		t.Errorf("dropped bytes %d, want %d",
			star.Bottleneck.Queue().DroppedBytes(), drops*DataMTU)
	}
}

// Tail drops must release PFC ingress accounting: with a buffer smaller
// than the pause threshold region, the run must terminate with zeroed
// ingress counters and no port left paused (a leak would wedge the fabric).
func TestFiniteBufferReleasesPFCAccounting(t *testing.T) {
	nw := New(1)
	star := NewStar(nw, StarConfig{
		Senders:        2,
		Link:           LinkConfig{Bandwidth: 1.25e8, PropDelay: des.Microsecond},
		PFC:            PFCConfig{PauseBytes: 2000, ResumeBytes: 1000},
		SwitchQueueCap: 3000,
	})
	received := 0
	star.Receiver.Transport = TransportFunc(func(h *Host, pkt *Packet) { received++ })
	const n = 100
	for i := 0; i < n/2; i++ {
		star.Senders[0].Send(&Packet{Dst: star.Receiver.ID(), Size: DataMTU, Kind: Data})
		star.Senders[1].Send(&Packet{Dst: star.Receiver.ID(), Size: DataMTU, Kind: Data})
	}
	nw.Sim.Run()
	drops := int(star.Bottleneck.Queue().Drops())
	if received+drops != n {
		t.Errorf("received %d + drops %d != sent %d", received, drops, n)
	}
	for i, use := range star.Switch.ingressUse {
		if use != 0 {
			t.Errorf("ingress %d still accounts %d bytes after drain (leak)", i, use)
		}
	}
	for _, s := range star.Senders {
		if s.Port().Paused() {
			t.Error("sender left paused after the run (accounting leak)")
		}
	}
}

// --- Link flaps ---

func TestLinkFlapDropsAndRecovers(t *testing.T) {
	nw := New(1)
	received := 0
	rx := nw.NewHost()
	rx.Transport = TransportFunc(func(h *Host, pkt *Packet) { received++ })
	tx := nw.NewHost()
	p := tx.Connect(rx, 1.25e8, des.Microsecond, nil)
	const n = 100
	for i := 0; i < n; i++ {
		tx.Send(&Packet{Dst: rx.ID(), Size: DataMTU, Kind: Data})
	}
	// Down at 100 µs (mid-transfer), up at 300 µs.
	nw.Sim.At(des.Time(100*des.Microsecond), func() { p.SetLinkDown(true) })
	nw.Sim.At(des.Time(300*des.Microsecond), func() {
		if !p.LinkDown() {
			t.Error("LinkDown() false while flapped down")
		}
		p.SetLinkDown(false)
	})
	nw.Sim.Run()
	drops := int(p.WireDrops())
	if drops == 0 {
		t.Error("flap during transfer lost nothing — in-flight packets should die")
	}
	if received == 0 || received+drops != n {
		t.Errorf("received %d + wire drops %d != sent %d", received, drops, n)
	}
	if p.LinkDown() {
		t.Error("link still down at end")
	}
}

// While a link is down the transmitter must not serialise at all — queued
// packets survive the outage and flow once the link returns.
func TestLinkDownHoldsQueue(t *testing.T) {
	nw := New(1)
	received := 0
	rx := nw.NewHost()
	rx.Transport = TransportFunc(func(h *Host, pkt *Packet) { received++ })
	tx := nw.NewHost()
	p := tx.Connect(rx, 1.25e8, des.Microsecond, nil)
	p.SetLinkDown(true) // down before anything is sent
	for i := 0; i < 10; i++ {
		tx.Send(&Packet{Dst: rx.ID(), Size: DataMTU, Kind: Data})
	}
	nw.Sim.At(des.Time(des.Millisecond), func() { p.SetLinkDown(false) })
	nw.Sim.Run()
	if received != 10 {
		t.Errorf("received %d, want 10 — queue must hold through the outage", received)
	}
	if p.WireDrops() != 0 {
		t.Errorf("wire drops %d, want 0 (nothing was in flight)", p.WireDrops())
	}
}

// --- Fault hook ---

type dropEveryN struct {
	n, seen int
	drops   int
}

func (d *dropEveryN) DropTx(pkt *Packet) bool {
	d.seen++
	if d.seen%d.n == 0 {
		d.drops++
		return true
	}
	return false
}

func TestFaultHookDropsOnWire(t *testing.T) {
	nw := New(1)
	received := 0
	rx := nw.NewHost()
	rx.Transport = TransportFunc(func(h *Host, pkt *Packet) { received++ })
	tx := nw.NewHost()
	p := tx.Connect(rx, 1.25e8, des.Microsecond, nil)
	hook := &dropEveryN{n: 2}
	p.SetFaultHook(hook)
	const n = 100
	for i := 0; i < n; i++ {
		tx.Send(&Packet{Dst: rx.ID(), Size: DataMTU, Kind: Data})
	}
	nw.Sim.Run()
	if received != n/2 {
		t.Errorf("received %d, want %d", received, n/2)
	}
	if int(p.WireDrops()) != hook.drops || hook.drops != n/2 {
		t.Errorf("wire drops %d (hook %d), want %d", p.WireDrops(), hook.drops, n/2)
	}
	// Dropped packets still consumed link bandwidth.
	if p.TxBytes != int64(n)*DataMTU {
		t.Errorf("TxBytes %d, want %d — drops happen after serialisation", p.TxBytes, n*DataMTU)
	}
	// Removing the hook restores lossless delivery.
	p.SetFaultHook(nil)
	for i := 0; i < 10; i++ {
		tx.Send(&Packet{Dst: rx.ID(), Size: DataMTU, Kind: Data})
	}
	nw.Sim.Run()
	if received != n/2+10 {
		t.Errorf("received %d after hook removal, want %d", received, n/2+10)
	}
}

// --- PFC edge cases (satellite: pause-while-paused, spurious resume,
// cascade ordering across two switches) ---

// Pause-while-paused must be absorbed: one pause episode, released by a
// single RESUME, with repeated RESUMEs equally harmless.
func TestPFCPauseWhilePaused(t *testing.T) {
	nw := New(1)
	rx := nw.NewHost()
	tx := nw.NewHost()
	p := tx.Connect(rx, 1.25e8, des.Microsecond, nil)
	wd := NewPFCWatchdog(nw.Sim, des.Millisecond)
	wd.Watch(p)
	nw.Sim.At(des.Time(10*des.Microsecond), func() {
		tx.Receive(&Packet{Kind: Pause, Src: rx.ID()})
	})
	nw.Sim.At(des.Time(20*des.Microsecond), func() {
		if !p.Paused() {
			t.Error("port not paused after PAUSE")
		}
		tx.Receive(&Packet{Kind: Pause, Src: rx.ID()}) // pause-while-paused
	})
	nw.Sim.At(des.Time(50*des.Microsecond), func() {
		tx.Receive(&Packet{Kind: Resume, Src: rx.ID()})
	})
	nw.Sim.At(des.Time(60*des.Microsecond), func() {
		if p.Paused() {
			t.Error("one RESUME must release the pause — PFC does not nest")
		}
		tx.Receive(&Packet{Kind: Resume, Src: rx.ID()}) // resume-while-resumed
	})
	nw.Sim.Run()
	if p.Paused() {
		t.Error("port left paused")
	}
	if wd.Pauses() != 1 {
		t.Errorf("watchdog saw %d pause episodes, want 1 (duplicate absorbed)", wd.Pauses())
	}
	if got, want := wd.PausedTotal(), 40*des.Microsecond; got != want {
		t.Errorf("paused total %v, want %v", got, want)
	}
}

// A RESUME arriving at a switch whose ingress was never paused (empty
// ingress accounting) must be a harmless no-op and leave traffic flowing.
func TestPFCResumeWithEmptyIngress(t *testing.T) {
	nw := New(1)
	star := NewStar(nw, StarConfig{
		Senders: 1,
		Link:    LinkConfig{Bandwidth: 1.25e8, PropDelay: des.Microsecond},
		PFC:     PFCConfig{PauseBytes: 1 << 20, ResumeBytes: 1 << 19},
	})
	received := 0
	star.Receiver.Transport = TransportFunc(func(h *Host, pkt *Packet) { received++ })
	// Spurious RESUME into the switch from the sender side, and into the
	// idle sender NIC: neither was ever paused.
	star.Switch.Receive(&Packet{Kind: Resume, Src: star.Senders[0].ID()})
	star.Senders[0].Receive(&Packet{Kind: Resume, Src: star.Switch.ID()})
	for i := 0; i < 20; i++ {
		star.Senders[0].Send(&Packet{Dst: star.Receiver.ID(), Size: DataMTU, Kind: Data})
	}
	nw.Sim.Run()
	if received != 20 {
		t.Errorf("received %d, want 20 after spurious RESUMEs", received)
	}
	if star.Senders[0].Port().Paused() {
		t.Error("spurious RESUME corrupted pause state")
	}
}

// Backpressure cascade across two switches: with a fast trunk, congestion
// at SW2's receiver egress pauses the trunk first, and only then does SW1's
// buildup pause the sender NICs. Everything drains drop-free afterwards.
func TestPFCCascadeOrderingAcrossSwitches(t *testing.T) {
	nw := New(1)
	d := NewDumbbell(nw, DumbbellConfig{
		Senders: 2, Receivers: 1,
		Link:           LinkConfig{Bandwidth: 1.25e8, PropDelay: des.Microsecond},
		TrunkBandwidth: 2.5e8,
		PFC:            PFCConfig{PauseBytes: 3000, ResumeBytes: 1000},
	})
	received := 0
	d.Receivers[0].Transport = TransportFunc(func(h *Host, pkt *Packet) { received++ })
	const n = 200
	for i := 0; i < n/2; i++ {
		d.Senders[0].Send(&Packet{Dst: d.Receivers[0].ID(), Size: DataMTU, Kind: Data})
		d.Senders[1].Send(&Packet{Dst: d.Receivers[0].ID(), Size: DataMTU, Kind: Data})
	}
	var trunkPausedAt, senderPausedAt des.Time = -1, -1
	nw.Sim.Every(0, des.Microsecond, func() {
		now := nw.Sim.Now()
		if trunkPausedAt < 0 && d.Bottleneck.Paused() {
			trunkPausedAt = now
		}
		if senderPausedAt < 0 &&
			(d.Senders[0].Port().Paused() || d.Senders[1].Port().Paused()) {
			senderPausedAt = now
		}
		if now > des.Time(100*des.Millisecond) {
			nw.Sim.Stop()
		}
	})
	nw.Sim.Run()
	if trunkPausedAt < 0 {
		t.Fatal("SW2 never paused the trunk despite receiver-egress overload")
	}
	if senderPausedAt < 0 {
		t.Fatal("SW1 never propagated backpressure to the sender NICs")
	}
	if trunkPausedAt > senderPausedAt {
		t.Errorf("cascade inverted: trunk paused at %v after senders at %v",
			trunkPausedAt, senderPausedAt)
	}
	if received != n {
		t.Errorf("received %d, want %d (PFC is drop-free)", received, n)
	}
	for _, sw := range []*Switch{d.SW1, d.SW2} {
		for i, use := range sw.ingressUse {
			if use != 0 {
				t.Errorf("switch %d ingress %d still accounts %d bytes", sw.ID(), i, use)
			}
		}
	}
	for _, s := range d.Senders {
		if s.Port().Paused() {
			t.Error("sender left paused after drain")
		}
	}
	if d.Bottleneck.Paused() {
		t.Error("trunk left paused after drain")
	}
}

// --- PFC watchdog ---

func TestPFCWatchdogDetectsStorm(t *testing.T) {
	nw := New(1)
	rx := nw.NewHost()
	tx := nw.NewHost()
	p := tx.Connect(rx, 1.25e8, des.Microsecond, nil)
	wd := NewPFCWatchdog(nw.Sim, 100*des.Microsecond)
	wd.Watch(p)
	// A 490 µs pause: storm. A 50 µs pause: not a storm.
	nw.Sim.At(des.Time(10*des.Microsecond), func() { p.pause() })
	nw.Sim.At(des.Time(500*des.Microsecond), func() { p.unpause() })
	nw.Sim.At(des.Time(600*des.Microsecond), func() { p.pause() })
	nw.Sim.At(des.Time(650*des.Microsecond), func() { p.unpause() })
	nw.Sim.Run()
	if wd.Storms() != 1 {
		t.Fatalf("storms = %d, want 1", wd.Storms())
	}
	ev := wd.Events()
	if len(ev) != 1 {
		t.Fatalf("events = %d, want 1", len(ev))
	}
	if ev[0].Port != p || ev[0].Start != des.Time(10*des.Microsecond) ||
		ev[0].Duration != 490*des.Microsecond || ev[0].OpenAtFinish {
		t.Errorf("bad storm record: %+v", ev[0])
	}
	if wd.Pauses() != 2 {
		t.Errorf("pauses = %d, want 2", wd.Pauses())
	}
	if got, want := wd.PausedTotal(), 540*des.Microsecond; got != want {
		t.Errorf("paused total %v, want %v", got, want)
	}
}

// A pause still held at the end of the run is flagged as a suspected
// deadlock by Finish.
func TestPFCWatchdogFlagsOpenStorm(t *testing.T) {
	nw := New(1)
	rx := nw.NewHost()
	tx := nw.NewHost()
	p := tx.Connect(rx, 1.25e8, des.Microsecond, nil)
	wd := NewPFCWatchdog(nw.Sim, 100*des.Microsecond)
	wd.Watch(p)
	nw.Sim.At(des.Time(10*des.Microsecond), func() { p.pause() })
	nw.Sim.RunUntil(des.Time(des.Millisecond))
	if wd.Storms() != 1 {
		t.Fatalf("storms = %d, want 1", wd.Storms())
	}
	if len(wd.Events()) != 0 {
		t.Fatal("open storm must not appear in Events before Finish")
	}
	wd.Finish()
	ev := wd.Events()
	if len(ev) != 1 || !ev[0].OpenAtFinish {
		t.Fatalf("Finish did not flag the held pause: %+v", ev)
	}
	if ev[0].Duration != 990*des.Microsecond {
		t.Errorf("open storm duration %v, want 990µs", ev[0].Duration)
	}
}

// A watchdog whose ports never pause long enough records nothing — and a
// port watched while already paused is picked up mid-pause.
func TestPFCWatchdogWatchWhilePaused(t *testing.T) {
	nw := New(1)
	rx := nw.NewHost()
	tx := nw.NewHost()
	p := tx.Connect(rx, 1.25e8, des.Microsecond, nil)
	p.pause()
	wd := NewPFCWatchdog(nw.Sim, 100*des.Microsecond)
	wd.Watch(p) // already paused: treated as pausing now
	nw.Sim.At(des.Time(200*des.Microsecond), func() { p.unpause() })
	nw.Sim.Run()
	if wd.Storms() != 1 || wd.Pauses() != 1 {
		t.Errorf("storms/pauses = %d/%d, want 1/1", wd.Storms(), wd.Pauses())
	}
}

// Watching a port again replaces its watcher: the old one stops counting
// and its pending storm check is cancelled, whether the port was idle or
// paused at the second Watch.
func TestPFCWatchdogRewatch(t *testing.T) {
	setup := func() (*Network, *Port, *PFCWatchdog) {
		nw := New(1)
		rx := nw.NewHost()
		tx := nw.NewHost()
		p := tx.Connect(rx, 1.25e8, des.Microsecond, nil)
		return nw, p, NewPFCWatchdog(nw.Sim, 100*des.Microsecond)
	}

	nw, p, wd := setup()
	wd.Watch(p)
	wd.Watch(p) // idle
	nw.Sim.At(des.Time(10*des.Microsecond), func() { p.pause() })
	nw.Sim.RunUntil(des.Time(500 * des.Microsecond))
	if got, want := wd.PausedTotal(), 490*des.Microsecond; got != want {
		t.Errorf("idle re-watch: paused total %v, want %v", got, want)
	}
	if wd.Pauses() != 1 || wd.Storms() != 1 {
		t.Errorf("idle re-watch: pauses/storms = %d/%d, want 1/1", wd.Pauses(), wd.Storms())
	}

	nw, p, wd = setup()
	wd.Watch(p)
	nw.Sim.At(des.Time(10*des.Microsecond), func() { p.pause() })
	nw.Sim.At(des.Time(50*des.Microsecond), func() { wd.Watch(p) }) // paused
	nw.Sim.At(des.Time(500*des.Microsecond), func() { p.unpause() })
	nw.Sim.Run()
	wd.Finish()
	if wd.Pauses() != 1 || wd.Storms() != 1 {
		t.Errorf("paused re-watch: pauses/storms = %d/%d, want 1/1", wd.Pauses(), wd.Storms())
	}
	ev := wd.Events()
	if len(ev) != 1 || ev[0].OpenAtFinish ||
		ev[0].Start != des.Time(50*des.Microsecond) || ev[0].Duration != 450*des.Microsecond {
		t.Errorf("paused re-watch: storm records %+v, want one closed 450µs storm from 50µs", ev)
	}
	if got, want := wd.PausedTotal(), 450*des.Microsecond; got != want {
		t.Errorf("paused re-watch: paused total %v, want %v", got, want)
	}

	// Mid-storm: the dropped watcher's open storm is no longer counted.
	nw, p, wd = setup()
	wd.Watch(p)
	nw.Sim.At(des.Time(10*des.Microsecond), func() { p.pause() })
	nw.Sim.At(des.Time(200*des.Microsecond), func() { wd.Watch(p) })
	nw.Sim.At(des.Time(500*des.Microsecond), func() { p.unpause() })
	nw.Sim.Run()
	wd.Finish()
	if ev := wd.Events(); wd.Storms() != 1 || len(ev) != 1 || ev[0].Start != des.Time(200*des.Microsecond) {
		t.Errorf("mid-storm re-watch: storms %d, records %+v, want one storm from 200µs", wd.Storms(), ev)
	}
}
