package netsim

import (
	"testing"

	"ecndelay/internal/des"
	"ecndelay/internal/obs"
)

// Recycled packets must come back with every field zeroed — stale CE/Seq/
// ingress state leaking across reuses would corrupt marking and PFC
// accounting in ways determinism tests can't always catch.
func TestPacketPoolNoStaleState(t *testing.T) {
	nw := New(1)
	nw.SetPooling(true)
	pkt := nw.NewPacket()
	pkt.ID = 42
	pkt.Flow = 7
	pkt.Size = 999
	pkt.Kind = CNP
	pkt.ECT = true
	pkt.CE = true
	pkt.Seq = 12345
	pkt.Last = true
	pkt.AckReq = true
	pkt.SentAt = 99
	pkt.EchoT = 88
	pkt.Bytes = 77
	pkt.ingress = 3
	nw.FreePacket(pkt)
	if nw.PoolSize() != 1 {
		t.Fatalf("PoolSize = %d after free, want 1", nw.PoolSize())
	}
	got := nw.NewPacket()
	if got != pkt {
		t.Fatal("pool did not return the recycled packet")
	}
	if *got != (Packet{}) {
		t.Errorf("recycled packet has stale state: %+v", *got)
	}
}

// A double free without an observer attached must not corrupt the pool
// either: the second push is silently skipped (free-list length is
// invisible to simulation logic), so the same struct is never handed to
// two owners. Only the reporting needs an observer.
func TestPacketPoolUnobservedDoubleFree(t *testing.T) {
	nw := New(1)
	nw.SetPooling(true)
	pkt := nw.NewPacket()
	other := nw.NewPacket()
	nw.FreePacket(pkt)
	nw.FreePacket(pkt) // caller bug, absorbed without an observer
	if got := nw.PoolSize(); got != 1 {
		t.Fatalf("PoolSize = %d after unobserved double free, want 1", got)
	}
	nw.FreePacket(other)
	a, b := nw.NewPacket(), nw.NewPacket()
	if a == b {
		t.Fatal("double free handed the same packet to two owners")
	}
}

func TestPacketPoolDisabled(t *testing.T) {
	nw := New(1)
	nw.SetPooling(false)
	pkt := nw.NewPacket()
	nw.FreePacket(pkt)
	if nw.PoolSize() != 0 {
		t.Errorf("PoolSize = %d with pooling off, want 0", nw.PoolSize())
	}
	// FreePacket must not zero the packet when pooling is off: the caller
	// owns it again only in pooled mode.
	pkt2 := nw.NewPacket()
	if pkt2 == pkt {
		t.Error("disabled pool recycled a packet")
	}
}

// A queue's backing array is sized by its peak occupancy, not by the
// packets that pass through it: neither fill/drain cycles nor a long run
// of push/pop pairs at low occupancy grow it, and packets leave in FIFO
// order across every wrap of the array.
func TestQueueBackingDoesNotGrow(t *testing.T) {
	var q *Queue
	var pushed, popped uint64
	push := func(n int) {
		for i := 0; i < n; i++ {
			q.Push(&Packet{ID: pushed, Size: 1})
			pushed++
		}
	}
	pop := func(n int) {
		for i := 0; i < n; i++ {
			if got := q.Pop().ID; got != popped {
				t.Fatalf("pop %d: got id %d", popped, got)
			}
			popped++
		}
	}

	q = NewQueue(nil)
	push(100)
	pop(100)
	slots := cap(q.ring)
	for cycle := 0; cycle < 50; cycle++ {
		push(100)
		pop(100)
	}
	if cap(q.ring) != slots {
		t.Errorf("backing array grew across fill/drain cycles: %d -> %d slots", slots, cap(q.ring))
	}

	// A queue that never empties: 4 packets stay queued while 10,000
	// more pass through, so occupancy peaks at 5.
	q, pushed, popped = NewQueue(nil), 0, 0
	push(4)
	for i := 0; i < 10000; i++ {
		push(1)
		pop(1)
	}
	pop(4)
	if q.Len() != 0 || q.Pop() != nil {
		t.Fatalf("queue not empty after draining: Len %d", q.Len())
	}
	if cap(q.ring) != 8 {
		t.Errorf("backing array has %d slots after push/pop pairs at occupancy 5, want 8", cap(q.ring))
	}
}

// twoHopChain wires host -> switch -> host, the minimal store-and-forward
// path (two serialisations, two propagations, one routed queue).
func twoHopChain(seed int64) (nw *Network, tx, rx *Host) {
	nw = New(seed)
	nw.SetPooling(true) // the alloc gates test the pooled path under any build tag
	sw := nw.NewSwitch(PFCConfig{})
	rx = nw.NewHost()
	rx.Connect(sw, 1.25e9, des.Microsecond, nil)
	ri := sw.AddPort(rx, 1.25e9, des.Microsecond, nil)
	sw.SetRoute(rx.ID(), ri)
	tx = nw.NewHost()
	tx.Connect(sw, 1.25e9, des.Microsecond, nil)
	si := sw.AddPort(tx, 1.25e9, des.Microsecond, nil)
	sw.SetRoute(tx.ID(), si)
	return nw, tx, rx
}

// Alloc-regression gate for the packet hot path: after warmup, pushing
// packets through a 2-hop chain (pool alloc, queue, two tx state machines,
// delivery, recycle) must not allocate at all.
func TestPacketHotPathAllocFree(t *testing.T) {
	nw, tx, rx := twoHopChain(1)
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
	drive() // warm the packet pool, event free list, and queue storage
	drive()
	if allocs := testing.AllocsPerRun(50, drive); allocs != 0 {
		t.Errorf("packet hot path allocates %.1f allocs/run, want 0", allocs)
	}
	if delivered == 0 {
		t.Fatal("no packets delivered")
	}
	if nw.PoolSize() == 0 {
		t.Error("pool empty after runs; packets are not being recycled")
	}
}

// Same-seed runs with pooling on and off must be indistinguishable: the
// pool only changes memory reuse, never simulated behaviour.
func TestPoolingDeterminism(t *testing.T) {
	run := func(pooling bool) (processed uint64, now des.Time, marked, delivered int) {
		nw := New(11)
		nw.SetPooling(pooling)
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
			if pkt.CE {
				marked++
			}
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
		return nw.Sim.Processed(), nw.Sim.Now(), marked, delivered
	}
	p1, t1, m1, d1 := run(true)
	p2, t2, m2, d2 := run(false)
	if p1 != p2 || t1 != t2 || m1 != m2 || d1 != d2 {
		t.Errorf("pooled run (%d,%v,%d,%d) != unpooled run (%d,%v,%d,%d)",
			p1, t1, m1, d1, p2, t2, m2, d2)
	}
}

// BenchmarkPortChain measures packets/sec through the 2-hop chain: one
// packet end to end per iteration (send, switch store-and-forward, deliver,
// recycle), with the observer detached, with a metrics registry only, and
// with every facility attached (obs.Full: registry, tracer without sinks,
// checker, probes, histograms). Each is 0 allocs/op in steady state.
func BenchmarkPortChain(b *testing.B) {
	for _, bc := range []struct {
		name     string
		observer func() *obs.NetObserver
	}{
		{"detached", func() *obs.NetObserver { return nil }},
		{"metrics", func() *obs.NetObserver { return &obs.NetObserver{Metrics: obs.NewRegistry()} }},
		{"full", obs.Full},
	} {
		b.Run(bc.name, func(b *testing.B) {
			nw, tx, rx := twoHopChain(1)
			nw.SetObserver(bc.observer())
			delivered := 0
			rx.Transport = TransportFunc(func(h *Host, pkt *Packet) { delivered++ })
			// Warm pools, counters, books and histogram pages so the
			// measurement is the steady state.
			for i := 0; i < 100; i++ {
				pkt := nw.NewPacket()
				pkt.Dst = rx.ID()
				pkt.Size = DataMTU
				pkt.Kind = Data
				tx.Send(pkt)
			}
			nw.Sim.Run()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pkt := nw.NewPacket()
				pkt.Dst = rx.ID()
				pkt.Size = DataMTU
				pkt.Kind = Data
				tx.Send(pkt)
				nw.Sim.Run()
			}
			b.StopTimer()
			if delivered != b.N+100 {
				b.Fatalf("delivered %d, want %d", delivered, b.N+100)
			}
			b.ReportMetric(1e9/float64(b.Elapsed().Nanoseconds())*float64(b.N), "pkts/s")
		})
	}
}
