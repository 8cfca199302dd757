package netsim

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"ecndelay/internal/des"
	"ecndelay/internal/fixedpoint"
	"ecndelay/internal/obs"
)

func TestQueueFIFOAndBytes(t *testing.T) {
	q := NewQueue(nil)
	for i := 0; i < 5; i++ {
		q.Push(&Packet{ID: uint64(i), Size: 100 * (i + 1)})
	}
	if q.Len() != 5 || q.Bytes() != 1500 {
		t.Fatalf("len/bytes = %d/%d, want 5/1500", q.Len(), q.Bytes())
	}
	for i := 0; i < 5; i++ {
		pkt := q.Pop()
		if pkt.ID != uint64(i) {
			t.Fatalf("pop %d: got id %d", i, pkt.ID)
		}
	}
	if q.Pop() != nil {
		t.Error("pop of empty queue should be nil")
	}
	if q.Len() != 0 || q.Bytes() != 0 {
		t.Errorf("drained queue len/bytes = %d/%d", q.Len(), q.Bytes())
	}
}

func TestQueueCompaction(t *testing.T) {
	q := NewQueue(nil)
	// Interleave pushes and pops so head grows large, forcing compaction.
	for i := 0; i < 10000; i++ {
		q.Push(&Packet{ID: uint64(i), Size: 1})
		if i%2 == 1 {
			q.Pop()
		}
	}
	if q.Len() != 5000 {
		t.Fatalf("len = %d, want 5000", q.Len())
	}
	// Order must survive compaction.
	first := q.Pop()
	second := q.Pop()
	if second.ID != first.ID+1 {
		t.Errorf("order broken after compaction: %d then %d", first.ID, second.ID)
	}
}

func TestREDMarkerThresholds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := &REDMarker{Kmin: 1000, Kmax: 2000, Pmax: 0.5, Rng: rng}
	q := NewQueue(m)
	// Below Kmin: never marked.
	for i := 0; i < 50; i++ {
		q.Push(&Packet{Size: 10, ECT: true})
	}
	for q.Len() > 0 {
		if q.Pop().CE {
			t.Fatal("marked below Kmin")
		}
	}
	// Far above Kmax: always marked (p = 1).
	for i := 0; i < 30; i++ {
		q.Push(&Packet{Size: 100, ECT: true})
	}
	pkt := q.Pop() // queue bytes = 2900 > Kmax at pop time
	if !pkt.CE {
		t.Error("not marked above Kmax")
	}
	// Non-ECT packets are never marked.
	q2 := NewQueue(&REDMarker{Kmin: 0, Kmax: 1, Pmax: 1, Rng: rng})
	q2.Push(&Packet{Size: 100, ECT: false})
	q2.Push(&Packet{Size: 100, ECT: false})
	if q2.Pop().CE {
		t.Error("non-ECT packet marked")
	}
}

func TestREDMarkerRampProbability(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := &REDMarker{Kmin: 0, Kmax: 2000, Pmax: 1.0, Rng: rng}
	q := NewQueue(m)
	marked, total := 0, 20000
	for i := 0; i < total; i++ {
		q.Push(&Packet{Size: 1000, ECT: true})
		pkt := q.Pop() // queue holds 1000 bytes at pop → p = 0.5
		if pkt.CE {
			marked++
		}
	}
	frac := float64(marked) / float64(total)
	if frac < 0.47 || frac > 0.53 {
		t.Errorf("marking fraction %v, want ~0.5", frac)
	}
}

// The switch marks with the shared Eq. 3 ramp, draw for draw. At byte
// counts either side of Kmin and Kmax, an ECT packet gets CE exactly when
// p >= 1 or u < p, with p = fixedpoint.REDMark at that count and u drawn
// from a twin of the marker's generator. The twin draws only where
// 0 < p < 1, so the two generators stay in step only if the marker draws
// there and nowhere else.
func TestREDMarkerUsesSharedRamp(t *testing.T) {
	const kmin, kmax, seed = 5000, 200000, 7
	rows := []struct {
		bytes int
		pmax  float64
	}{
		{kmin - 1, 0.01}, {kmin, 0.01}, {kmin + 1, 0.01}, {(kmin + kmax) / 2, 0.01},
		{kmax - 1, 0.01}, {kmax, 0.01}, {kmax + 1, 0.01}, {kmax, 1},
	}
	m := &REDMarker{Kmin: kmin, Kmax: kmax, Rng: rand.New(rand.NewSource(seed))}
	twin := rand.New(rand.NewSource(seed))
	q := NewQueue(m)
	rampMarks := 0
	for _, r := range rows {
		m.Pmax = r.pmax
		q.SetVirtualBytes(r.bytes)
		p := fixedpoint.REDMark(float64(r.bytes), kmin, kmax, r.pmax)
		for i := 0; i < 2000; i++ {
			pkt := &Packet{ECT: true}
			m.Mark(q, pkt)
			u := 1.0 // no draw; u < p is false for every p < 1
			if 0 < p && p < 1 {
				u = twin.Float64()
			}
			if want := p >= 1 || u < p; pkt.CE != want {
				t.Fatalf("%d bytes, Pmax %g, packet %d: CE = %v, want %v (p = %v, u = %v)",
					r.bytes, r.pmax, i, pkt.CE, want, p, u)
			}
			if pkt.CE && p < 1 {
				rampMarks++
			}
		}
	}
	if rampMarks == 0 {
		t.Error("no packet was marked on the ramp; the rows test nothing there")
	}
	if got, want := m.Rng.Int63(), twin.Int63(); got != want {
		t.Errorf("the marker's generator ended at %d, the twin's at %d", got, want)
	}
}

// Ingress marking stamps the queue state at arrival; egress marking at
// departure. Build a deep queue, then drain: egress marks reflect the
// shrinking queue, ingress marks the queue seen on arrival.
func TestIngressVsEgressMarking(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	egress := NewQueue(&REDMarker{Kmin: 5000, Kmax: 5001, Pmax: 1, Rng: rng})
	ingress := NewQueue(&REDMarker{Kmin: 5000, Kmax: 5001, Pmax: 1, Ingress: true, Rng: rng})
	for i := 0; i < 10; i++ {
		egress.Push(&Packet{Size: 1000, ECT: true})
		ingress.Push(&Packet{Size: 1000, ECT: true})
	}
	// Ingress: packets 6..10 saw >5000B at arrival → marked; 1..5 not.
	var ingressMarks []bool
	for ingress.Len() > 0 {
		ingressMarks = append(ingressMarks, ingress.Pop().CE)
	}
	for i, m := range ingressMarks {
		want := i >= 5 // arrived when queue already > 5000B
		if m != want {
			t.Errorf("ingress pkt %d marked=%v, want %v", i, m, want)
		}
	}
	// Egress: first packets depart while queue still deep → marked; the
	// tail departs from a shallow queue → unmarked.
	var egressMarks []bool
	for egress.Len() > 0 {
		egressMarks = append(egressMarks, egress.Pop().CE)
	}
	for i, m := range egressMarks {
		want := i < 5 // queue at departure was 9000,8000,...
		if m != want {
			t.Errorf("egress pkt %d marked=%v, want %v", i, m, want)
		}
	}
}

func TestPIMarkerTracksReference(t *testing.T) {
	sim := des.New()
	rng := rand.New(rand.NewSource(4))
	m := &PIMarker{K1: 1e-6, K2: 1e-2, QRef: 5000, Rng: rng}
	q := NewQueue(m)
	m.Start(sim, q)
	// Hold the queue above the reference: p must rise.
	for i := 0; i < 10; i++ {
		q.Push(&Packet{Size: 1000, ECT: true})
	}
	sim.RunUntil(des.Time(5 * des.Millisecond))
	if m.P() <= 0 {
		t.Errorf("p = %v after sustained overshoot, want > 0", m.P())
	}
	pHigh := m.P()
	// Drain below the reference: p must fall back.
	for q.Len() > 0 {
		q.Pop()
	}
	sim.RunUntil(des.Time(100 * des.Millisecond))
	if m.P() >= pHigh {
		t.Errorf("p = %v did not decrease after drain (was %v)", m.P(), pHigh)
	}
}

// One packet through one port: arrival = serialisation + propagation.
func TestPortTiming(t *testing.T) {
	nw := New(1)
	var arrived []des.Time
	rx := nw.NewHost()
	rx.Transport = TransportFunc(func(h *Host, pkt *Packet) {
		arrived = append(arrived, h.Now())
	})
	tx := nw.NewHost()
	tx.Connect(rx, 1.25e8, des.Microsecond, nil) // 1 Gb/s, 1 µs
	tx.Send(&Packet{Dst: rx.ID(), Size: 1000, Kind: Data})
	tx.Send(&Packet{Dst: rx.ID(), Size: 1000, Kind: Data})
	nw.Sim.Run()
	// 1000 B at 1.25e8 B/s = 8 µs serialisation; +1 µs propagation.
	if len(arrived) != 2 {
		t.Fatalf("arrived %d packets, want 2", len(arrived))
	}
	if arrived[0] != des.Time(9*des.Microsecond) {
		t.Errorf("first arrival at %v, want 9µs", arrived[0])
	}
	if arrived[1] != des.Time(17*des.Microsecond) {
		t.Errorf("second arrival at %v, want 17µs (queued behind first)", arrived[1])
	}
}

// Control packets get the extra feedback delay and jitter; data does not.
func TestControlDelayOnlyAffectsControl(t *testing.T) {
	nw := New(1)
	arrivals := map[Kind]des.Time{}
	rx := nw.NewHost()
	rx.Transport = TransportFunc(func(h *Host, pkt *Packet) {
		arrivals[pkt.Kind] = h.Now()
	})
	tx := nw.NewHost()
	p := tx.Connect(rx, 1.25e8, des.Microsecond, nil)
	p.CtrlExtraDelay = 50 * des.Microsecond
	tx.Send(&Packet{Dst: rx.ID(), Size: 1000, Kind: Data})
	nw.Sim.Run()
	tx.Send(&Packet{Dst: rx.ID(), Size: CtrlSize, Kind: CNP})
	nw.Sim.Run()
	if arrivals[Data] != des.Time(9*des.Microsecond) {
		t.Errorf("data at %v, want 9µs (no control delay)", arrivals[Data])
	}
	wantCNP := arrivals[Data] + des.Time(CtrlSize*8)/des.Time(1) // rough lower bound check below
	_ = wantCNP
	// CNP: sent at 9µs... serialisation 64B = 0.512µs + 1µs prop + 50µs extra.
	got := arrivals[CNP]
	want := des.Time(9*des.Microsecond) + des.Time(512) + des.Time(51*des.Microsecond)
	if got != want {
		t.Errorf("CNP at %v, want %v", got, want)
	}
}

func TestStarTopologyDelivery(t *testing.T) {
	nw := New(1)
	star := NewStar(nw, StarConfig{
		Senders: 3,
		Link:    LinkConfig{Bandwidth: 1.25e9, PropDelay: des.Microsecond},
	})
	received := map[int]int{}
	star.Receiver.Transport = TransportFunc(func(h *Host, pkt *Packet) {
		received[pkt.Src]++
	})
	for _, s := range star.Senders {
		for i := 0; i < 10; i++ {
			s.Send(&Packet{Dst: star.Receiver.ID(), Size: DataMTU, Kind: Data})
		}
	}
	nw.Sim.Run()
	for _, s := range star.Senders {
		if received[s.ID()] != 10 {
			t.Errorf("sender %d: receiver got %d packets, want 10", s.ID(), received[s.ID()])
		}
	}
}

func TestDumbbellTopologyDelivery(t *testing.T) {
	nw := New(1)
	d := NewDumbbell(nw, DumbbellConfig{
		Senders: 4, Receivers: 4,
		Link: LinkConfig{Bandwidth: 1.25e9, PropDelay: des.Microsecond},
	})
	got := 0
	for _, r := range d.Receivers {
		r.Transport = TransportFunc(func(h *Host, pkt *Packet) { got++ })
	}
	// Every sender sends to every receiver, plus reverse-direction acks.
	want := 0
	for _, s := range d.Senders {
		for _, r := range d.Receivers {
			s.Send(&Packet{Dst: r.ID(), Size: DataMTU, Kind: Data})
			want++
		}
	}
	nw.Sim.Run()
	if got != want {
		t.Errorf("delivered %d, want %d", got, want)
	}
	if d.Bottleneck.TxBytes != int64(want*DataMTU) {
		t.Errorf("bottleneck carried %d bytes, want %d", d.Bottleneck.TxBytes, want*DataMTU)
	}
}

func TestUnknownRoutePanics(t *testing.T) {
	nw := New(1)
	sw := nw.NewSwitch(PFCConfig{})
	defer func() {
		if recover() == nil {
			t.Error("expected panic for missing route")
		}
	}()
	sw.Receive(&Packet{Dst: 99, Kind: Data})
}

// PFC: a slow egress and a tiny pause threshold must pause the upstream
// host, and every packet still arrives (drop-free network).
func TestPFCPausesAndConserves(t *testing.T) {
	nw := New(1)
	star := NewStar(nw, StarConfig{
		Senders: 2,
		Link:    LinkConfig{Bandwidth: 1.25e8, PropDelay: des.Microsecond},
		PFC:     PFCConfig{PauseBytes: 3000, ResumeBytes: 1000},
	})
	received := 0
	star.Receiver.Transport = TransportFunc(func(h *Host, pkt *Packet) { received++ })
	sender := star.Senders[0]
	const n = 200 // 100 per sender; two senders overdrive the egress 2:1
	for i := 0; i < n/2; i++ {
		star.Senders[0].Send(&Packet{Dst: star.Receiver.ID(), Size: DataMTU, Kind: Data})
		star.Senders[1].Send(&Packet{Dst: star.Receiver.ID(), Size: DataMTU, Kind: Data})
	}
	sawPause := false
	nw.Sim.Every(0, des.Microsecond, func() {
		if sender.Port().Paused() {
			sawPause = true
		}
		if nw.Sim.Now() > des.Time(100*des.Millisecond) {
			nw.Sim.Stop()
		}
	})
	nw.Sim.Run()
	if !sawPause {
		t.Error("PFC never paused the sender despite a 3 KB threshold")
	}
	if received != n {
		t.Errorf("received %d packets, want %d (drop-free)", received, n)
	}
	if sender.Port().Paused() {
		t.Error("sender still paused after the queue drained")
	}
}

// Sample's queue signal ticks from one interval in, and with a probe set
// on the observer each tick also records the point in a probe named
// after the signal, qualified by the observer's prefix.
func TestMonitorQueueBytes(t *testing.T) {
	nw := New(1)
	o := &obs.NetObserver{Probes: obs.NewProbeSet(), ProbePrefix: "job."}
	nw.SetObserver(o)
	star := NewStar(nw, StarConfig{
		Senders: 2,
		Link:    LinkConfig{Bandwidth: 1.25e8, PropDelay: des.Microsecond},
	})
	series := nw.Sample(10*des.Microsecond, QueueSignal("queue_bytes", star.Bottleneck))[0]
	for _, s := range star.Senders {
		for i := 0; i < 50; i++ {
			s.Send(&Packet{Dst: star.Receiver.ID(), Size: DataMTU, Kind: Data})
		}
	}
	nw.Sim.RunUntil(des.Time(2 * des.Millisecond))
	if series.Len() != 200 || series.T[0] != 10e-6 {
		t.Fatalf("%d samples, first at %v s; want 200 from 10 µs", series.Len(), series.T[:min(1, series.Len())])
	}
	peak := series.WindowSummary(0, 1).Max
	if peak < DataMTU {
		t.Errorf("peak queue %v bytes, expected visible buildup", peak)
	}
	probes := o.Probes.Probes()
	if len(probes) != 1 {
		t.Fatalf("%d probes, want 1", len(probes))
	}
	got := probes[0].Samples()
	if len(got) != series.Len() {
		t.Fatalf("probe holds %d samples, series %d", len(got), series.Len())
	}
	for i, s := range got {
		if s.T != series.T[i] || s.V != series.V[i] {
			t.Fatalf("probe sample %d = %+v, series (%v, %v)", i, s, series.T[i], series.V[i])
		}
	}
	var buf bytes.Buffer
	if err := o.Probes.WriteJSONL(&buf); err != nil || !bytes.HasPrefix(buf.Bytes(), []byte(`{"probe":"job.queue_bytes"`)) {
		t.Errorf("probe export %.60q, err %v; want the prefixed signal name", buf.String(), err)
	}
}

func TestMonitorThroughput(t *testing.T) {
	nw := New(1)
	star := NewStar(nw, StarConfig{
		Senders: 1,
		Link:    LinkConfig{Bandwidth: 1.25e8, PropDelay: des.Microsecond},
	})
	// The delivered rate over each interval, from the port's byte count.
	var last int64
	thr := nw.Sample(100*des.Microsecond, Signal{"tx_rate", func() float64 {
		cur := star.Bottleneck.TxBytes
		rate := float64(cur-last) / (100 * des.Microsecond).Seconds()
		last = cur
		return rate
	}})[0]
	// Saturate for 2 ms.
	var sendLoop func()
	sent := 0
	sendLoop = func() {
		if nw.Sim.Now() > des.Time(2*des.Millisecond) {
			return
		}
		star.Senders[0].Send(&Packet{Dst: star.Receiver.ID(), Size: DataMTU, Kind: Data})
		sent++
		nw.Sim.Schedule(des.Duration(float64(DataMTU)/1.25e8*1e9), sendLoop)
	}
	nw.Sim.Schedule(0, sendLoop)
	nw.Sim.RunUntil(des.Time(2 * des.Millisecond))
	s := thr.WindowSummary(0.0005, 0.002)
	if s.Mean < 1.2e8*0.9 {
		t.Errorf("bottleneck throughput %v B/s, want near line rate 1.25e8", s.Mean)
	}
}

// Determinism: identical seeds give identical event counts and clocks.
func TestPropertyDeterministicRuns(t *testing.T) {
	run := func(seed int64) (uint64, des.Time, int) {
		nw := New(seed)
		star := NewStar(nw, StarConfig{
			Senders: 3,
			Link:    LinkConfig{Bandwidth: 1.25e9, PropDelay: des.Microsecond},
			Mark: func() Marker {
				return &REDMarker{Kmin: 1000, Kmax: 5000, Pmax: 0.5, Rng: nw.Rng}
			},
		})
		marked := 0
		star.Receiver.Transport = TransportFunc(func(h *Host, pkt *Packet) {
			if pkt.CE {
				marked++
			}
		})
		for _, s := range star.Senders {
			for i := 0; i < 200; i++ {
				s.Send(&Packet{Dst: star.Receiver.ID(), Size: DataMTU, Kind: Data, ECT: true})
			}
		}
		nw.Sim.Run()
		return nw.Sim.Processed(), nw.Sim.Now(), marked
	}
	f := func(seed int64) bool {
		a1, b1, c1 := run(seed)
		a2, b2, c2 := run(seed)
		return a1 == a2 && b1 == b2 && c1 == c2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// Property: bytes are conserved through arbitrary dumbbell configurations —
// every data byte a sender emits is eventually delivered, with or without
// PFC, for random packet mixes.
func TestPropertyByteConservation(t *testing.T) {
	f := func(seed int64, pfcSmall bool, burst8 uint8) bool {
		nw := New(seed)
		pfc := PFCConfig{}
		if pfcSmall {
			pfc = PFCConfig{PauseBytes: 4000, ResumeBytes: 2000}
		}
		d := NewDumbbell(nw, DumbbellConfig{
			Senders: 3, Receivers: 3,
			Link: LinkConfig{Bandwidth: 1.25e8, PropDelay: des.Microsecond},
			PFC:  pfc,
		})
		var sent, got int64
		for _, r := range d.Receivers {
			r.Transport = TransportFunc(func(h *Host, pkt *Packet) { got += int64(pkt.Size) })
		}
		rng := nw.Rng
		burst := 1 + int(burst8)%50
		for i := 0; i < burst; i++ {
			src := d.Senders[rng.Intn(3)]
			dst := d.Receivers[rng.Intn(3)]
			size := 64 + rng.Intn(DataMTU-64)
			src.Send(&Packet{Dst: dst.ID(), Size: size, Kind: Data, ECT: true})
			sent += int64(size)
		}
		nw.Sim.Run()
		return got == sent
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
