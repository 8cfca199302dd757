package dcqcn

import (
	"testing"

	"ecndelay/internal/des"
	"ecndelay/internal/netsim"
	"ecndelay/internal/stats"
)

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
	muts := []func(*Params){
		func(p *Params) { p.G = 0 },
		func(p *Params) { p.G = 1 },
		func(p *Params) { p.CNPInterval = 0 },
		func(p *Params) { p.AlphaTimer = p.CNPInterval },
		func(p *Params) { p.RateTimer = 0 },
		func(p *Params) { p.ByteCounter = 0 },
		func(p *Params) { p.F = 0 },
		func(p *Params) { p.RAI = 0 },
		func(p *Params) { p.RHAI = p.RAI / 2 },
		func(p *Params) { p.MinRate = 0 },
	}
	for i, m := range muts {
		p := DefaultParams()
		m(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

// star40G builds the §3.1 validation topology with DCQCN endpoints on all
// hosts and returns the senders.
func star40G(t *testing.T, nFlows int, extraFeedback des.Duration, ingressMark bool, bw float64) (*netsim.Network, *netsim.Star, []*Sender) {
	t.Helper()
	nw := netsim.New(7)
	star := netsim.NewStar(nw, netsim.StarConfig{
		Senders: nFlows,
		Link:    netsim.LinkConfig{Bandwidth: bw, PropDelay: des.Microsecond},
		Mark: func() netsim.Marker {
			return &netsim.REDMarker{Kmin: 5000, Kmax: 200000, Pmax: 0.01, Ingress: ingressMark, Rng: nw.Rng}
		},
		CtrlExtraDelay: extraFeedback,
	})
	if _, err := NewEndpoint(star.Receiver, DefaultParams()); err != nil {
		t.Fatal(err)
	}
	var senders []*Sender
	for i, h := range star.Senders {
		ep, err := NewEndpoint(h, DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		s, err := ep.NewFlow(i, star.Receiver.ID(), -1, 0)
		if err != nil {
			t.Fatal(err)
		}
		senders = append(senders, s)
	}
	return nw, star, senders
}

// Figure 2 territory: two long flows at 40 Gb/s converge to the fair share
// with full utilisation and a queue near the Theorem 1 fixed point.
func TestTwoFlowsConvergeFair(t *testing.T) {
	nw, star, senders := star40G(t, 2, 0, false, 5e9)
	qs := nw.Sample(100*des.Microsecond, netsim.QueueSignal("queue_bytes", star.Bottleneck))[0]
	// The delivered rate over each millisecond, from the port's byte count.
	var last int64
	thr := nw.Sample(des.Millisecond, netsim.Signal{Name: "tx_rate", Read: func() float64 {
		cur := star.Bottleneck.TxBytes
		rate := float64(cur-last) / des.Millisecond.Seconds()
		last = cur
		return rate
	}})[0]
	nw.Sim.RunUntil(des.Time(50 * des.Millisecond))

	if u := thr.WindowSummary(0.03, 0.05).Mean / 5e9; u < 0.95 {
		t.Errorf("utilisation %v, want > 0.95", u)
	}
	fair := 2.5e9
	for i, s := range senders {
		if r := s.Rate(); r < fair*0.7 || r > fair*1.3 {
			t.Errorf("flow %d rate %v, want near fair share %v", i, r, fair)
		}
	}
	// The fluid fixed point for these parameters is ~20 KB; the packet
	// level oscillates around it.
	q := qs.WindowSummary(0.03, 0.05)
	if q.Mean < 5e3 || q.Mean > 80e3 {
		t.Errorf("queue mean %v B, want in the fixed-point neighbourhood (~20 KB)", q.Mean)
	}
}

// Figure 5: 10 flows with an 85 µs feedback delay oscillate hard; without
// the extra delay they hold the queue near the fixed point.
func TestTenFlowsUnstableAtHighDelay(t *testing.T) {
	cv := func(extra des.Duration) float64 {
		nw, star, _ := star40G(t, 10, extra, false, 5e9)
		qs := nw.Sample(100*des.Microsecond, netsim.QueueSignal("queue_bytes", star.Bottleneck))[0]
		nw.Sim.RunUntil(des.Time(60 * des.Millisecond))
		return qs.WindowSummary(0.04, 0.06).CV()
	}
	calm := cv(0)
	wild := cv(85 * des.Microsecond)
	if wild < 1.0 {
		t.Errorf("85µs feedback delay: queue CV %v, want > 1 (instability)", wild)
	}
	if calm > 0.5 {
		t.Errorf("no extra delay: queue CV %v, want < 0.5", calm)
	}
	if wild < 2*calm {
		t.Errorf("instability contrast too weak: %v vs %v", wild, calm)
	}
}

// Figure 17: at 10 Gb/s the steady queue is ~100 KB (~80 µs of queueing
// delay), so ingress marking — which inherits that delay into the control
// loop — destabilises a configuration that egress marking holds steady.
func TestIngressMarkingDestabilises(t *testing.T) {
	cv := func(ingress bool) float64 {
		nw, star, _ := star40G(t, 2, 0, ingress, 1.25e9)
		qs := nw.Sample(50*des.Microsecond, netsim.QueueSignal("queue_bytes", star.Bottleneck))[0]
		nw.Sim.RunUntil(des.Time(150 * des.Millisecond))
		return qs.WindowSummary(0.1, 0.15).CV()
	}
	egress := cv(false)
	ingress := cv(true)
	if ingress < 2*egress {
		t.Errorf("ingress marking CV %v vs egress %v: expected at least 2x worse", ingress, egress)
	}
	if ingress < 1.0 {
		t.Errorf("ingress marking CV %v, want visible fluctuation (> 1)", ingress)
	}
}

// Unequal join times still converge to fairness (Theorem 2 at the packet
// level): a second flow joining late reaches the fair share.
func TestLateJoinerReachesFairShare(t *testing.T) {
	nw := netsim.New(3)
	star := netsim.NewStar(nw, netsim.StarConfig{
		Senders: 2,
		Link:    netsim.LinkConfig{Bandwidth: 5e9, PropDelay: des.Microsecond},
		Mark: func() netsim.Marker {
			return &netsim.REDMarker{Kmin: 5000, Kmax: 200000, Pmax: 0.01, Rng: nw.Rng}
		},
	})
	if _, err := NewEndpoint(star.Receiver, DefaultParams()); err != nil {
		t.Fatal(err)
	}
	var senders []*Sender
	for i, h := range star.Senders {
		ep, err := NewEndpoint(h, DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		start := des.Time(0)
		if i == 1 {
			start = des.Time(20 * des.Millisecond)
		}
		s, err := ep.NewFlow(i, star.Receiver.ID(), -1, start)
		if err != nil {
			t.Fatal(err)
		}
		senders = append(senders, s)
	}
	rates := []*stats.Series{{}, {}}
	nw.Sim.Every(0, 100*des.Microsecond, func() {
		ts := nw.Sim.Now().Seconds()
		rates[0].Add(ts, senders[0].Rate())
		rates[1].Add(ts, senders[1].Rate())
	})
	nw.Sim.RunUntil(des.Time(120 * des.Millisecond))
	m0 := rates[0].WindowSummary(0.09, 0.12).Mean
	m1 := rates[1].WindowSummary(0.09, 0.12).Mean
	if ratio := m0 / m1; ratio > 1.4 || ratio < 0.7 {
		t.Errorf("late joiner stuck at ratio %v (R0=%v R1=%v)", ratio, m0, m1)
	}
}

// NP behaviour: at most one CNP per τ per flow, regardless of how many
// marked packets arrive.
func TestCNPRateLimit(t *testing.T) {
	nw := netsim.New(1)
	sender := nw.NewHost()
	receiver := nw.NewHost()
	cnps := 0
	sender.Transport = netsim.TransportFunc(func(h *netsim.Host, pkt *netsim.Packet) {
		if pkt.Kind == netsim.CNP {
			cnps++
		}
	})
	sender.Connect(receiver, 1.25e9, des.Microsecond, nil)
	receiver.Connect(sender, 1.25e9, des.Microsecond, nil)
	if _, err := NewEndpoint(receiver, DefaultParams()); err != nil {
		t.Fatal(err)
	}
	// 100 marked packets over 100 µs: τ = 50 µs allows at most 3 CNPs.
	for i := 0; i < 100; i++ {
		i := i
		nw.Sim.At(des.Time(i)*des.Time(des.Microsecond), func() {
			sender.Send(&netsim.Packet{
				Flow: 1, Dst: receiver.ID(), Size: netsim.DataMTU,
				Kind: netsim.Data, ECT: true, CE: true,
			})
		})
	}
	nw.Sim.Run()
	if cnps == 0 || cnps > 3 {
		t.Errorf("got %d CNPs for 100 marked packets in 100µs, want 1-3 (τ=50µs)", cnps)
	}
}

// RP behaviour without any congestion: α decays to ~0 and the rate sits at
// line rate.
func TestNoCongestionStaysAtLineRate(t *testing.T) {
	nw := netsim.New(1)
	star := netsim.NewStar(nw, netsim.StarConfig{
		Senders: 1,
		Link:    netsim.LinkConfig{Bandwidth: 5e9, PropDelay: des.Microsecond},
	})
	if _, err := NewEndpoint(star.Receiver, DefaultParams()); err != nil {
		t.Fatal(err)
	}
	ep, err := NewEndpoint(star.Senders[0], DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	s, err := ep.NewFlow(0, star.Receiver.ID(), -1, 0)
	if err != nil {
		t.Fatal(err)
	}
	nw.Sim.RunUntil(des.Time(100 * des.Millisecond))
	if s.Rate() < 5e9*0.999 {
		t.Errorf("rate %v, want line rate 5e9", s.Rate())
	}
	// α decays as (1-g)^(t/τ'): at 100 ms that is (255/256)^1818 ≈ 8e-4.
	if s.Alpha() > 0.01 {
		t.Errorf("α = %v after 100ms without feedback, want ~0", s.Alpha())
	}
}

// A finite flow delivers exactly its size and reports completion once.
func TestFlowCompletion(t *testing.T) {
	nw := netsim.New(1)
	star := netsim.NewStar(nw, netsim.StarConfig{
		Senders: 1,
		Link:    netsim.LinkConfig{Bandwidth: 1.25e9, PropDelay: des.Microsecond},
	})
	rx, err := NewEndpoint(star.Receiver, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	var completions []Completion
	rx.OnComplete = func(c Completion) { completions = append(completions, c) }
	ep, err := NewEndpoint(star.Senders[0], DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	const size = 123456
	s, err := ep.NewFlow(42, star.Receiver.ID(), size, 0)
	if err != nil {
		t.Fatal(err)
	}
	nw.Sim.Run()
	if !s.Done() || s.SentBytes() != size {
		t.Errorf("sender done=%v sent=%d, want true/%d", s.Done(), s.SentBytes(), size)
	}
	if len(completions) != 1 {
		t.Fatalf("got %d completions, want 1", len(completions))
	}
	c := completions[0]
	if c.Flow != 42 || c.Bytes != size {
		t.Errorf("completion %+v, want flow 42, %d bytes", c, size)
	}
	// Lower bound: size/line-rate plus one propagation.
	if c.At < des.Time(des.DurationFromSeconds(float64(size)/1.25e9)) {
		t.Errorf("completion at %v is before the transmission time", c.At)
	}
}

func TestDuplicateFlowIDRejected(t *testing.T) {
	nw := netsim.New(1)
	star := netsim.NewStar(nw, netsim.StarConfig{
		Senders: 1,
		Link:    netsim.LinkConfig{Bandwidth: 1.25e9, PropDelay: des.Microsecond},
	})
	ep, err := NewEndpoint(star.Senders[0], DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ep.NewFlow(1, star.Receiver.ID(), 1000, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := ep.NewFlow(1, star.Receiver.ID(), 1000, 0); err == nil {
		t.Error("duplicate flow id accepted")
	}
}

// A CNP cuts the rate by α/2 and resets the increase machinery.
func TestCNPCutsRate(t *testing.T) {
	nw := netsim.New(1)
	star := netsim.NewStar(nw, netsim.StarConfig{
		Senders: 1,
		Link:    netsim.LinkConfig{Bandwidth: 1.25e9, PropDelay: des.Microsecond},
	})
	ep, err := NewEndpoint(star.Senders[0], DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	s, err := ep.NewFlow(0, star.Receiver.ID(), -1, 0)
	if err != nil {
		t.Fatal(err)
	}
	nw.Sim.RunUntil(des.Time(100 * des.Microsecond))
	r0 := s.Rate()
	a0 := s.Alpha()
	// Deliver a CNP directly.
	star.Senders[0].Receive(&netsim.Packet{Flow: 0, Kind: netsim.CNP})
	want := r0 * (1 - a0/2)
	if got := s.Rate(); got != want {
		t.Errorf("rate after CNP = %v, want %v", got, want)
	}
	if s.TargetRate() != r0 {
		t.Errorf("target after CNP = %v, want pre-cut rate %v", s.TargetRate(), r0)
	}
	if s.Alpha() <= a0*(1-1.0/256) {
		t.Errorf("α after CNP = %v, should have moved toward 1", s.Alpha())
	}
}

// Hyper increase engages once both the byte counter and the timer are past
// F stages: recovery from a cut is then much faster than with R_AI alone.
// Shrinking the byte counter makes HI reachable quickly on a single
// uncongested flow.
func TestHyperIncreaseAcceleratesRecovery(t *testing.T) {
	recoveryTime := func(rhai float64) des.Time {
		nw := netsim.New(1)
		star := netsim.NewStar(nw, netsim.StarConfig{
			Senders: 1,
			Link:    netsim.LinkConfig{Bandwidth: 1.25e9, PropDelay: des.Microsecond},
		})
		if _, err := NewEndpoint(star.Receiver, DefaultParams()); err != nil {
			t.Fatal(err)
		}
		p := DefaultParams()
		p.ByteCounter = 100e3 // byte-counter events every 100 KB
		p.RAI = 1e6 / 8       // slow additive increase: 1 Mb/s
		p.RHAI = rhai
		ep, err := NewEndpoint(star.Senders[0], p)
		if err != nil {
			t.Fatal(err)
		}
		s, err := ep.NewFlow(0, star.Receiver.ID(), -1, 0)
		if err != nil {
			t.Fatal(err)
		}
		// Simulate a deep cut: repeated CNPs drive the rate down hard.
		nw.Sim.At(des.Time(des.Millisecond), func() {
			for i := 0; i < 10; i++ {
				s.onCNP(&netsim.Packet{Kind: netsim.CNP, Flow: 0})
			}
		})
		var recovered des.Time
		nw.Sim.Every(des.Time(des.Millisecond), 100*des.Microsecond, func() {
			if recovered == 0 && s.Rate() > 1.25e9*0.9 {
				recovered = nw.Sim.Now()
				nw.Sim.Stop()
			}
		})
		nw.Sim.RunUntil(des.Time(3 * des.Second))
		if recovered == 0 {
			t.Fatalf("RHAI=%v: never recovered to 90%% line rate", rhai)
		}
		return recovered
	}
	slow := recoveryTime(1e6 / 8) // HI step = AI step: no hyper phase
	fast := recoveryTime(200e6 / 8)
	if fast >= slow {
		t.Errorf("hyper increase did not accelerate recovery: %v vs %v", fast, slow)
	}
	if des.Duration(slow-fast) < 10*des.Millisecond {
		t.Errorf("recovery acceleration only %v, want clearly visible", des.Duration(slow-fast))
	}
}
