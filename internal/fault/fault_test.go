package fault

import (
	"math"
	"testing"

	"ecndelay/internal/des"
	"ecndelay/internal/netsim"
)

func TestSelectorMatches(t *testing.T) {
	cases := []struct {
		sel  Selector
		kind netsim.Kind
		want bool
	}{
		{SelData, netsim.Data, true},
		{SelData, netsim.Ack, false},
		{SelAck, netsim.Ack, true},
		{SelCNP, netsim.CNP, true},
		{SelNack, netsim.Nack, true},
		{SelPFC, netsim.Pause, true},
		{SelPFC, netsim.Resume, true},
		{SelPFC, netsim.Data, false},
		{SelCtrl, netsim.Ack, true},
		{SelCtrl, netsim.CNP, true},
		{SelCtrl, netsim.Nack, true},
		{SelCtrl, netsim.Data, false},
		{SelCtrl, netsim.Pause, false},
		{SelAll, netsim.Data, true},
		{SelAll, netsim.Pause, true},
		{SelAll, netsim.CNP, true},
	}
	for _, c := range cases {
		if got := c.sel.Matches(c.kind); got != c.want {
			t.Errorf("Selector %b Matches(%v) = %v, want %v", c.sel, c.kind, got, c.want)
		}
	}
}

func TestValidate(t *testing.T) {
	nw := netsim.New(1)
	rx := nw.NewHost()
	tx := nw.NewHost()
	p := tx.Connect(rx, 1e9, des.Microsecond, nil)

	var nilPlan *Plan
	if err := nilPlan.Validate(); err != nil {
		t.Errorf("nil plan must validate: %v", err)
	}
	bad := []Plan{
		{Links: []LinkFaults{{Port: nil}}},
		{Links: []LinkFaults{{Port: p, Loss: []Loss{{Kinds: 0, Rate: 0.1}}}}},
		{Links: []LinkFaults{{Port: p, Loss: []Loss{{Kinds: SelData, Rate: 1.5}}}}},
		{Links: []LinkFaults{{Port: p, Loss: []Loss{{Kinds: SelData, Rate: math.NaN()}}}}},
		{Links: []LinkFaults{{Port: p, Flaps: []Flap{{DownAt: 100, UpAt: 50}}}}},
	}
	for i := range bad {
		if bad[i].Validate() == nil {
			t.Errorf("bad plan %d validated", i)
		}
	}
	good := Plan{Seed: 7, Links: []LinkFaults{{
		Port:  p,
		Loss:  []Loss{{Kinds: SelData, Rate: 0.01}, {Kinds: SelCtrl, Rate: 1}},
		Flaps: []Flap{{DownAt: 100, UpAt: 200}, {DownAt: 300}},
	}}}
	if err := good.Validate(); err != nil {
		t.Errorf("good plan rejected: %v", err)
	}
}

// The injector's i.i.d. loss converges on the configured rate.
func TestInjectorIIDRate(t *testing.T) {
	in := newInjector(1, []Loss{{Kinds: SelData, Rate: 0.1}})
	pkt := &netsim.Packet{Kind: netsim.Data}
	const n = 100000
	drops := 0
	for i := 0; i < n; i++ {
		if in.DropTx(pkt) {
			drops++
		}
	}
	frac := float64(drops) / n
	if math.Abs(frac-0.1) > 0.01 {
		t.Errorf("drop fraction %v, want ~0.1", frac)
	}
	if in.total != int64(drops) {
		t.Errorf("total %d != counted %d", in.total, drops)
	}
}

// First matching rule decides: a rate-0 Data rule ahead of a rate-1 Data
// rule means no drops; swapping the order drops everything.
func TestInjectorFirstMatchWins(t *testing.T) {
	pkt := &netsim.Packet{Kind: netsim.Data}
	in := newInjector(1, []Loss{{Kinds: SelData, Rate: 0}, {Kinds: SelAll, Rate: 1}})
	for i := 0; i < 100; i++ {
		if in.DropTx(pkt) {
			t.Fatal("shadowed rate-1 rule fired")
		}
	}
	in = newInjector(1, []Loss{{Kinds: SelAll, Rate: 1}, {Kinds: SelData, Rate: 0}})
	if !in.DropTx(pkt) {
		t.Fatal("first rate-1 rule did not fire")
	}
	// A non-matching kind falls through to later rules.
	in = newInjector(1, []Loss{{Kinds: SelCNP, Rate: 1}, {Kinds: SelData, Rate: 1}})
	if !in.DropTx(pkt) {
		t.Fatal("Data packet must fall through the CNP rule to the Data rule")
	}
}

// End-to-end conservation through a lossy star: delivered + injected
// drops equals sent, and the same seed loses the very same packets.
func TestApplyLossConservesAndRepeats(t *testing.T) {
	run := func() (received int, drops int64, processed uint64, end des.Time) {
		nw := netsim.New(1)
		star := netsim.NewStar(nw, netsim.StarConfig{
			Senders: 2,
			Link:    netsim.LinkConfig{Bandwidth: 1.25e8, PropDelay: des.Microsecond},
		})
		star.Receiver.Transport = netsim.TransportFunc(func(h *netsim.Host, pkt *netsim.Packet) { received++ })
		plan := &Plan{Seed: 42, Links: []LinkFaults{{
			Port: star.Bottleneck,
			Loss: []Loss{{Kinds: SelData, Rate: 0.3}},
		}}}
		a := plan.Apply(nw)
		const n = 400
		for i := 0; i < n/2; i++ {
			star.Senders[0].Send(&netsim.Packet{Dst: star.Receiver.ID(), Size: netsim.DataMTU, Kind: netsim.Data})
			star.Senders[1].Send(&netsim.Packet{Dst: star.Receiver.ID(), Size: netsim.DataMTU, Kind: netsim.Data})
		}
		nw.Sim.Run()
		if got := star.Bottleneck.WireDrops(); got != a.Drops() {
			t.Errorf("port wire drops %d != injector drops %d", got, a.Drops())
		}
		return received, a.Drops(), nw.Sim.Processed(), nw.Sim.Now()
	}
	r1, d1, p1, e1 := run()
	if d1 == 0 || r1 == 0 {
		t.Fatalf("expected both deliveries and drops, got %d/%d", r1, d1)
	}
	if r1+int(d1) != 400 {
		t.Errorf("received %d + drops %d != sent 400", r1, d1)
	}
	r2, d2, p2, e2 := run()
	if r1 != r2 || d1 != d2 || p1 != p2 || e1 != e2 {
		t.Errorf("same seed diverged: (%d,%d,%d,%v) vs (%d,%d,%d,%v)",
			r1, d1, p1, e1, r2, d2, p2, e2)
	}
}

// Flaps in a plan take the link down and bring it back on schedule.
func TestApplyFlapSchedule(t *testing.T) {
	nw := netsim.New(1)
	received := 0
	rx := nw.NewHost()
	rx.Transport = netsim.TransportFunc(func(h *netsim.Host, pkt *netsim.Packet) { received++ })
	tx := nw.NewHost()
	p := tx.Connect(rx, 1.25e8, des.Microsecond, nil)
	plan := &Plan{Links: []LinkFaults{{
		Port:  p,
		Flaps: []Flap{{DownAt: des.Time(100 * des.Microsecond), UpAt: des.Time(300 * des.Microsecond)}},
	}}}
	plan.Apply(nw)
	const n = 100
	for i := 0; i < n; i++ {
		tx.Send(&netsim.Packet{Dst: rx.ID(), Size: netsim.DataMTU, Kind: netsim.Data})
	}
	nw.Sim.At(des.Time(200*des.Microsecond), func() {
		if !p.LinkDown() {
			t.Error("link not down mid-flap")
		}
	})
	nw.Sim.Run()
	if p.LinkDown() {
		t.Error("link still down after UpAt")
	}
	if received+int(p.WireDrops()) != n {
		t.Errorf("received %d + wire drops %d != %d", received, p.WireDrops(), n)
	}
}

// The A/B guarantee: a run with no plan, an empty plan, or a plan whose
// only loss rule has rate 0 behaves bit-identically to a plain run — an
// installed hook that never drops draws nothing and perturbs nothing.
func TestDisabledPlanIsBitIdentical(t *testing.T) {
	run := func(mode int) (uint64, des.Time, int) {
		nw := netsim.New(7)
		star := netsim.NewStar(nw, netsim.StarConfig{
			Senders: 3,
			Link:    netsim.LinkConfig{Bandwidth: 1.25e8, PropDelay: des.Microsecond},
			Mark: func() netsim.Marker {
				return &netsim.REDMarker{Kmin: 1000, Kmax: 5000, Pmax: 0.5, Rng: nw.Rng}
			},
		})
		marked := 0
		star.Receiver.Transport = netsim.TransportFunc(func(h *netsim.Host, pkt *netsim.Packet) {
			if pkt.CE {
				marked++
			}
		})
		switch mode {
		case 1:
			(&Plan{}).Apply(nw)
		case 2:
			(&Plan{Seed: 3, Links: []LinkFaults{{
				Port: star.Bottleneck,
				Loss: []Loss{{Kinds: SelData, Rate: 0}},
			}}}).Apply(nw)
		}
		for _, s := range star.Senders {
			for i := 0; i < 100; i++ {
				s.Send(&netsim.Packet{Dst: star.Receiver.ID(), Size: netsim.DataMTU, Kind: netsim.Data, ECT: true})
			}
		}
		nw.Sim.Run()
		return nw.Sim.Processed(), nw.Sim.Now(), marked
	}
	p0, e0, m0 := run(0)
	for mode := 1; mode <= 2; mode++ {
		p, e, m := run(mode)
		if p != p0 || e != e0 || m != m0 {
			t.Errorf("mode %d diverged from plain run: (%d,%v,%d) vs (%d,%v,%d)",
				mode, p, e, m, p0, e0, m0)
		}
	}
}

func TestDeriveSeedDistinct(t *testing.T) {
	seen := map[int64]bool{}
	for i := 0; i < 100; i++ {
		s := deriveSeed(9, i)
		if seen[s] {
			t.Fatalf("seed collision at link %d", i)
		}
		seen[s] = true
	}
	if deriveSeed(1, 0) == deriveSeed(2, 0) {
		t.Error("base seed ignored")
	}
}
