package dcqcn_test

import (
	"math"
	"testing"

	"ecndelay/internal/dcqcn"
	"ecndelay/internal/des"
	"ecndelay/internal/fault"
	"ecndelay/internal/netsim"
)

func recoveryParams() dcqcn.Params {
	p := dcqcn.DefaultParams()
	p.Recovery = true
	p.RTO = 200 * des.Microsecond
	return p
}

// A clean path with recovery enabled: acks flow, nothing is retransmitted,
// and every flow completes at both ends.
func TestRecoveryCleanPathNoRetx(t *testing.T) {
	nw := netsim.New(1)
	star := netsim.NewStar(nw, netsim.StarConfig{
		Senders: 2,
		Link:    netsim.LinkConfig{Bandwidth: 1.25e9, PropDelay: des.Microsecond},
	})
	rx, err := dcqcn.NewEndpoint(star.Receiver, recoveryParams())
	if err != nil {
		t.Fatal(err)
	}
	completed := map[int]int64{}
	rx.OnComplete = func(c dcqcn.Completion) { completed[c.Flow] = c.Bytes }
	const flowBytes = 200000
	var senders []*dcqcn.Sender
	for i, h := range star.Senders {
		ep, err := dcqcn.NewEndpoint(h, recoveryParams())
		if err != nil {
			t.Fatal(err)
		}
		s, err := ep.NewFlow(i, star.Receiver.ID(), flowBytes, 0)
		if err != nil {
			t.Fatal(err)
		}
		senders = append(senders, s)
	}
	nw.Sim.RunUntil(des.Time(des.Second))
	for i, s := range senders {
		if !s.Done() {
			t.Errorf("flow %d sender not done", i)
		}
		st := s.Recovery()
		if st.RetxBytes != 0 || st.Rewinds != 0 || st.RTOs != 0 {
			t.Errorf("flow %d retransmitted on a clean path: %+v", i, st)
		}
		if st.AckedBytes != flowBytes {
			t.Errorf("flow %d acked %d, want %d", i, st.AckedBytes, flowBytes)
		}
		if completed[i] != flowBytes {
			t.Errorf("flow %d completed %d bytes at receiver, want %d", i, completed[i], flowBytes)
		}
	}
	if rx.TotalRxBytes() != 2*flowBytes {
		t.Errorf("goodput %d, want %d", rx.TotalRxBytes(), 2*flowBytes)
	}
}

// Data and control loss on the path: go-back-N retransmits, every flow
// still completes with full in-order goodput, and the same seed reproduces
// the run exactly.
func TestRecoveryLossyFlowsComplete(t *testing.T) {
	type result struct {
		retx, rewinds, goodput int64
		processed              uint64
		end                    des.Time
	}
	const flowBytes = 500000
	run := func() result {
		nw := netsim.New(3)
		star := netsim.NewStar(nw, netsim.StarConfig{
			Senders: 2,
			Link:    netsim.LinkConfig{Bandwidth: 1.25e9, PropDelay: des.Microsecond},
			Mark: func() netsim.Marker {
				return &netsim.REDMarker{Kmin: 5000, Kmax: 200000, Pmax: 0.01, Rng: nw.Rng}
			},
		})
		rx, err := dcqcn.NewEndpoint(star.Receiver, recoveryParams())
		if err != nil {
			t.Fatal(err)
		}
		completed := map[int]int64{}
		rx.OnComplete = func(c dcqcn.Completion) { completed[c.Flow] = c.Bytes }
		var senders []*dcqcn.Sender
		for i, h := range star.Senders {
			ep, err := dcqcn.NewEndpoint(h, recoveryParams())
			if err != nil {
				t.Fatal(err)
			}
			s, err := ep.NewFlow(i, star.Receiver.ID(), flowBytes, 0)
			if err != nil {
				t.Fatal(err)
			}
			senders = append(senders, s)
		}
		// 2% data loss toward the receiver, 10% feedback loss on the way
		// back (acks, nacks and CNPs all ride the receiver's NIC).
		plan := &fault.Plan{Seed: 11, Links: []fault.LinkFaults{
			{Port: star.Bottleneck, Loss: []fault.Loss{{Kinds: fault.SelData, Rate: 0.02}}},
			{Port: star.Receiver.Port(), Loss: []fault.Loss{{Kinds: fault.SelCtrl, Rate: 0.10}}},
		}}
		applied := plan.Apply(nw)
		nw.Sim.RunUntil(des.Time(des.Second))
		if applied.Drops() == 0 {
			t.Fatal("fault plan injected no losses")
		}
		var r result
		for i, s := range senders {
			if !s.Done() {
				t.Fatalf("flow %d sender never completed under loss", i)
			}
			if completed[i] != flowBytes {
				t.Fatalf("flow %d delivered %d bytes, want %d", i, completed[i], flowBytes)
			}
			st := s.Recovery()
			r.retx += st.RetxBytes
			r.rewinds += st.Rewinds
			if st.Recovering {
				t.Errorf("flow %d still marked recovering after completion", i)
			}
		}
		r.goodput = rx.TotalRxBytes()
		r.processed = nw.Sim.Processed()
		r.end = nw.Sim.Now()
		return r
	}
	a := run()
	if a.retx == 0 || a.rewinds == 0 {
		t.Errorf("expected retransmissions under 2%% loss, got retx=%d rewinds=%d", a.retx, a.rewinds)
	}
	if a.goodput != 2*flowBytes {
		t.Errorf("goodput %d, want exactly %d (in-order delivery only)", a.goodput, 2*flowBytes)
	}
	b := run()
	if a != b {
		t.Errorf("same seed diverged: %+v vs %+v", a, b)
	}
}

// dropFeedbackUntil loses every protocol feedback packet before a cutoff
// time, forcing the sender onto its RTO path.
type dropFeedbackUntil struct {
	nw    *netsim.Network
	until des.Time
}

func (d *dropFeedbackUntil) DropTx(pkt *netsim.Packet) bool {
	switch pkt.Kind {
	case netsim.Ack, netsim.Nack, netsim.CNP:
		return d.nw.Sim.Now() < d.until
	}
	return false
}

// Total feedback blackout: the RTO with exponential backoff must carry the
// flow until acks return, then the flow completes.
func TestRecoveryRTOBackstop(t *testing.T) {
	nw := netsim.New(1)
	star := netsim.NewStar(nw, netsim.StarConfig{
		Senders: 1,
		Link:    netsim.LinkConfig{Bandwidth: 1.25e9, PropDelay: des.Microsecond},
	})
	rx, err := dcqcn.NewEndpoint(star.Receiver, recoveryParams())
	if err != nil {
		t.Fatal(err)
	}
	done := false
	rx.OnComplete = func(c dcqcn.Completion) { done = true }
	star.Receiver.Port().SetFaultHook(&dropFeedbackUntil{nw: nw, until: des.Time(2 * des.Millisecond)})
	ep, err := dcqcn.NewEndpoint(star.Senders[0], recoveryParams())
	if err != nil {
		t.Fatal(err)
	}
	s, err := ep.NewFlow(0, star.Receiver.ID(), 50000, 0)
	if err != nil {
		t.Fatal(err)
	}
	nw.Sim.RunUntil(des.Time(100 * des.Millisecond))
	if !done {
		t.Fatal("receiver never completed the flow")
	}
	if !s.Done() {
		t.Fatal("sender still waiting for acks after the blackout lifted")
	}
	st := s.Recovery()
	if st.RTOs == 0 {
		t.Error("feedback blackout should have fired the RTO")
	}
	if st.RetxBytes == 0 {
		t.Error("RTO recovery should have retransmitted")
	}
	if st.AckedBytes != 50000 {
		t.Errorf("acked %d, want 50000", st.AckedBytes)
	}
}

// Validate refuses an RTO that is negative or whose 8× backoff cap would
// overflow a des.Duration, and accepts the largest one that fits.
func TestRecoveryParamValidation(t *testing.T) {
	for _, c := range []struct {
		rto des.Duration
		ok  bool
	}{
		{-des.Microsecond, false},
		{math.MaxInt64/8 + 1, false},
		{math.MaxInt64 / 8, true},
		{0, true}, // the 1 ms default
	} {
		p := dcqcn.DefaultParams()
		p.Recovery = true
		p.RTO = c.rto
		if err := p.Validate(); (err == nil) != c.ok {
			t.Errorf("RTO %d: Validate error %v, want ok=%v", c.rto, err, c.ok)
		}
	}
	if _, err := dcqcn.NewEndpoint(netsim.New(1).NewHost(), recoveryParams()); err != nil {
		t.Errorf("recovery params rejected: %v", err)
	}
}
