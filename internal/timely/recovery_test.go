package timely_test

import (
	"math"
	"testing"

	"ecndelay/internal/des"
	"ecndelay/internal/fault"
	"ecndelay/internal/netsim"
	"ecndelay/internal/timely"
)

func recoveryParams(burst bool) timely.Params {
	p := timely.DefaultParams()
	p.Recovery = true
	p.RTO = 200 * des.Microsecond
	p.Burst = burst
	return p
}

// Clean path, recovery enabled, both pacing modes: no retransmissions,
// full completion, full goodput.
func TestTimelyRecoveryCleanPath(t *testing.T) {
	for _, burst := range []bool{false, true} {
		nw := netsim.New(1)
		star := netsim.NewStar(nw, netsim.StarConfig{
			Senders: 2,
			Link:    netsim.LinkConfig{Bandwidth: 1.25e9, PropDelay: des.Microsecond},
		})
		rx, err := timely.NewEndpoint(star.Receiver, recoveryParams(burst))
		if err != nil {
			t.Fatal(err)
		}
		completed := map[int]int64{}
		rx.OnComplete = func(c timely.Completion) { completed[c.Flow] = c.Bytes }
		const flowBytes = 200000
		var senders []*timely.Sender
		for i, h := range star.Senders {
			ep, err := timely.NewEndpoint(h, recoveryParams(burst))
			if err != nil {
				t.Fatal(err)
			}
			s, err := ep.NewFlow(i, star.Receiver.ID(), flowBytes, 0, 1.25e9)
			if err != nil {
				t.Fatal(err)
			}
			senders = append(senders, s)
		}
		nw.Sim.RunUntil(des.Time(des.Second))
		for i, s := range senders {
			if !s.Done() {
				t.Errorf("burst=%v flow %d not done", burst, i)
			}
			st := s.Recovery()
			if st.RetxBytes != 0 || st.RTOs != 0 {
				t.Errorf("burst=%v flow %d retransmitted on clean path: %+v", burst, i, st)
			}
			if completed[i] != flowBytes {
				t.Errorf("burst=%v flow %d delivered %d, want %d", burst, i, completed[i], flowBytes)
			}
		}
		if rx.TotalRxBytes() != 2*flowBytes {
			t.Errorf("burst=%v goodput %d, want %d", burst, rx.TotalRxBytes(), 2*flowBytes)
		}
	}
}

// Lossy path in both pacing modes: flows complete with exact goodput,
// retransmissions happen, and the run is seed-reproducible.
func TestTimelyRecoveryLossyFlowsComplete(t *testing.T) {
	const flowBytes = 500000
	for _, burst := range []bool{false, true} {
		type result struct {
			retx, goodput int64
			processed     uint64
			end           des.Time
		}
		run := func() result {
			nw := netsim.New(4)
			star := netsim.NewStar(nw, netsim.StarConfig{
				Senders: 2,
				Link:    netsim.LinkConfig{Bandwidth: 1.25e9, PropDelay: des.Microsecond},
			})
			rx, err := timely.NewEndpoint(star.Receiver, recoveryParams(burst))
			if err != nil {
				t.Fatal(err)
			}
			completed := map[int]int64{}
			rx.OnComplete = func(c timely.Completion) { completed[c.Flow] = c.Bytes }
			var senders []*timely.Sender
			for i, h := range star.Senders {
				ep, err := timely.NewEndpoint(h, recoveryParams(burst))
				if err != nil {
					t.Fatal(err)
				}
				s, err := ep.NewFlow(i, star.Receiver.ID(), flowBytes, 0, 1.25e9)
				if err != nil {
					t.Fatal(err)
				}
				senders = append(senders, s)
			}
			plan := &fault.Plan{Seed: 13, Links: []fault.LinkFaults{
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
					t.Fatalf("burst=%v flow %d never completed under loss", burst, i)
				}
				if completed[i] != flowBytes {
					t.Fatalf("burst=%v flow %d delivered %d, want %d", burst, i, completed[i], flowBytes)
				}
				r.retx += s.Recovery().RetxBytes
			}
			r.goodput = rx.TotalRxBytes()
			r.processed = nw.Sim.Processed()
			r.end = nw.Sim.Now()
			return r
		}
		a := run()
		if a.retx == 0 {
			t.Errorf("burst=%v: expected retransmissions under 2%% loss", burst)
		}
		if a.goodput != 2*flowBytes {
			t.Errorf("burst=%v goodput %d, want %d", burst, a.goodput, 2*flowBytes)
		}
		if b := run(); a != b {
			t.Errorf("burst=%v same seed diverged: %+v vs %+v", burst, a, b)
		}
	}
}

// dropRun is a fault hook that destroys one run of consecutive data
// packets: skip through skip+n of the data packets it sees.
type dropRun struct{ seen, skip, n int }

func (d *dropRun) DropTx(pkt *netsim.Packet) bool {
	if pkt.Kind != netsim.Data {
		return false
	}
	d.seen++
	return d.seen > d.skip && d.seen <= d.skip+d.n
}

// Burst loss hitting a whole segment: go-back-N must recover a stretch of
// consecutive losses, not just single drops.
func TestTimelyRecoveryBurstLoss(t *testing.T) {
	nw := netsim.New(2)
	star := netsim.NewStar(nw, netsim.StarConfig{
		Senders: 1,
		Link:    netsim.LinkConfig{Bandwidth: 1.25e9, PropDelay: des.Microsecond},
	})
	rx, err := timely.NewEndpoint(star.Receiver, recoveryParams(false))
	if err != nil {
		t.Fatal(err)
	}
	done := false
	rx.OnComplete = func(c timely.Completion) { done = true }
	ep, err := timely.NewEndpoint(star.Senders[0], recoveryParams(false))
	if err != nil {
		t.Fatal(err)
	}
	s, err := ep.NewFlow(0, star.Receiver.ID(), 300000, 0, 1.25e9)
	if err != nil {
		t.Fatal(err)
	}
	burst := &dropRun{skip: 40, n: 20}
	star.Bottleneck.SetFaultHook(burst)
	nw.Sim.RunUntil(des.Time(des.Second))
	if !done || !s.Done() {
		t.Fatalf("flow did not complete under burst loss (rx=%v tx=%v)", done, s.Done())
	}
	st := s.Recovery()
	if st.RetxBytes < int64(burst.n)*netsim.DataMTU || st.Rewinds == 0 {
		t.Errorf("a %d-packet burst recovered with %+v", burst.n, st)
	}
	if rx.TotalRxBytes() != 300000 {
		t.Errorf("goodput %d, want 300000", rx.TotalRxBytes())
	}
}

// Validate refuses an RTO that is negative or whose 8× backoff cap would
// overflow a des.Duration, and accepts the largest one that fits.
func TestTimelyRecoveryParamValidation(t *testing.T) {
	for _, c := range []struct {
		rto des.Duration
		ok  bool
	}{
		{-des.Microsecond, false},
		{math.MaxInt64/8 + 1, false},
		{math.MaxInt64 / 8, true},
		{0, true}, // the 1 ms default
	} {
		p := timely.DefaultParams()
		p.Recovery = true
		p.RTO = c.rto
		if err := p.Validate(); (err == nil) != c.ok {
			t.Errorf("RTO %d: Validate error %v, want ok=%v", c.rto, err, c.ok)
		}
	}
	if _, err := timely.NewEndpoint(netsim.New(1).NewHost(), recoveryParams(false)); err != nil {
		t.Errorf("recovery params rejected: %v", err)
	}
}
