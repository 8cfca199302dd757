package timely_test

import (
	"testing"

	"ecndelay/internal/des"
	"ecndelay/internal/fault"
	"ecndelay/internal/netsim"
	"ecndelay/internal/obs"
	"ecndelay/internal/timely"
)

// Pooled and unpooled TIMELY runs (data, acks, RTT-gradient updates, burst
// pacing) must be bit-identical for the same seed: the pool changes memory
// reuse only, never a simulated result — down to the audit trail, which
// records every RTT sample and rate decision.
func TestTimelyPoolingDeterminism(t *testing.T) {
	for _, burst := range []bool{false, true} {
		run := func(pooling bool) (decisions []obs.Decision, processed uint64, end des.Time) {
			p := timely.DefaultParams()
			p.Burst = burst
			nw := netsim.New(9)
			nw.SetPooling(pooling)
			audit := obs.NewMemorySink[obs.Decision](0)
			nw.SetObserver(&obs.NetObserver{Audit: obs.NewAuditTrail(audit)})
			star := netsim.NewStar(nw, netsim.StarConfig{
				Senders: 2,
				Link:    netsim.LinkConfig{Bandwidth: 1.25e9, PropDelay: des.Microsecond},
			})
			if _, err := timely.NewEndpoint(star.Receiver, p); err != nil {
				t.Fatal(err)
			}
			for i, h := range star.Senders {
				ep, err := timely.NewEndpoint(h, p)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := ep.NewFlow(i, star.Receiver.ID(), -1, 0, 5e9/8); err != nil {
					t.Fatal(err)
				}
			}
			nw.Sim.RunUntil(des.Time(20 * des.Millisecond))
			return audit.Records(), nw.Sim.Processed(), nw.Sim.Now()
		}
		r1, p1, e1 := run(true)
		r2, p2, e2 := run(false)
		if p1 != p2 || e1 != e2 {
			t.Errorf("burst=%v: pooled (proc=%d end=%v) != unpooled (proc=%d end=%v)",
				burst, p1, e1, p2, e2)
		}
		if len(r2) == 0 {
			t.Fatalf("burst=%v: the run audited no decision", burst)
		}
		if len(r1) != len(r2) {
			t.Fatalf("burst=%v: audit lengths differ: %d vs %d", burst, len(r1), len(r2))
		}
		for i := range r1 {
			if r1[i] != r2[i] {
				t.Fatalf("burst=%v: audit diverges at decision %d: %+v vs %+v",
					burst, i, r1[i], r2[i])
			}
		}
	}
}

// The lossy variant: packet loss plus go-back-N recovery exercises the
// recycle path hard (retransmitted data, NACKs, duplicate re-acks all ride
// recycled packets whose Seq/EchoT state must be zeroed between lives).
// Pooled and unpooled runs must still be bit-identical.
func TestTimelyPoolingDeterminismLossy(t *testing.T) {
	for _, burst := range []bool{false, true} {
		run := func(pooling bool) (goodput int64, retx int64, processed uint64, end des.Time) {
			p := timely.DefaultParams()
			p.Burst = burst
			p.Recovery = true
			p.RTO = 200 * des.Microsecond
			nw := netsim.New(9)
			nw.SetPooling(pooling)
			star := netsim.NewStar(nw, netsim.StarConfig{
				Senders: 2,
				Link:    netsim.LinkConfig{Bandwidth: 1.25e9, PropDelay: des.Microsecond},
			})
			rx, err := timely.NewEndpoint(star.Receiver, p)
			if err != nil {
				t.Fatal(err)
			}
			var senders []*timely.Sender
			for i, h := range star.Senders {
				ep, err := timely.NewEndpoint(h, p)
				if err != nil {
					t.Fatal(err)
				}
				s, err := ep.NewFlow(i, star.Receiver.ID(), 400000, 0, 5e9/8)
				if err != nil {
					t.Fatal(err)
				}
				senders = append(senders, s)
			}
			(&fault.Plan{Seed: 21, Links: []fault.LinkFaults{
				{Port: star.Bottleneck, Loss: []fault.Loss{{Kinds: fault.SelData, Rate: 0.02}}},
				{Port: star.Receiver.Port(), Loss: []fault.Loss{{Kinds: fault.SelCtrl, Rate: 0.05}}},
			}}).Apply(nw)
			nw.Sim.RunUntil(des.Time(des.Second))
			for _, s := range senders {
				retx += s.Recovery().RetxBytes
			}
			return rx.TotalRxBytes(), retx, nw.Sim.Processed(), nw.Sim.Now()
		}
		g1, x1, p1, e1 := run(true)
		g2, x2, p2, e2 := run(false)
		if g1 != g2 || x1 != x2 || p1 != p2 || e1 != e2 {
			t.Errorf("burst=%v: pooled (good=%d retx=%d proc=%d end=%v) != unpooled (good=%d retx=%d proc=%d end=%v)",
				burst, g1, x1, p1, e1, g2, x2, p2, e2)
		}
		if x1 == 0 {
			t.Errorf("burst=%v: lossy pooling test retransmitted nothing — not exercising recycle paths", burst)
		}
	}
}
