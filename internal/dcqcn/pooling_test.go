package dcqcn_test

import (
	"testing"

	"ecndelay/internal/dcqcn"
	"ecndelay/internal/des"
	"ecndelay/internal/fault"
	"ecndelay/internal/netsim"
	"ecndelay/internal/obs"
)

// The packet pool and the pooled event path must be invisible to the
// simulation: a same-seed DCQCN run (data, CNPs, α/rate timers, RED
// marking, PFC) with pooling disabled is the reference, and the pooled run
// must reproduce its queue behaviour and, decision for decision, the audit
// trail that records every rate change.
func TestDCQCNPoolingDeterminism(t *testing.T) {
	type trace struct {
		decisions []obs.Decision
		processed uint64
		end       des.Time
		queuePeak int
	}
	run := func(pooling bool) trace {
		nw := netsim.New(5)
		nw.SetPooling(pooling)
		audit := obs.NewMemorySink[obs.Decision](0)
		nw.SetObserver(&obs.NetObserver{Audit: obs.NewAuditTrail(audit)})
		star := netsim.NewStar(nw, netsim.StarConfig{
			Senders: 2,
			Link:    netsim.LinkConfig{Bandwidth: 1.25e9, PropDelay: des.Microsecond},
			Mark: func() netsim.Marker {
				return &netsim.REDMarker{Kmin: 5000, Kmax: 200000, Pmax: 0.01, Rng: nw.Rng}
			},
			PFC: netsim.PFCConfig{PauseBytes: 400000, ResumeBytes: 200000},
		})
		if _, err := dcqcn.NewEndpoint(star.Receiver, dcqcn.DefaultParams()); err != nil {
			t.Fatal(err)
		}
		for i, h := range star.Senders {
			ep, err := dcqcn.NewEndpoint(h, dcqcn.DefaultParams())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ep.NewFlow(i, star.Receiver.ID(), -1, 0); err != nil {
				t.Fatal(err)
			}
		}
		peak := 0
		nw.Sim.Every(0, 50*des.Microsecond, func() {
			if b := star.Bottleneck.Queue().Bytes(); b > peak {
				peak = b
			}
		})
		nw.Sim.RunUntil(des.Time(20 * des.Millisecond))
		return trace{audit.Records(), nw.Sim.Processed(), nw.Sim.Now(), peak}
	}
	pooled, plain := run(true), run(false)
	if pooled.processed != plain.processed || pooled.end != plain.end ||
		pooled.queuePeak != plain.queuePeak {
		t.Errorf("pooled (proc=%d end=%v peak=%d) != unpooled (proc=%d end=%v peak=%d)",
			pooled.processed, pooled.end, pooled.queuePeak,
			plain.processed, plain.end, plain.queuePeak)
	}
	if len(plain.decisions) == 0 {
		t.Fatal("the run audited no decision")
	}
	if len(pooled.decisions) != len(plain.decisions) {
		t.Fatalf("audit lengths differ: %d vs %d", len(pooled.decisions), len(plain.decisions))
	}
	for i := range pooled.decisions {
		if pooled.decisions[i] != plain.decisions[i] {
			t.Fatalf("audit diverges at decision %d: %+v vs %+v",
				i, pooled.decisions[i], plain.decisions[i])
		}
	}
}

// The lossy variant: loss injection plus go-back-N recovery pushes
// recycled packets through every role — retransmitted data, cumulative
// acks, NACKs, CNPs — so any recovery field surviving FreePacket's zeroing
// would split the pooled and unpooled trajectories.
func TestDCQCNPoolingDeterminismLossy(t *testing.T) {
	run := func(pooling bool) (goodput, retx int64, processed uint64, end des.Time) {
		p := dcqcn.DefaultParams()
		p.Recovery = true
		p.RTO = 200 * des.Microsecond
		nw := netsim.New(5)
		nw.SetPooling(pooling)
		star := netsim.NewStar(nw, netsim.StarConfig{
			Senders: 2,
			Link:    netsim.LinkConfig{Bandwidth: 1.25e9, PropDelay: des.Microsecond},
			Mark: func() netsim.Marker {
				return &netsim.REDMarker{Kmin: 5000, Kmax: 200000, Pmax: 0.01, Rng: nw.Rng}
			},
		})
		rx, err := dcqcn.NewEndpoint(star.Receiver, p)
		if err != nil {
			t.Fatal(err)
		}
		var senders []*dcqcn.Sender
		for i, h := range star.Senders {
			ep, err := dcqcn.NewEndpoint(h, p)
			if err != nil {
				t.Fatal(err)
			}
			s, err := ep.NewFlow(i, star.Receiver.ID(), 400000, 0)
			if err != nil {
				t.Fatal(err)
			}
			senders = append(senders, s)
		}
		(&fault.Plan{Seed: 17, Links: []fault.LinkFaults{
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
		t.Errorf("pooled (good=%d retx=%d proc=%d end=%v) != unpooled (good=%d retx=%d proc=%d end=%v)",
			g1, x1, p1, e1, g2, x2, p2, e2)
	}
	if x1 == 0 {
		t.Error("lossy pooling test retransmitted nothing — not exercising recycle paths")
	}
}
