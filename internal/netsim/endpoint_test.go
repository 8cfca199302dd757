package netsim

import (
	"reflect"
	"testing"

	"ecndelay/internal/des"
	"ecndelay/internal/obs"
)

// signalRec is what the receiver sent back for one data packet.
type signalRec struct {
	Kind  Kind
	Seq   int64
	EchoT des.Time
	Bytes int
}

// rxStep hands the receiver one data packet at time at (µs) and expects
// the signals it sends back in the same instant.
type rxStep struct {
	at           des.Duration
	seq          int64
	size         int
	last, ackReq bool
	want         []signalRec
}

// The shared receiver's rules, fed hand-built data packets: in-order data
// is delivered and acked at the protocol's cadence (DCQCN: the first and
// last packet, every 64,000 bytes or 100 µs; TIMELY: AckReq or Last,
// echoing SentAt and the size), a gap is NACKed with the expected offset
// and a duplicate re-acked, both at most once per 50 µs per flow.
func TestEndpointReceiverRules(t *testing.T) {
	const us = des.Microsecond
	ack := func(seq int64) signalRec { return signalRec{Kind: Ack, Seq: seq} }
	nack := func(seq int64) signalRec { return signalRec{Kind: Nack, Seq: seq} }
	// Segment acks echo the data packet's SentAt, which the harness sets
	// 2 µs before delivery.
	echo := func(seq int64, at des.Duration, size int) signalRec {
		return signalRec{Kind: Ack, Seq: seq, EchoT: des.Time(at - 2*us), Bytes: size}
	}
	for _, c := range []struct {
		name              string
		segAcks, recovery bool
		steps             []rxStep
		delivered         int64
		completedAt       des.Duration // 0: the flow does not complete
	}{
		{"dcqcn: first, every 64000 bytes or 100 µs, last", false, true, []rxStep{
			{at: 10 * us, seq: 0, size: 32000, want: []signalRec{ack(32000)}},
			{at: 20 * us, seq: 32000, size: 32000},
			{at: 30 * us, seq: 64000, size: 32000, want: []signalRec{ack(96000)}},
			{at: 40 * us, seq: 96000, size: 1000},
			{at: 129 * us, seq: 97000, size: 1000},
			{at: 130 * us, seq: 98000, size: 1000, want: []signalRec{ack(99000)}},
			{at: 131 * us, seq: 99000, size: 1000, last: true, want: []signalRec{ack(100000)}},
		}, 100000, 131 * us},
		{"dcqcn: no acks without recovery", false, false, []rxStep{
			{at: 10 * us, seq: 0, size: 64000},
			{at: 200 * us, seq: 64000, size: 1000, last: true},
		}, 65000, 200 * us},
		{"timely: AckReq or Last, echoing SentAt and size", true, false, []rxStep{
			{at: 10 * us, seq: 0, size: 1000},
			{at: 12 * us, seq: 1000, size: 1000, ackReq: true, want: []signalRec{echo(0, 12*us, 1000)}},
			{at: 14 * us, seq: 2000, size: 500, last: true, want: []signalRec{echo(0, 14*us, 500)}},
		}, 2500, 14 * us},
		{"timely: cumulative segment acks under recovery", true, true, []rxStep{
			{at: 10 * us, seq: 0, size: 1000},
			{at: 12 * us, seq: 1000, size: 1000, ackReq: true, want: []signalRec{echo(2000, 12*us, 1000)}},
			{at: 14 * us, seq: 2000, size: 500, last: true, want: []signalRec{echo(2500, 14*us, 500)}},
		}, 2500, 14 * us},
		{"a gap NACKs the expected offset at most once per 50 µs", false, true, []rxStep{
			{at: 10 * us, seq: 0, size: 1000, want: []signalRec{ack(1000)}},
			{at: 40 * us, seq: 2000, size: 1000}, // 30 µs after the ack
			{at: 60 * us, seq: 2000, size: 1000, want: []signalRec{nack(1000)}},
			{at: 100 * us, seq: 3000, size: 1000}, // 40 µs after the NACK
			{at: 110 * us, seq: 4000, size: 1000, want: []signalRec{nack(1000)}},
			{at: 120 * us, seq: 1000, size: 1000}, // the missing packet, in order
		}, 2000, 0},
		{"a duplicate is re-acked at most once per 50 µs", false, true, []rxStep{
			{at: 10 * us, seq: 0, size: 1000, want: []signalRec{ack(1000)}},
			{at: 20 * us, seq: 0, size: 1000},
			{at: 60 * us, seq: 0, size: 1000, want: []signalRec{ack(1000)}},
			{at: 70 * us, seq: 0, size: 1000},
		}, 1000, 0},
		{"a timely duplicate re-ack echoes the duplicate", true, true, []rxStep{
			{at: 10 * us, seq: 0, size: 1000, ackReq: true, want: []signalRec{echo(1000, 10*us, 1000)}},
			{at: 30 * us, seq: 0, size: 1000, ackReq: true},
			{at: 60 * us, seq: 0, size: 1000, ackReq: true, want: []signalRec{echo(1000, 60*us, 1000)}},
		}, 1000, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			nw := New(1)
			peer, host := nw.NewHost(), nw.NewHost()
			// An instant link: every signal reaches the peer in the
			// instant it is sent, so each step sees exactly its own.
			peer.Connect(host, 1e15, 0, nil)
			host.Connect(peer, 1e15, 0, nil)
			var got []signalRec
			peer.Transport = TransportFunc(func(_ *Host, p *Packet) {
				got = append(got, signalRec{Kind: p.Kind, Seq: p.Seq, EchoT: p.EchoT, Bytes: p.Bytes})
			})
			var ep Endpoint
			ep.Init(host, "rx", c.segAcks, c.recovery, 0)
			var done []Completion
			ep.OnComplete = func(cp Completion) { done = append(done, cp) }
			for _, s := range c.steps {
				at := des.Time(s.at)
				nw.Sim.RunUntil(at)
				pkt := nw.NewPacket()
				pkt.Kind, pkt.Flow, pkt.Src, pkt.Dst = Data, 7, peer.ID(), host.ID()
				pkt.Seq, pkt.Size, pkt.Last, pkt.AckReq = s.seq, s.size, s.last, s.ackReq
				pkt.SentAt = at - des.Time(2*us)
				got = nil
				ep.Deliver(pkt)
				nw.FreePacket(pkt)
				nw.Sim.RunUntil(at)
				if !reflect.DeepEqual(got, s.want) {
					t.Errorf("data seq %d at %v: sent back %+v, want %+v", s.seq, s.at, got, s.want)
				}
			}
			if n := ep.TotalRxBytes(); n != c.delivered {
				t.Errorf("delivered %d bytes, want %d", n, c.delivered)
			}
			var want []Completion
			if c.completedAt != 0 {
				want = []Completion{{Flow: 7, Bytes: c.delivered, At: des.Time(c.completedAt)}}
			}
			if !reflect.DeepEqual(done, want) {
				t.Errorf("completions %+v, want %+v", done, want)
			}
		})
	}
}

// pacer is the simplest rate control over the shared Sender: it hands
// everything from the cursor to the NIC at once, and records when the
// transport asks it to resend or stop.
type pacer struct {
	Sender
	resends []des.Time
	stops   int
}

func (p *pacer) Resend() {
	p.resends = append(p.resends, p.ep.host.Now())
	p.sendAll()
}

func (p *pacer) Stop() { p.stops++ }

func (p *pacer) sendAll() {
	for pkt := p.DataPacket(); pkt != nil; pkt = p.DataPacket() {
		size := int64(pkt.Size)
		p.Transmit(pkt)
		p.Advance(size)
		p.ArmRTO()
	}
	p.Finish()
}

// startPacer starts flow 1 of size bytes from host n1 toward a sink, n0,
// that swallows its data, and sends the whole flow at time 0.
func startPacer(o *obs.NetObserver, recovery bool, size int64) (*Network, *pacer) {
	nw := New(1)
	if o != nil {
		nw.SetObserver(o)
	}
	sink, host := nw.NewHost(), nw.NewHost()
	host.Connect(sink, 1e15, 0, nil)
	sink.Connect(host, 1e15, 0, nil)
	ep := &Endpoint{}
	ep.Init(host, "tx", false, recovery, 0)
	p := &pacer{}
	p.Init(ep, p, 1, sink.ID(), size)
	p.Begin()
	p.sendAll()
	return nw, p
}

// The shared sender's go-back-N rules, driven by hand: without recovery a
// flow ends with its cursor and ignores feedback; a NACK rewinds to the
// offset it names; the RTO doubles from 1 ms up to 8 ms while nothing is
// acknowledged and falls back to 1 ms once an ack makes progress; the ack
// that covers the flow ends it and its recovery episode.
func TestSenderGoBackN(t *testing.T) {
	const ms = des.Millisecond
	t.Run("without recovery the cursor's end is the flow's", func(t *testing.T) {
		_, p := startPacer(nil, false, 2500)
		p.OnNack(1000)
		p.OnAck(2500)
		if !p.Done() || p.stops != 1 || p.SentBytes() != 2500 || p.resends != nil {
			t.Errorf("done %v, stops %d, sent %d, resends %v; want done, 1 stop, 2500, none",
				p.Done(), p.stops, p.SentBytes(), p.resends)
		}
		if st := p.Recovery(); st != (RecoveryStats{}) {
			t.Errorf("recovery stats %+v without recovery", st)
		}
	})
	t.Run("a NACK rewinds to its offset", func(t *testing.T) {
		nw, p := startPacer(nil, true, 3000)
		if p.Done() {
			t.Fatal("done before any ack")
		}
		nw.Sim.RunUntil(des.Time(ms / 10))
		p.OnNack(1000)
		want := RecoveryStats{RetxBytes: 2000, Rewinds: 1, AckedBytes: 1000, Recovering: true}
		if st := p.Recovery(); st != want || len(p.resends) != 1 {
			t.Errorf("after the NACK: %+v and %d resends, want %+v and 1", st, len(p.resends), want)
		}
		nw.Sim.RunUntil(des.Time(3 * ms / 10))
		p.OnAck(3000)
		want = RecoveryStats{RetxBytes: 2000, Rewinds: 1, AckedBytes: 3000, RecoveryTime: ms / 5}
		if st := p.Recovery(); st != want || !p.Done() || p.stops != 1 {
			t.Errorf("after the full ack: %+v, done %v, stops %d; want %+v, done, 1", st, p.Done(), p.stops, want)
		}
		nw.Sim.RunUntil(des.Time(20 * ms))
		if len(p.resends) != 1 {
			t.Errorf("the RTO outlived the flow: resends at %v", p.resends)
		}
	})
	t.Run("the RTO backs off to 8x until an ack makes progress", func(t *testing.T) {
		mem := obs.NewMemorySink[obs.Decision](0)
		o := &obs.NetObserver{Metrics: obs.NewRegistry(), Trace: obs.NewTracer(), Hists: obs.NewHistSet(),
			Audit: obs.NewAuditTrail(mem)}
		nw, p := startPacer(o, true, 2000)
		nw.Sim.RunUntil(des.Time(31 * ms))
		want := []des.Time{des.Time(ms), des.Time(3 * ms), des.Time(7 * ms), des.Time(15 * ms),
			des.Time(23 * ms), des.Time(31 * ms)}
		if !reflect.DeepEqual(p.resends, want) {
			t.Errorf("RTOs fired at %v, want %v", p.resends, want)
		}
		for name, want := range map[string]int64{"tx.n1.rtos": 6, "tx.n1.retx_pkts": 12, "tx.n1.retx_bytes": 12000} {
			if v := o.Metrics.Counter(name).Value(); v != want {
				t.Errorf("%s = %d, want %d", name, v, want)
			}
		}
		if n := o.Trace.Count(obs.Retx); n != 12 {
			t.Errorf("%d retx trace records, want 12", n)
		}
		if n := o.Hist("tx.pace_gap_s").Count(); n != 13 {
			t.Errorf("%d pacing gaps recorded, want 13", n)
		}
		// Progress resets the backoff: the next timeout is 1 ms again.
		p.OnAck(1000)
		nw.Sim.RunUntil(des.Time(32 * ms))
		if len(p.resends) != 7 || p.resends[6] != des.Time(32*ms) {
			t.Errorf("RTOs fired at %v, want one more at 32ms after the partial ack", p.resends)
		}
		nw.Sim.RunUntil(des.Time(65 * ms / 2))
		p.OnAck(2000)
		wantSt := RecoveryStats{RetxBytes: 13000, Rewinds: 7, RTOs: 7, AckedBytes: 2000, RecoveryTime: 63 * ms / 2}
		if st := p.Recovery(); st != wantSt || !p.Done() {
			t.Errorf("after the full ack: %+v, done %v; want %+v, done", st, p.Done(), wantSt)
		}
		if !p.ep.Auditing() {
			t.Fatal("the endpoint did not bind the audit trail")
		}
		p.Audit(obs.Decision{Type: obs.DecRTTSample})
		wantD := []obs.Decision{{T: des.Time(65 * ms / 2), Type: obs.DecRTTSample, Node: 1, Peer: 0, Flow: 1, Seq: 1}}
		if got := mem.Records(); !reflect.DeepEqual(got, wantD) {
			t.Errorf("audit records %+v, want %+v", got, wantD)
		}
	})
}
