package netsim

import (
	"fmt"
	"math"

	"ecndelay/internal/des"
	"ecndelay/internal/obs"
)

// The transport under both protocols. DCQCN and TIMELY run over the same
// RDMA NIC, so they share one transport here and keep only their rate
// control: a protocol endpoint embeds Endpoint, and each of its flows
// embeds Sender. The transport owns the send cursor, the in-order receive
// cursor, the delivered-byte tally and completion callback, and the
// counters, pacing histogram and audit stamping both protocols report
// through.
//
// With recovery on it also runs go-back-N, the loss recovery RoCE NICs
// implement: the receiver delivers only in-order data and acknowledges it
// cumulatively, a sequence gap triggers a NACK naming the next expected
// offset, and the sender rewinds its cursor and resends everything from
// there. An RTO with exponential backoff backstops lost feedback. Recovery
// is off by default — RoCE assumes a lossless fabric — and then none of it
// runs: no extra events, no wire changes.

// The go-back-N constants. They belong to the NIC's transport, not to
// either congestion signal, and no experiment varies them.
const (
	// defaultRTO is the retransmission timeout when a recovering
	// endpoint's RTO is zero.
	defaultRTO = des.Millisecond
	// rtoBackoff bounds the exponential backoff: each consecutive timeout
	// doubles the RTO, up to RTOMax = 8×RTO.
	rtoBackoff = 3
	// MaxRTO is the largest RTO whose backoff cap, 8×RTO, fits a
	// des.Duration.
	MaxRTO = des.Duration(math.MaxInt64 >> rtoBackoff)
	// nackMinGap rate-limits NACKs and duplicate re-acks per flow, so a
	// burst of out-of-order arrivals does not stampede the sender.
	nackMinGap = 50 * des.Microsecond
	// ackBytes and ackInterval space DCQCN's acks: one per ackBytes of
	// in-order data, or sooner once ackInterval has passed since the
	// flow's last signal, so a slow flow keeps its RTO quiet.
	ackBytes    = 64000
	ackInterval = 100 * des.Microsecond
)

// Completion reports a finished flow at its receiver.
type Completion struct {
	Flow  int
	Bytes int64
	At    des.Time
}

// RecoveryStats summarises a sender's loss-recovery work.
type RecoveryStats struct {
	RetxBytes    int64        // bytes re-sent below the high-water mark
	Rewinds      int64        // go-back-N cursor rewinds
	RTOs         int64        // retransmission timeouts fired
	AckedBytes   int64        // cumulative acknowledged bytes
	Recovering   bool         // currently inside a recovery episode
	RecoveryTime des.Duration // total time spent recovering
}

// Endpoint is the transport of one host: the receiving side of every flow
// addressed to it, and the state its senders share.
type Endpoint struct {
	host     *Host
	segAcks  bool // TIMELY's acks: one per AckReq or Last packet, echoing its send time
	recovery bool
	rto      des.Duration
	rx       map[int]*rxState // go-back-N receive cursors (recovery only)
	rxBytes  map[int]int64

	// OnComplete, if set, fires when a flow's last packet arrives here.
	OnComplete func(Completion)

	// Observability bindings; nil when the network has no observer (or
	// not that facility) attached. audSeq numbers this endpoint's audit
	// decisions for the canonical audit sort order.
	ctr      *obs.EndpointCounters
	paceGapH *obs.Hist
	aud      *obs.AuditTrail
	audSeq   uint64
}

// rxState is the receiver's go-back-N cursor for one flow.
type rxState struct {
	exp     int64 // next expected byte offset
	pending int64 // in-order bytes since the last ack
	lastSig des.Time
	sigged  bool
}

// Init binds the transport to h. proto names the endpoint's counters
// ("<proto>.n<host id>") and pacing histogram ("<proto>.pace_gap_s");
// attach the network's observer first. segAcks selects TIMELY's acks —
// one for every packet flagged AckReq or Last, echoing its send time and
// size, with or without recovery — over DCQCN's, which exist only under
// recovery: the first and last packet, and every 64,000 bytes or 100 µs in
// between. recovery turns on go-back-N with timeout rto (0: 1 ms).
func (e *Endpoint) Init(h *Host, proto string, segAcks, recovery bool, rto des.Duration) {
	if recovery && rto == 0 {
		rto = defaultRTO
	}
	*e = Endpoint{host: h, segAcks: segAcks, recovery: recovery, rto: rto,
		rx: make(map[int]*rxState), rxBytes: make(map[int]int64)}
	if o := h.net.obs; o != nil {
		if o.Metrics != nil {
			e.ctr = o.Metrics.EndpointCounters(o.ProbeName(fmt.Sprintf("%s.n%d", proto, h.ID())))
		}
		e.paceGapH = o.Hist(proto + ".pace_gap_s")
		e.aud = o.Audit
	}
}

// Host returns the attached host.
func (e *Endpoint) Host() *Host { return e.host }

// Counters returns the endpoint's counter set, nil when unobserved.
func (e *Endpoint) Counters() *obs.EndpointCounters { return e.ctr }

// Auditing reports whether an audit trail receives this endpoint's
// decisions; build a decision for Sender.Audit only when it does.
func (e *Endpoint) Auditing() bool { return e.aud != nil }

// TotalRxBytes sums delivered payload across flows at this endpoint —
// under recovery that is in-order bytes only, i.e. goodput.
func (e *Endpoint) TotalRxBytes() int64 {
	var n int64
	for _, b := range e.rxBytes {
		n += b
	}
	return n
}

// Deliver takes a data packet addressed to this host. Without recovery
// every packet is delivered. Under recovery only in-order payload is; a
// gap is NACKed and a duplicate re-acked instead, each at most once per
// 50 µs per flow.
func (e *Endpoint) Deliver(pkt *Packet) {
	var st *rxState
	if e.recovery {
		if st = e.inOrder(pkt); st == nil {
			return
		}
	}
	size := int64(pkt.Size)
	e.rxBytes[pkt.Flow] += size
	if e.ctr != nil {
		e.ctr.RxBytes.Add(size)
	}
	if e.ackDue(pkt, st) {
		e.signal(pkt, Ack, st)
	}
	if pkt.Last && e.OnComplete != nil {
		e.OnComplete(Completion{Flow: pkt.Flow, Bytes: e.rxBytes[pkt.Flow], At: e.host.Now()})
	}
}

// inOrder moves the flow's receive cursor past pkt and returns the flow's
// state when pkt is the next expected data. Otherwise it returns nil after
// signalling, rate-limited: a gap, whose payload go-back-N cannot use, is
// NACKed with the missing offset; a duplicate of delivered data (a rewind
// overshoot, or a lost ack) is re-acked, so the sender cannot wedge
// waiting for an acknowledgement that already died on the wire.
func (e *Endpoint) inOrder(pkt *Packet) *rxState {
	st := e.rx[pkt.Flow]
	if st == nil {
		st = &rxState{}
		e.rx[pkt.Flow] = st
	}
	if pkt.Seq == st.exp {
		st.exp += int64(pkt.Size)
		st.pending += int64(pkt.Size)
		return st
	}
	if !st.sigged || e.host.Now().Sub(st.lastSig) >= nackMinGap {
		kind := Ack
		if pkt.Seq > st.exp {
			kind = Nack
		}
		e.signal(pkt, kind, st)
	}
	return nil
}

// ackDue reports whether delivered data is acknowledged now; st is the
// flow's go-back-N state, nil without recovery.
func (e *Endpoint) ackDue(pkt *Packet, st *rxState) bool {
	switch {
	case e.segAcks:
		return pkt.AckReq || pkt.Last
	case st == nil:
		return false
	}
	return pkt.Last || !st.sigged || st.pending >= ackBytes ||
		e.host.Now().Sub(st.lastSig) >= ackInterval
}

// signal sends an Ack or Nack for data back to its sender. Under recovery
// (st non-nil) Seq carries the next expected offset; segment acks also
// echo the data packet's send time and size for the RTT engine.
func (e *Endpoint) signal(data *Packet, kind Kind, st *rxState) {
	pkt := e.host.AllocPacket()
	pkt.Flow = data.Flow
	pkt.Dst = data.Src
	pkt.Size = CtrlSize
	pkt.Kind = kind
	if st != nil {
		st.sigged = true
		st.lastSig = e.host.Now()
		pkt.Seq = st.exp
		if kind == Ack {
			st.pending = 0
		}
	}
	if kind == Ack && e.segAcks {
		pkt.EchoT = data.SentAt
		pkt.Bytes = data.Size
	}
	if e.ctr != nil {
		if kind == Ack {
			e.ctr.AcksTx.Inc()
		} else {
			e.ctr.NacksTx.Inc()
		}
	}
	e.host.Send(pkt)
}

// Control is the rate-control half of a sender: the protocol sender that
// embeds Sender. The transport calls it only after a go-back-N rewind and
// when the flow ends, never per packet.
type Control interface {
	// Resend cancels the pending pacing event and sends from the rewound
	// cursor.
	Resend()
	// Stop cancels the protocol's pacing event and timers: the flow is
	// done.
	Stop()
}

// Sender is the transport of one flow: the send cursor with its
// high-water mark, the cumulative ack, and the RTO that backstops them.
// The protocol paces the cursor: DataPacket builds the packet at it,
// Transmit hands that to the NIC, and Advance moves the cursor past it.
type Sender struct {
	ep      *Endpoint
	cc      Control
	id, dst int
	size    int64 // total bytes to send; <0 means unbounded

	sent         int64 // send cursor
	maxSent      int64 // high-water mark of the send cursor
	acked        int64 // cumulative acknowledged bytes
	retxBytes    int64
	rewinds      int64
	rtos         int64
	rtoShift     int // exponential backoff exponent, at most rtoBackoff
	recoverStart des.Time
	recoverTime  des.Duration
	rtoEv        des.EventRef

	// The previous data-send instant (obsSent: there was one), so the
	// pacing-gap histogram records inter-send spacing; maintained only
	// when that histogram is bound.
	obsLastSend des.Time

	// The flags sit together so the protocol senders that embed Sender
	// stay in the allocation size classes they had with their own copies.
	started, done, recovering, obsSent bool
}

// Init binds the sender of flow id, size bytes (size < 0: unbounded)
// toward host dst, to its endpoint's transport and to cc, the protocol
// sender that embeds it.
func (s *Sender) Init(ep *Endpoint, cc Control, id, dst int, size int64) {
	*s = Sender{ep: ep, cc: cc, id: id, dst: dst, size: size}
}

// Begin marks the flow started; it reports false if it already was.
func (s *Sender) Begin() bool {
	if s.started {
		return false
	}
	s.started = true
	return true
}

// Started reports whether the flow has started.
func (s *Sender) Started() bool { return s.started }

// Done reports whether the flow is over: every byte handed to the NIC,
// and under recovery every byte acknowledged.
func (s *Sender) Done() bool { return s.done }

// SentBytes reports the send cursor: bytes handed to the NIC so far, less
// any that a rewind will send again.
func (s *Sender) SentBytes() int64 { return s.sent }

// Recovery reports the sender's loss-recovery statistics.
func (s *Sender) Recovery() RecoveryStats {
	return RecoveryStats{
		RetxBytes:    s.retxBytes,
		Rewinds:      s.rewinds,
		RTOs:         s.rtos,
		AckedBytes:   s.acked,
		Recovering:   s.recovering,
		RecoveryTime: s.recoverTime,
	}
}

// DataPacket builds the data packet at the send cursor, flagged Last at
// the end of a sized flow, or returns nil when the cursor has reached the
// end. The payload is synthetic, so go-back-N needs no retransmit buffer:
// a rewound cursor builds identical packets again.
func (s *Sender) DataPacket() *Packet {
	size := int64(DataMTU)
	last := false
	if s.size >= 0 {
		remain := s.size - s.sent
		if remain <= 0 {
			return nil
		}
		if remain <= size {
			size = remain
			last = true
		}
	}
	pkt := s.ep.host.AllocPacket()
	pkt.Flow = s.id
	pkt.Dst = s.dst
	pkt.Size = int(size)
	pkt.Kind = Data
	pkt.ECT = true
	pkt.Seq = s.sent
	pkt.Last = last
	return pkt
}

// Transmit hands a data packet to the NIC and records the gap since the
// previous one in the pacing-gap histogram.
func (s *Sender) Transmit(pkt *Packet) {
	s.ep.host.Send(pkt)
	if h := s.ep.paceGapH; h != nil {
		s.obsPace(h)
	}
}

// Advance moves the cursor past the size bytes built at it. A packet
// below the high-water mark, which only a go-back-N rewind leaves behind,
// is a retransmission, counted and traced here: DCQCN advances after
// handing the packet to the NIC, TIMELY before, and each trace keeps its
// protocol's record order.
func (s *Sender) Advance(size int64) {
	if s.sent < s.maxSent {
		s.obsRetx(size)
	}
	s.sent += size
	s.maxSent = max(s.maxSent, s.sent)
}

// ArmRTO (re)starts the retransmission timer; without recovery it does
// nothing.
func (s *Sender) ArmRTO() {
	if s.ep.recovery {
		s.armRTO()
	}
}

func (s *Sender) armRTO() {
	s.rtoEv.Cancel()
	s.rtoEv = s.ep.host.ScheduleHandler(s.ep.rto<<s.rtoShift, s, nil)
}

// Finish stops pacing at the end of the flow. Under recovery, with bytes
// still unacknowledged, the RTO and incoming NACKs drive retransmission
// until the cumulative ack covers the flow; otherwise the flow is done.
func (s *Sender) Finish() {
	if s.ep.recovery && s.size >= 0 && s.acked < s.size {
		s.armRTO()
		return
	}
	s.stop()
}

func (s *Sender) stop() {
	s.done = true
	s.cc.Stop()
	s.rtoEv.Cancel()
}

// OnAck applies a cumulative acknowledgement of every byte before seq.
// It does nothing without recovery.
func (s *Sender) OnAck(seq int64) {
	if !s.ep.recovery || !s.started || s.done || !s.ack(seq) {
		return
	}
	if s.acked >= s.sent {
		s.rtoEv.Cancel() // nothing outstanding
	} else {
		s.armRTO()
	}
}

// OnNack rewinds to the receiver's next expected offset, seq, which also
// acknowledges every byte before it. It does nothing without recovery.
func (s *Sender) OnNack(seq int64) {
	if !s.ep.recovery || !s.started || s.done || !s.ack(seq) {
		return
	}
	s.rewind(seq)
}

// ack moves the cumulative ack up to seq and closes a recovery episode
// once it catches the high-water mark. It reports false, ending the flow,
// once the ack covers every byte.
func (s *Sender) ack(seq int64) bool {
	if seq > s.acked {
		s.acked = seq
		s.rtoShift = 0 // feedback is flowing again
	}
	if s.recovering && s.acked >= s.maxSent {
		s.recoverTime += s.ep.host.Now().Sub(s.recoverStart)
		s.recovering = false
	}
	if s.size >= 0 && s.acked >= s.size {
		s.stop()
		return false
	}
	return true
}

// OnEvent implements des.Handler for the retransmission timeout: neither
// ack nor NACK arrived for a full timeout, so everything outstanding is
// assumed lost and the cursor goes back to the last acknowledged offset.
func (s *Sender) OnEvent(any) {
	if s.done || !s.started {
		return
	}
	if s.acked >= s.sent {
		s.armRTO() // nothing outstanding (a stale timer): keep a quiet backstop
		return
	}
	s.rtos++
	if s.ep.ctr != nil {
		s.ep.ctr.RTOs.Inc()
	}
	if s.rtoShift < rtoBackoff {
		s.rtoShift++
	}
	s.rewind(s.acked)
}

// rewind moves the send cursor back to offset to and has the protocol
// resend from there.
func (s *Sender) rewind(to int64) {
	if to < s.acked {
		to = s.acked
	}
	if to >= s.sent {
		return // nothing to go back over
	}
	if !s.recovering {
		s.recovering = true
		s.recoverStart = s.ep.host.Now()
	}
	s.rewinds++
	s.sent = to
	s.cc.Resend()
}

// Audit stamps a decision with the time, this flow and the endpoint's next
// sequence number, and emits it. Call it only when the endpoint is
// Auditing.
func (s *Sender) Audit(d obs.Decision) {
	e := s.ep
	e.audSeq++
	d.T = e.host.Now()
	d.Node = int32(e.host.ID())
	d.Peer = int32(s.dst)
	d.Flow = int32(s.id)
	d.Seq = e.audSeq
	e.aud.Emit(d)
}

// obsPace records the gap since this sender's previous data packet in h,
// the bound pacing-gap histogram.
func (s *Sender) obsPace(h *obs.Hist) {
	now := s.ep.host.Now()
	if s.obsSent {
		h.Record(now.Sub(s.obsLastSend).Seconds())
	}
	s.obsSent = true
	s.obsLastSend = now
}

// obsRetx counts the retransmission of size bytes at the cursor, in the
// sender's statistics, the counters and a trace record.
func (s *Sender) obsRetx(size int64) {
	s.retxBytes += size
	e := s.ep
	if e.ctr != nil {
		e.ctr.RetxPkts.Inc()
		e.ctr.RetxBytes.Add(size)
	}
	if o := e.host.net.obs; o != nil {
		o.Emit(obs.Event{
			T:    e.host.Now(),
			Type: obs.Retx,
			Kind: uint8(Data),
			Node: int32(e.host.ID()),
			Peer: int32(s.dst),
			Flow: int32(s.id),
			Size: int32(size),
			Seq:  s.sent,
		})
	}
}
