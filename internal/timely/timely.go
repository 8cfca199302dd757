// Package timely implements the TIMELY (Algorithm 1) and patched TIMELY
// (Algorithm 2) endpoints of §4 for the packet-level simulator: RTT
// measurement once per completion event, the EWMA RTT-gradient engine, and
// both pacing disciplines — per-packet pacing and the per-burst chunk
// pacing the TIMELY implementation uses (§4.2, Figure 10).
package timely

import (
	"errors"
	"fmt"

	"ecndelay/internal/des"
	"ecndelay/internal/fixedpoint"
	"ecndelay/internal/netsim"
	"ecndelay/internal/obs"
)

// Params are the TIMELY knobs of [21], in wire units (bytes, bytes/s).
type Params struct {
	EWMA    float64      // α: weight of the newest RTT difference (0.875)
	Beta    float64      // β: multiplicative decrease factor
	Delta   float64      // δ: additive increase step, bytes/s
	TLow    des.Duration // additive-increase RTT threshold
	THigh   des.Duration // multiplicative-decrease RTT threshold
	MinRTT  des.Duration // D_minRTT: gradient normalisation & update gate
	Seg     int          // completion-event segment size, bytes
	Burst   bool         // per-burst pacing (chunks at line rate) vs per-packet
	MinRate float64      // rate floor, bytes/s

	// BetaHigh is the decrease factor for the newRTT > THigh emergency
	// branch. Zero means Beta. Patched TIMELY shrinks Beta to 0.008 for
	// the in-band term while the THigh brake keeps the original 0.8 —
	// the §4.3 fix targets the fixed-point structure, "without changing
	// the dynamics of TIMELY's queue build up" (§5.1).
	BetaHigh float64

	// Patched selects Algorithm 2 (the §4.3 fix).
	Patched bool
	// RTTRef is Algorithm 2's reference RTT; rate decrease scales with
	// (newRTT-RTTRef)/RTTRef. The paper's q' = C·T_low corresponds to
	// RTTRef ≈ T_low plus the topology's base RTT.
	RTTRef des.Duration

	// Recovery enables the shared transport's go-back-N loss recovery
	// (netsim.Endpoint): the segment acks become cumulative (Seq carries
	// the receiver's next expected offset), gaps trigger rate-limited
	// NACKs, and the sender rewinds and retransmits with an RTO backstop.
	// Off by default.
	Recovery bool
	// RTO is the retransmission timeout (0: 1 ms).
	RTO des.Duration
}

// DefaultParams returns the footnote-4 parameters with 16 KB segments and
// per-packet pacing.
func DefaultParams() Params {
	return Params{
		EWMA:    0.875,
		Beta:    0.8,
		Delta:   10e6 / 8,
		TLow:    50 * des.Microsecond,
		THigh:   500 * des.Microsecond,
		MinRTT:  20 * des.Microsecond,
		Seg:     16000,
		MinRate: 1e6 / 8,
	}
}

// DefaultPatchedParams returns the §4.3 patched parameters: β = 0.008 and
// RTTRef = T_low + 10 µs of base RTT, with DefaultParams' 16 KB segments.
func DefaultPatchedParams() Params {
	p := DefaultParams()
	p.Patched = true
	p.BetaHigh = p.Beta // keep the original 0.8 emergency brake
	p.Beta = 0.008
	p.RTTRef = p.TLow + 10*des.Microsecond
	return p
}

// Validate reports parameter errors.
func (p Params) Validate() error {
	switch {
	case p.EWMA <= 0 || p.EWMA > 1:
		return errors.New("timely: EWMA must be in (0,1]")
	case p.Beta <= 0 || p.Beta >= 1:
		return errors.New("timely: Beta must be in (0,1)")
	case p.Delta <= 0:
		return errors.New("timely: Delta must be positive")
	case p.TLow < 0 || p.THigh <= p.TLow:
		return errors.New("timely: need 0 <= TLow < THigh")
	case p.MinRTT <= 0:
		return errors.New("timely: MinRTT must be positive")
	case p.Seg < netsim.DataMTU:
		return errors.New("timely: Seg must be at least one MTU")
	case p.MinRate <= 0:
		return errors.New("timely: MinRate must be positive")
	case p.Patched && p.RTTRef <= 0:
		return errors.New("timely: patched mode needs RTTRef")
	case p.Recovery && (p.RTO < 0 || p.RTO > netsim.MaxRTO):
		return errors.New("timely: recovery needs 0 <= RTO <= netsim.MaxRTO (0: the 1 ms default)")
	}
	return nil
}

// Completion reports a finished flow at the receiver.
type Completion = netsim.Completion

// Endpoint is the per-host TIMELY engine: the shared transport (delivery,
// segment acks, completion and go-back-N recovery) plus the RTT engine of
// its sending flows.
type Endpoint struct {
	netsim.Endpoint
	p     Params
	flows map[int]*Sender

	// rttH is the per-flow RTT sample histogram; nil when the network has
	// no observer (or no HistSet) attached.
	rttH *obs.Hist
}

// NewEndpoint attaches a TIMELY engine to h.
func NewEndpoint(h *netsim.Host, p Params) (*Endpoint, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	e := &Endpoint{p: p, flows: make(map[int]*Sender)}
	e.Init(h, "timely", true, p.Recovery, p.RTO)
	// All senders on a run feed one RTT distribution, as the paper's
	// per-protocol behaviour plots do.
	e.rttH = h.Net().Observer().Hist("timely.rtt_s")
	h.Transport = e
	return e, nil
}

// ActiveFlows counts flows currently sending from this host.
func (e *Endpoint) ActiveFlows() int {
	n := 0
	for _, s := range e.flows {
		if s.Started() && !s.Done() {
			n++
		}
	}
	return n
}

// Handle implements netsim.Transport.
func (e *Endpoint) Handle(h *netsim.Host, pkt *netsim.Packet) {
	switch pkt.Kind {
	case netsim.Data:
		e.Deliver(pkt)
	case netsim.Ack:
		if s, ok := e.flows[pkt.Flow]; ok {
			s.onAck(pkt)
		}
	case netsim.Nack:
		if s, ok := e.flows[pkt.Flow]; ok {
			s.OnNack(pkt.Seq)
		}
	}
}

// Sender runs Algorithm 1 (or 2) for one flow, over the flow's shared
// transport (send cursor and go-back-N recovery).
type Sender struct {
	netsim.Sender
	e *Endpoint

	rate      float64
	startRate float64

	prevRTT    des.Duration
	rttDiff    float64 // seconds
	haveRTT    bool
	lastUpdate des.Time

	segBytes int64        // bytes sent in the current segment
	paceEv   des.EventRef // pending pacing tick (cancelled on rewind)
}

// Handler arguments: the sender is its own des.Handler, dispatching the
// pacing events on a small-int argument (boxes without allocating) so
// steady-state scheduling is allocation-free. The transport's RTO is the
// embedded netsim.Sender's own event.
const (
	evStart  = iota // flow start at its configured time
	evPacket        // per-packet pacing tick
	evBurst         // per-burst pacing tick
)

// OnEvent implements des.Handler.
func (s *Sender) OnEvent(arg any) {
	switch arg.(int) {
	case evStart:
		s.start()
	case evPacket:
		s.sendNextPacket()
	case evBurst:
		s.sendBurst()
	}
}

// NewFlow registers a flow of size bytes (size < 0: unbounded) toward host
// dst, starting at the given time. startRate <= 0 selects the [21] default
// of C/(N+1), computed at start time from the flows active on this host.
func (e *Endpoint) NewFlow(id int, dst int, size int64, start des.Time, startRate float64) (*Sender, error) {
	if _, dup := e.flows[id]; dup {
		return nil, fmt.Errorf("timely: duplicate flow id %d", id)
	}
	s := &Sender{e: e, startRate: startRate}
	s.Init(&e.Endpoint, s, id, dst, size)
	e.flows[id] = s
	e.Host().AtHandler(start, s, evStart)
	return s, nil
}

// Rate returns the current rate in bytes/s.
func (s *Sender) Rate() float64 { return s.rate }

// Gradient returns the current normalised RTT gradient.
func (s *Sender) Gradient() float64 { return s.rttDiff / s.e.p.MinRTT.Seconds() }

// RTT returns the most recent RTT sample (zero before the first
// completion event) — the signal the probe layer samples.
func (s *Sender) RTT() des.Duration { return s.prevRTT }

func (s *Sender) start() {
	if !s.Begin() {
		return
	}
	if s.startRate > 0 {
		s.rate = s.startRate
	} else {
		n := s.e.ActiveFlows() // this flow already counts as active
		s.rate = s.e.Host().LineRate() / float64(n+1)
	}
	s.clampRate()
	s.send()
}

// send runs the configured pacing discipline from the cursor.
func (s *Sender) send() {
	if s.e.p.Burst {
		s.sendBurst()
	} else {
		s.sendNextPacket()
	}
}

// Resend implements netsim.Control: pacing restarts from the rewound
// cursor. The segment accumulator restarts too, so ack-request boundaries
// stay aligned with the retransmitted stream.
func (s *Sender) Resend() {
	s.segBytes = 0
	s.paceEv.Cancel()
	s.send()
}

// Stop implements netsim.Control: the flow is done, so pacing stops.
func (s *Sender) Stop() { s.paceEv.Cancel() }

func (s *Sender) clampRate() {
	line := s.e.Host().LineRate()
	if s.rate > line {
		s.rate = line
	}
	if s.rate < s.e.p.MinRate {
		s.rate = s.e.p.MinRate
	}
}

// nextPacket builds the next data packet, flagging segment boundaries
// (AckReq) and flow completion (Last), and moves the cursor past it, so a
// retransmission is traced before the send. Returns nil at the end of the
// flow.
func (s *Sender) nextPacket() *netsim.Packet {
	pkt := s.DataPacket()
	if pkt == nil {
		return nil
	}
	s.segBytes += int64(pkt.Size)
	pkt.AckReq = pkt.Last
	if s.segBytes >= int64(s.e.p.Seg) {
		pkt.AckReq = true
		s.segBytes = 0
	}
	s.Advance(int64(pkt.Size))
	return pkt
}

// sendNextPacket implements per-packet pacing: every packet is spaced by
// size/rate.
func (s *Sender) sendNextPacket() {
	if s.Done() {
		return
	}
	pkt := s.nextPacket()
	if pkt == nil {
		s.Finish()
		return
	}
	// Ownership of pkt transfers to the network at Send; read its fields
	// before handing it over.
	size, last := pkt.Size, pkt.Last
	s.Transmit(pkt)
	s.ArmRTO()
	if last {
		s.Finish()
		return
	}
	gap := des.DurationFromSeconds(float64(size) / s.rate)
	s.paceEv = s.e.Host().ScheduleHandler(gap, s, evPacket)
}

// sendBurst implements per-burst pacing: a whole segment is handed to the
// NIC at once (it drains at line rate), and the next burst is scheduled so
// the average rate equals the target rate (§4.2).
func (s *Sender) sendBurst() {
	if s.Done() {
		return
	}
	burstBytes := int64(0)
	ended := false
	for burstBytes < int64(s.e.p.Seg) {
		pkt := s.nextPacket()
		if pkt == nil {
			ended = true
			break
		}
		size, last, ackReq := pkt.Size, pkt.Last, pkt.AckReq
		s.Transmit(pkt)
		burstBytes += int64(size)
		if last {
			ended = true
			break
		}
		if ackReq {
			break // segment boundary
		}
	}
	if burstBytes > 0 {
		s.ArmRTO()
	}
	if ended {
		s.Finish()
		return
	}
	gap := des.DurationFromSeconds(float64(burstBytes) / s.rate)
	s.paceEv = s.e.Host().ScheduleHandler(gap, s, evBurst)
}

// onAck is the completion event: compute the RTT sample and run the rate
// update, gated to once per MinRTT as in [21] §5. Under Recovery the ack
// is also cumulative; the acknowledgement state advances even when the
// RTT update is gated away.
func (s *Sender) onAck(pkt *netsim.Packet) {
	if !s.Started() {
		return
	}
	if s.e.p.Recovery {
		s.OnAck(pkt.Seq)
		if s.Done() {
			return
		}
	}
	now := s.e.Host().Now()
	newRTT := now.Sub(pkt.EchoT)
	if h := s.e.rttH; h != nil {
		// Every completion-event RTT sample lands in the distribution,
		// including the ones the MinRTT gate below keeps away from the
		// rate computation — the spread is what the paper plots.
		h.Record(newRTT.Seconds())
	}
	if s.e.Auditing() {
		// Likewise every sample is audited, gated or not, so the offline
		// analysis sees the same signal the engine saw.
		s.Audit(obs.Decision{Type: obs.DecRTTSample, RTT: newRTT.Seconds()})
	}
	if s.haveRTT && now.Sub(s.lastUpdate) < s.e.p.MinRTT {
		return
	}
	s.update(newRTT)
	s.lastUpdate = now
}

// update is Algorithm 1 (or Algorithm 2 when Patched).
func (s *Sender) update(newRTT des.Duration) {
	p := s.e.p
	if !s.haveRTT {
		s.haveRTT = true
		s.prevRTT = newRTT
		return
	}
	newDiff := (newRTT - s.prevRTT).Seconds()
	s.prevRTT = newRTT
	s.rttDiff = (1-p.EWMA)*s.rttDiff + p.EWMA*newDiff
	gradient := s.rttDiff / p.MinRTT.Seconds()
	oldRate := s.rate
	dec := obs.DecTimelyAdd
	if s.e.Auditing() {
		s.Audit(obs.Decision{Type: obs.DecGradient, Grad: gradient, RTT: newRTT.Seconds()})
	}

	switch {
	case newRTT < p.TLow:
		s.rate += p.Delta
	case newRTT > p.THigh:
		bh := p.BetaHigh
		if bh == 0 {
			bh = p.Beta
		}
		s.rate *= 1 - bh*(1-p.THigh.Seconds()/newRTT.Seconds())
		dec = obs.DecTimelyBrake
	default:
		if p.Patched {
			// Algorithm 2 lines 9-12.
			w := fixedpoint.PatchedWeight(gradient)
			errTerm := (newRTT - p.RTTRef).Seconds() / p.RTTRef.Seconds()
			s.rate = p.Delta*(1-w) + s.rate*(1-p.Beta*w*errTerm)
			dec = obs.DecTimelyPatched
		} else if gradient <= 0 {
			s.rate += p.Delta
		} else {
			s.rate *= 1 - p.Beta*gradient
			dec = obs.DecTimelyMD
		}
	}
	s.clampRate()
	if s.e.Auditing() {
		s.Audit(obs.Decision{
			Type: dec, OldRate: oldRate, NewRate: s.rate,
			RTT: newRTT.Seconds(), Grad: gradient,
		})
	}
}
