// Package dcqcn implements the DCQCN protocol endpoints of §3 for the
// packet-level simulator: the reaction point (RP, sender-side rate control
// with fast recovery, additive and hyper increase), and the notification
// point (NP, receiver-side CNP generation). The congestion point (CP) is
// the RED/ECN marking switch in internal/netsim.
package dcqcn

import (
	"errors"
	"fmt"
	"math"

	"ecndelay/internal/des"
	"ecndelay/internal/netsim"
	"ecndelay/internal/obs"
)

// Params are the DCQCN knobs of [31] (Table 1), in wire units: rates in
// bytes/second, the byte counter in bytes.
type Params struct {
	G           float64      // α gain (1/256)
	CNPInterval des.Duration // τ: minimum gap between CNPs per flow (50 µs)
	AlphaTimer  des.Duration // τ': α decay interval without feedback (55 µs)
	RateTimer   des.Duration // T: rate-increase timer (55 µs)
	ByteCounter int64        // B: rate-increase byte counter (10 MB)
	F           int          // fast recovery stages (5)
	RAI         float64      // additive increase step, bytes/s (40 Mb/s)
	RHAI        float64      // hyper increase step, bytes/s (200 Mb/s)
	MinRate     float64      // rate floor, bytes/s

	// Recovery enables the shared transport's go-back-N loss recovery
	// (netsim.Endpoint): the NP acknowledges in-order bytes cumulatively,
	// NACKs sequence gaps, and the RP retransmits from the last
	// acknowledged offset, backstopped by an RTO with exponential
	// backoff. Off by default — RoCE assumes a lossless fabric.
	Recovery bool
	// RTO is the retransmission timeout (0: 1 ms).
	RTO des.Duration
}

// DefaultParams returns the [31] defaults.
func DefaultParams() Params {
	return Params{
		G:           1.0 / 256,
		CNPInterval: 50 * des.Microsecond,
		AlphaTimer:  55 * des.Microsecond,
		RateTimer:   55 * des.Microsecond,
		ByteCounter: 10e6,
		F:           5,
		RAI:         40e6 / 8,
		RHAI:        200e6 / 8,
		MinRate:     1e6 / 8,
	}
}

// Validate reports parameter errors.
func (p Params) Validate() error {
	switch {
	case p.G <= 0 || p.G >= 1:
		return errors.New("dcqcn: g must be in (0,1)")
	case p.CNPInterval <= 0 || p.AlphaTimer <= 0 || p.RateTimer <= 0:
		return errors.New("dcqcn: timers must be positive")
	case p.AlphaTimer <= p.CNPInterval:
		return errors.New("dcqcn: τ' must exceed the CNP generation timer τ")
	case p.ByteCounter <= 0 || p.F <= 0:
		return errors.New("dcqcn: byte counter and F must be positive")
	case p.RAI <= 0 || p.RHAI < p.RAI:
		return errors.New("dcqcn: need 0 < RAI <= RHAI")
	case p.MinRate <= 0:
		return errors.New("dcqcn: MinRate must be positive")
	case p.Recovery && (p.RTO < 0 || p.RTO > netsim.MaxRTO):
		return errors.New("dcqcn: recovery needs 0 <= RTO <= netsim.MaxRTO (0: the 1 ms default)")
	}
	return nil
}

// Completion reports a finished flow at the receiver.
type Completion = netsim.Completion

// Endpoint is the per-host DCQCN engine: the shared transport (delivery,
// completion and go-back-N recovery) plus the RP role of its sending flows
// and the NP role toward the flows it receives. It attaches to a host as
// its Transport.
type Endpoint struct {
	netsim.Endpoint
	p     Params
	flows map[int]*Sender
	np    map[int]*npState

	// DCQCN's latency histograms, nil when the network has no observer (or
	// no HistSet) attached: CNP inter-arrival gaps at the RP, and with an
	// audit trail the mark→CNP-receipt and CNP-receipt→rate-cut legs of
	// the feedback latency.
	cnpGapH  *obs.Hist
	markCnpH *obs.Hist
	cnpCutH  *obs.Hist
}

type npState struct {
	lastCNP des.Time
	sent    bool
}

// NewEndpoint attaches a DCQCN engine to h.
func NewEndpoint(h *netsim.Host, p Params) (*Endpoint, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	e := &Endpoint{p: p, flows: make(map[int]*Sender), np: make(map[int]*npState)}
	e.Init(h, "dcqcn", false, p.Recovery, p.RTO)
	e.bindObs()
	h.Transport = e
	return e, nil
}

// Handle implements netsim.Transport.
func (e *Endpoint) Handle(h *netsim.Host, pkt *netsim.Packet) {
	switch pkt.Kind {
	case netsim.Data:
		// CE marks generate CNPs whatever the ordering: congestion
		// feedback must not wait for retransmissions.
		e.maybeCNP(pkt)
		e.Deliver(pkt)
	case netsim.CNP:
		if s, ok := e.flows[pkt.Flow]; ok {
			if ctr := e.Counters(); ctr != nil {
				ctr.CNPRx.Inc()
			}
			s.onCNP(pkt)
		}
	case netsim.Ack:
		if s, ok := e.flows[pkt.Flow]; ok {
			s.OnAck(pkt.Seq)
		}
	case netsim.Nack:
		if s, ok := e.flows[pkt.Flow]; ok {
			s.OnNack(pkt.Seq)
		}
	}
}

// maybeCNP is the NP role: a congestion notification for a CE-marked data
// packet, rate-limited to one per CNPInterval per flow.
func (e *Endpoint) maybeCNP(pkt *netsim.Packet) {
	if !pkt.CE {
		return
	}
	st := e.np[pkt.Flow]
	if st == nil {
		st = &npState{}
		e.np[pkt.Flow] = st
	}
	now := e.Host().Now()
	if !st.sent || now.Sub(st.lastCNP) >= e.p.CNPInterval {
		st.sent = true
		st.lastCNP = now
		cnp := e.Host().AllocPacket()
		cnp.Flow = pkt.Flow
		cnp.Dst = pkt.Src
		cnp.Size = netsim.CtrlSize
		cnp.Kind = netsim.CNP
		// Carry the mark-episode provenance back to the RP (zero when no
		// audit trail stamped the data packet).
		cnp.MarkEp = pkt.MarkEp
		cnp.MarkT = pkt.MarkT
		if ctr := e.Counters(); ctr != nil {
			ctr.CNPTx.Inc()
		}
		e.Host().Send(cnp)
	}
}

// Sender is the reaction point for one flow, over the flow's shared
// transport (send cursor and go-back-N recovery).
type Sender struct {
	netsim.Sender
	e *Endpoint

	rc, rt float64
	alpha  float64

	bcStage, tStage int
	bcBytes         int64

	// Warm-start operating point (internal/hybrid); applied by start().
	warm                      bool
	warmRC, warmRT, warmAlpha float64

	alphaEv des.EventRef
	timerEv des.EventRef
	sendEv  des.EventRef

	// Histogram state: the previous CNP-arrival instant, so the CNP-gap
	// histogram records inter-arrival spacing. Only maintained when that
	// histogram is bound.
	obsLastCNP des.Time
	obsSawCNP  bool
}

// Handler arguments: the sender is its own des.Handler, dispatching its
// recurring duties on a small-int argument (boxes without allocating) so
// steady-state scheduling is allocation-free. The transport's RTO is the
// embedded netsim.Sender's own event.
const (
	evStart = iota // flow start at its configured time
	evSend         // paced transmission of the next data packet
	evAlpha        // Eq. 2 α decay timer (τ')
	evRate         // rate-increase timer (T)
)

// OnEvent implements des.Handler.
func (s *Sender) OnEvent(arg any) {
	switch arg.(int) {
	case evStart:
		s.start()
	case evSend:
		s.sendNext()
	case evAlpha:
		// Eq. 2: no feedback for τ' → α decays.
		s.alpha *= 1 - s.e.p.G
		s.armAlphaTimer()
		if s.e.Auditing() {
			s.Audit(obs.Decision{Type: obs.DecAlphaDecay, Alpha: s.alpha})
		}
	case evRate:
		s.tStage++
		s.increase()
		s.armRateTimer()
	}
}

// NewFlow registers a sending flow of size bytes (size < 0: run forever)
// toward the host dst, starting at the given time. DCQCN flows start at
// line rate.
func (e *Endpoint) NewFlow(id int, dst int, size int64, start des.Time) (*Sender, error) {
	if _, dup := e.flows[id]; dup {
		return nil, fmt.Errorf("dcqcn: duplicate flow id %d", id)
	}
	s := &Sender{e: e}
	s.Init(&e.Endpoint, s, id, dst, size)
	e.flows[id] = s
	e.Host().AtHandler(start, s, evStart)
	return s, nil
}

// Rate returns the current sending rate in bytes/s.
func (s *Sender) Rate() float64 { return s.rc }

// TargetRate returns the current target rate in bytes/s.
func (s *Sender) TargetRate() float64 { return s.rt }

// Alpha returns the current α.
func (s *Sender) Alpha() float64 { return s.alpha }

// WarmStart arranges for the flow to begin at the given operating point —
// current rate rc, target rate rt (bytes/s) and α — instead of the cold
// line-rate/α=1 defaults. Call before the flow's start time; it has no
// effect on a flow that already started. Rates are clamped to
// [MinRate, line rate] and α to [0, 1] when the flow starts.
func (s *Sender) WarmStart(rc, rt, alpha float64) {
	s.warm = true
	s.warmRC, s.warmRT, s.warmAlpha = rc, rt, alpha
}

func (s *Sender) start() {
	if !s.Begin() {
		return
	}
	s.rc = s.e.Host().LineRate()
	s.rt = s.rc
	s.alpha = 1
	if s.warm {
		line := s.e.Host().LineRate()
		clamp := func(r float64) float64 {
			switch {
			case r < s.e.p.MinRate:
				return s.e.p.MinRate
			case r > line:
				return line
			}
			return r
		}
		s.rc = clamp(s.warmRC)
		s.rt = clamp(s.warmRT)
		s.alpha = math.Min(math.Max(s.warmAlpha, 0), 1)
	}
	s.armAlphaTimer()
	s.armRateTimer()
	s.sendNext()
}

// sendNext sends the packet at the cursor and paces the next one at the
// current rate. A retransmission is traced after the send.
func (s *Sender) sendNext() {
	if s.Done() {
		return
	}
	pkt := s.DataPacket()
	if pkt == nil {
		s.Finish()
		return
	}
	size, last := int64(pkt.Size), pkt.Last
	s.Transmit(pkt)
	s.Advance(size)
	s.ArmRTO()
	s.onBytesSent(size)
	if last {
		s.Finish()
		return
	}
	gap := des.DurationFromSeconds(float64(size) / s.rc)
	s.sendEv = s.e.Host().ScheduleHandler(gap, s, evSend)
}

// Resend implements netsim.Control: pacing restarts from the rewound
// cursor.
func (s *Sender) Resend() {
	s.sendEv.Cancel()
	s.sendNext()
}

// Stop implements netsim.Control: the flow is done, so pacing and the α
// and rate timers stop.
func (s *Sender) Stop() {
	s.sendEv.Cancel()
	s.alphaEv.Cancel()
	s.timerEv.Cancel()
}

// onBytesSent advances the rate-increase byte counter (stage events every
// ByteCounter bytes).
func (s *Sender) onBytesSent(n int64) {
	s.bcBytes += n
	for s.bcBytes >= s.e.p.ByteCounter {
		s.bcBytes -= s.e.p.ByteCounter
		s.bcStage++
		s.increase()
	}
}

func (s *Sender) armAlphaTimer() {
	s.alphaEv.Cancel()
	s.alphaEv = s.e.Host().ScheduleHandler(s.e.p.AlphaTimer, s, evAlpha)
}

func (s *Sender) armRateTimer() {
	s.timerEv.Cancel()
	s.timerEv = s.e.Host().ScheduleHandler(s.e.p.RateTimer, s, evRate)
}

// onCNP is the Eq. 1 multiplicative decrease plus state reset. The CNP
// packet carries the causing mark episode when an audit trail stamped it.
func (s *Sender) onCNP(pkt *netsim.Packet) {
	if s.Done() || !s.Started() {
		return
	}
	s.obsCNPGap()
	old := s.rc
	cutAlpha := s.alpha
	s.rt = s.rc
	s.rc *= 1 - s.alpha/2
	if s.rc < s.e.p.MinRate {
		s.rc = s.e.p.MinRate
	}
	s.alpha = (1-s.e.p.G)*s.alpha + s.e.p.G
	s.bcStage, s.tStage = 0, 0
	s.bcBytes = 0
	s.armAlphaTimer()
	s.armRateTimer()
	if s.e.Auditing() {
		s.audCut(pkt, old, cutAlpha)
	}
}

// increase runs one QCN-style rate increase event: five stages of fast
// recovery toward R_T, then additive increase, then hyper increase once
// both counters are past F.
func (s *Sender) increase() {
	if s.Done() {
		return
	}
	old := s.rc
	dec := obs.DecFastRecovery
	switch {
	case s.bcStage <= s.e.p.F && s.tStage <= s.e.p.F:
		// Fast recovery: halve the gap to the target.
	case s.bcStage > s.e.p.F && s.tStage > s.e.p.F:
		s.rt += s.e.p.RHAI
		dec = obs.DecHyperInc
	default:
		s.rt += s.e.p.RAI
		dec = obs.DecAdditiveInc
	}
	line := s.e.Host().LineRate()
	if s.rt > line {
		s.rt = line
	}
	s.rc = (s.rc + s.rt) / 2
	if s.rc > line {
		s.rc = line
	}
	if s.e.Auditing() {
		s.Audit(obs.Decision{
			Type: dec, OldRate: old, NewRate: s.rc, Target: s.rt, Alpha: s.alpha,
		})
	}
}
