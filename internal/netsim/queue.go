package netsim

import (
	"math/rand"

	"ecndelay/internal/des"
	"ecndelay/internal/fixedpoint"
)

// Queue is a byte-accounted FIFO of packets with an attached ECN marking
// policy. By default it never drops: the RoCEv2 setting the paper studies
// is drop-free (PFC backpressure, not loss, handles overload). An optional
// byte capacity (SetCapBytes) turns it into a finite shared-buffer egress
// that tail-drops — the regime where PFC is disabled or its thresholds are
// misconfigured.
type Queue struct {
	ring     []*Packet // power-of-two ring, doubled only when full
	head     int       // index of the head packet
	n        int       // packets queued
	bytes    int
	capBytes int // 0: unbounded
	drops    int64
	dropped  int64 // bytes
	virtual  int   // fluid background occupancy, bytes (see SetVirtualBytes)
	mark     Marker

	// port is the owning port, set by newPort; nil for standalone queues
	// (tests), which then emit no observability events.
	port *Port
}

// NewQueue builds a queue with the given marking policy (nil means no
// marking).
func NewQueue(m Marker) *Queue {
	return &Queue{mark: m}
}

// Len reports the number of queued packets.
func (q *Queue) Len() int { return q.n }

// Bytes reports the queued payload in bytes.
func (q *Queue) Bytes() int { return q.bytes }

// SetVirtualBytes sets the fluid background occupancy superimposed on this
// queue. Markers see Bytes()+VirtualBytes() through MarkBytes, so a fluid
// aggregate (internal/hybrid) can shift the marking operating point without
// injecting packets. It does not consume capacity (SetCapBytes) and does not
// delay real packets: the coupling is through the congestion signal only.
// Zero — the default — leaves every marker byte-identical to the
// pre-virtual-bytes behaviour.
func (q *Queue) SetVirtualBytes(n int) {
	if n < 0 {
		n = 0
	}
	q.virtual = n
}

// VirtualBytes reports the fluid background occupancy (0 unless a hybrid
// aggregate is attached).
func (q *Queue) VirtualBytes() int { return q.virtual }

// MarkBytes reports the occupancy marking policies should act on: real
// queued bytes plus any fluid background occupancy.
func (q *Queue) MarkBytes() int { return q.bytes + q.virtual }

// SetCapBytes bounds the queue at c buffered bytes; 0 restores the default
// unbounded (lossless) behaviour. A non-empty queue tail-drops arrivals
// that would exceed the capacity; an empty queue always admits one packet,
// so a capacity below the MTU degrades rather than blackholes a link.
func (q *Queue) SetCapBytes(c int) { q.capBytes = c }

// CapBytes reports the configured capacity (0: unbounded).
func (q *Queue) CapBytes() int { return q.capBytes }

// Drops reports the number of packets tail-dropped at this queue.
func (q *Queue) Drops() int64 { return q.drops }

// DroppedBytes reports the payload bytes tail-dropped at this queue.
func (q *Queue) DroppedBytes() int64 { return q.dropped }

// Push appends a packet, applying enqueue-time marking if the policy asks
// for it (the "ingress marking" ablation of Figure 17). The marker sees the
// queue state at the instant of arrival, with the arriving packet included.
// It reports false when the packet was tail-dropped instead (finite
// capacity exceeded); the caller keeps ownership of a dropped packet.
func (q *Queue) Push(pkt *Packet) bool {
	if q.capBytes > 0 && q.bytes+pkt.Size > q.capBytes && q.Len() > 0 {
		q.drops++
		q.dropped += int64(pkt.Size)
		if q.port != nil && q.port.net.obs != nil {
			q.port.obsBufDrop(pkt)
		}
		return false
	}
	ceBefore := pkt.CE
	if q.port != nil {
		pkt.EnqT = q.port.net.Sim.Now()
	}
	if q.n == len(q.ring) {
		q.grow()
	}
	q.ring[(q.head+q.n)&(len(q.ring)-1)] = pkt
	q.n++
	q.bytes += pkt.Size
	if q.mark != nil && q.mark.AtEnqueue() {
		q.mark.Mark(q, pkt)
	}
	if q.port != nil && q.port.net.obs != nil {
		q.port.obsQueue(obsEnqueue, pkt, ceBefore)
	}
	return true
}

// grow doubles the ring (8 slots at first), unwrapping it to start at 0.
// Only a full ring grows, so a queue's array is sized by its peak
// occupancy, however many packets pass through it.
func (q *Queue) grow() {
	ring := make([]*Packet, max(8, 2*len(q.ring)))
	for i := 0; i < q.n; i++ {
		ring[i] = q.ring[(q.head+i)&(len(q.ring)-1)]
	}
	q.ring, q.head = ring, 0
}

// Pop removes the packet at the head, applying departure-time marking
// ("egress marking": the mark reflects the queue at the instant the packet
// departs, §5.2, with the departing packet still counted). It returns nil
// if the queue is empty.
func (q *Queue) Pop() *Packet {
	if q.n == 0 {
		return nil
	}
	pkt := q.ring[q.head]
	ceBefore := pkt.CE
	if q.mark != nil && !q.mark.AtEnqueue() {
		q.mark.Mark(q, pkt)
	}
	q.ring[q.head] = nil
	q.head = (q.head + 1) & (len(q.ring) - 1)
	q.n--
	q.bytes -= pkt.Size
	if q.port != nil {
		if h := q.port.qdH; h != nil {
			h.Record(q.port.net.Sim.Now().Sub(pkt.EnqT).Seconds())
		}
		if q.port.net.obs != nil {
			q.port.obsQueue(obsDequeue, pkt, ceBefore)
		}
	}
	return pkt
}

// Marker decides whether a packet gets an ECN mark.
type Marker interface {
	// AtEnqueue reports whether marks are applied when packets arrive
	// (true: the queue state at arrival is encoded, and the mark then
	// waits out the queueing delay) or when they depart (false: the mark
	// reflects the instantaneous egress queue, the modern shared-buffer
	// behaviour the paper highlights).
	AtEnqueue() bool
	// Mark inspects q and may set pkt.CE.
	Mark(q *Queue, pkt *Packet)
}

// ThresholdMarker is implemented by markers with a well-defined onset
// occupancy below which they never mark. The control-loop audit uses it
// to time queue-crossing→first-mark latency and to delimit mark episodes;
// markers without a threshold (PI) fall back to 0, making an episode
// coincide with the marker-visible busy period.
type ThresholdMarker interface {
	// MarkThreshold reports the occupancy (bytes, against MarkBytes)
	// at or below which the marker never marks.
	MarkThreshold() int
}

// REDMarker implements the Eq. 3 RED profile on the instantaneous queue
// length, with the strict ramp fixedpoint.REDMark that the fluid model runs
// under StrictRED.
type REDMarker struct {
	Kmin, Kmax int     // bytes
	Pmax       float64 // marking probability at Kmax
	Ingress    bool    // mark at enqueue instead of dequeue (Figure 17)
	Rng        *rand.Rand
}

// AtEnqueue implements Marker.
func (m *REDMarker) AtEnqueue() bool { return m.Ingress }

// MarkThreshold implements ThresholdMarker: RED never marks at or below
// Kmin.
func (m *REDMarker) MarkThreshold() int { return m.Kmin }

// Mark implements Marker.
func (m *REDMarker) Mark(q *Queue, pkt *Packet) {
	if !pkt.ECT || pkt.CE {
		return
	}
	// The marker draws only where 0 < p < 1: not at or below Kmin, and
	// not where p reaches 1. Byte counts below 2⁵³ convert and subtract
	// exactly, so p is the ramp of the integer counts to the bit.
	b := q.MarkBytes()
	if b <= m.Kmin {
		return
	}
	p := fixedpoint.REDMark(float64(b), float64(m.Kmin), float64(m.Kmax), m.Pmax)
	if p >= 1 || m.Rng.Float64() < p {
		pkt.CE = true
	}
}

// piInterval is the PIMarker's probability update period.
const piInterval = 10 * des.Microsecond

// PIMarker is the Eq. 32 integral controller as a switch AQM: a timer
// updates the marking probability from the queue error every piInterval,
// and departing packets are marked with that probability. Register it on a
// simulator with Start before running.
type PIMarker struct {
	K1   float64 // per byte
	K2   float64 // per byte per second
	QRef int     // bytes
	PMax float64 // anti-windup cap
	Rng  *rand.Rand

	p     float64
	prevQ int
	queue *Queue
}

// Start begins periodic probability updates against q.
func (m *PIMarker) Start(sim *des.Simulator, q *Queue) {
	m.queue = q
	if m.PMax == 0 {
		m.PMax = 0.1
	}
	sim.Every(sim.Now().Add(piInterval), piInterval, func() {
		qb := q.MarkBytes()
		dt := piInterval.Seconds()
		m.p += m.K1*float64(qb-m.prevQ) + m.K2*float64(qb-m.QRef)*dt
		if m.p < 0 {
			m.p = 0
		}
		if m.p > m.PMax {
			m.p = m.PMax
		}
		m.prevQ = qb
	})
}

// P exposes the current marking probability (for tests and monitoring).
func (m *PIMarker) P() float64 { return m.p }

// AtEnqueue implements Marker (PI marks on egress).
func (m *PIMarker) AtEnqueue() bool { return false }

// Mark implements Marker.
func (m *PIMarker) Mark(_ *Queue, pkt *Packet) {
	if !pkt.ECT || pkt.CE {
		return
	}
	if m.Rng.Float64() < m.p {
		pkt.CE = true
	}
}
