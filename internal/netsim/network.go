// Package netsim is the packet-level network simulator the paper's NS3
// experiments correspond to: hosts, switches with shared-buffer egress
// queues and ECN marking (egress or ingress), PFC backpressure, static
// routing, and per-port serialisation and propagation delays — all driven
// by the deterministic event engine in internal/des.
package netsim

import (
	"math/rand"
	"sync/atomic"

	"ecndelay/internal/des"
	"ecndelay/internal/obs"
)

// Node is anything attached to the network fabric.
type Node interface {
	// ID is the node's index in the network.
	ID() int
	// Receive handles a packet delivered to this node.
	Receive(pkt *Packet)
}

// Network owns the simulator, the node table and the shared RNG. Build one
// with New, attach nodes (hosts, switches) via the topology helpers, then
// drive Sim.
type Network struct {
	Sim   *des.Simulator
	Rng   *rand.Rand
	nodes []Node
	ports []*Port

	// pktFree and pktID are the packet free list and id counter (pool.go).
	pktFree []*Packet
	pktID   uint64
	pooling bool

	// obs is the attached observability layer; nil — the default — keeps
	// every hook site a single pointer check (see SetObserver).
	obs *obs.NetObserver
	// obsRun is the process-unique tag stamped into this network's
	// port-scoped events (obs.Event.Run), assigned when an observer
	// attaches; it keeps a shared invariant checker's per-port books
	// separate across networks with identical node ids.
	obsRun uint32
}

// New creates an empty network with a deterministic RNG.
func New(seed int64) *Network {
	return &Network{
		Sim:     des.New(),
		Rng:     rand.New(rand.NewSource(seed)),
		pooling: poolingDefault,
	}
}

// AddNode registers n and returns its id. Topology helpers call this.
func (nw *Network) addNode(n Node) int {
	nw.nodes = append(nw.nodes, n)
	return len(nw.nodes) - 1
}

// NodeCount reports the number of registered nodes.
func (nw *Network) NodeCount() int { return len(nw.nodes) }

// NextPacketID hands out unique packet ids: 1, 2, 3, …
func (nw *Network) NextPacketID() uint64 {
	nw.pktID++
	return nw.pktID
}

// RunUntil advances the simulation to end; see des.Simulator.RunUntil.
func (nw *Network) RunUntil(end des.Time) { nw.Sim.RunUntil(end) }

// FaultHook intercepts packets leaving a port; internal/fault installs
// implementations via SetFaultHook. DropTx is consulted once per packet at
// the end of serialisation: returning true loses the packet on the wire
// (it consumed link bandwidth but is never delivered). A nil hook — the
// default — leaves the transmit path exactly as it was, so fault-free runs
// are bit-identical with the fault subsystem compiled in.
type FaultHook interface {
	DropTx(pkt *Packet) bool
}

// Port is a unidirectional attachment point: it owns the egress queue
// toward a fixed peer and models serialisation (Bandwidth) plus propagation
// (PropDelay). PFC pauses stop new transmissions; the in-flight packet
// always completes.
//
// A port is its own des.Handler: the transmit state machine reschedules
// itself through the pooled event path, so per-packet transmission and
// delivery capture no closures and allocate nothing in steady state.
type Port struct {
	net   *Network
	owner Node
	peer  Node

	// mint is the owner node's event-sequence minter: transmit ticks,
	// deliveries and watchdog checks carry owner-minted keys (see
	// nodeSeq).
	mint *nodeSeq

	// ownerSwitch caches the owner's *Switch identity so the per-packet
	// departure hook avoids a type assertion; nil for host NICs.
	ownerSwitch *Switch

	Bandwidth float64 // bytes/second
	PropDelay des.Duration

	// CtrlExtraDelay adds a fixed delay to delivered control packets
	// (Ack/CNP), modelling a longer feedback path without stretching the
	// forward path.
	CtrlExtraDelay des.Duration
	// CtrlJitterMax adds uniform [0, CtrlJitterMax) random delay to
	// delivered control packets (the Figure 20 jitter injection).
	CtrlJitterMax des.Duration

	queue  *Queue
	txPkt  *Packet // in-flight packet being serialised (busy == true)
	busy   bool
	paused bool

	// Fault-injection state (inert unless internal/fault wires it up).
	// down and wireDrops are atomic, so LinkDown and WireDrops may be read
	// from outside the simulation goroutine.
	hook      FaultHook
	down      atomic.Bool  // link flap: refuses tx and drops deliveries
	wireDrops atomic.Int64 // packets lost on the wire (fault hook or flap)
	watch     *watchedPort

	// ctr is the port's bound counter set; nil when no observer (or no
	// metrics registry) is attached.
	ctr *obs.PortCounters
	// qdH is the port's bound per-hop queueing-delay histogram; nil when
	// no observer (or no histogram set) is attached.
	qdH *obs.Hist
	// chk is the port's bound invariant-checker book; nil when no
	// observer (or no checker) is attached.
	chk *obs.PortBook

	// Control-loop audit state (see obs_netsim.go). aud is non-nil only
	// when an audit trail is attached AND this port has a marking policy.
	aud      *obs.AuditTrail
	crossH   *obs.Hist // queue-crossing→first-mark latency histogram
	epThresh int       // marker onset occupancy (bytes), 0 without one
	epSeq    uint64    // episodes opened on this port
	epID     uint64    // id of the open episode, valid while epOpen
	epCrossT des.Time  // when the queue last crossed above epThresh
	epCross  bool      // queue is above epThresh
	epOpen   bool      // a mark episode is open

	// TxBytes counts payload transmitted, for utilisation accounting.
	TxBytes int64
}

// startableMarker is implemented by markers that need the simulator to run
// periodic state updates (the PI AQM).
type startableMarker interface {
	Start(sim *des.Simulator, q *Queue)
}

// newPort wires a port from owner, a *Switch or *Host, toward peer.
// Marking policy m may be nil; markers that need a clock (PIMarker) are
// started automatically.
func (nw *Network) newPort(owner, peer Node, bandwidth float64, prop des.Duration, m Marker) *Port {
	if bandwidth <= 0 {
		panic("netsim: port bandwidth must be positive")
	}
	p := &Port{
		net: nw, owner: owner, peer: peer,
		Bandwidth: bandwidth, PropDelay: prop,
		queue: NewQueue(m),
	}
	p.queue.port = p
	switch v := owner.(type) {
	case *Switch:
		p.ownerSwitch = v
		p.mint = &v.seq
	case *Host:
		p.mint = &v.seq
	}
	if sm, ok := m.(startableMarker); ok {
		sm.Start(nw.Sim, p.queue)
	}
	nw.ports = append(nw.ports, p)
	if nw.obs != nil {
		p.bindObs()
	}
	return p
}

// Ports returns every port wired into the network, in creation order (the
// live slice; treat as read-only).
func (nw *Network) Ports() []*Port { return nw.ports }

// Queue exposes the egress queue (monitoring, tests).
func (p *Port) Queue() *Queue { return p.queue }

// PrefillQueue synthesises a queued data packet on this port's egress at
// the current instant, so a run can start with the queue already at an
// analytic operating point (internal/hybrid warm start) instead of
// simulating the fill transient. The packet is a normal ECT data segment —
// it drains, is delivered and can be CE-marked like any other — but it
// bypasses PFC ingress accounting (it was never received on an ingress),
// so prefilling is safe on PFC-enabled switches. It reports false when a
// finite queue tail-dropped the fill. Flow/src/dst should name a real flow
// so any CE feedback lands at a live sender; go-back-N runs should not
// prefill (the synthetic segments alias sequence space).
func (p *Port) PrefillQueue(flow, src, dst, size int) bool {
	pkt := p.net.NewPacket()
	pkt.ID = p.net.NextPacketID()
	pkt.Flow = flow
	pkt.Src = src
	pkt.Dst = dst
	pkt.Size = size
	pkt.Kind = Data
	pkt.ECT = true
	pkt.ingress = -1
	pkt.SentAt = p.net.Sim.Now()
	if !p.queue.Push(pkt) {
		p.net.FreePacket(pkt)
		return false
	}
	p.tryTx()
	return true
}

// Peer reports the node at the far end.
func (p *Port) Peer() Node { return p.peer }

// Paused reports the PFC pause state.
func (p *Port) Paused() bool { return p.paused }

// SetFaultHook installs (or, with nil, removes) the packet-loss hook for
// this port. Normally called through a fault.Plan rather than directly.
func (p *Port) SetFaultHook(h FaultHook) { p.hook = h }

// SetLinkDown flaps the link: a down port refuses new transmissions and
// every packet that would land at the peer while the link is down is lost
// (the in-flight contents of the wire die with the link). Bringing the
// link back up restarts the transmitter.
func (p *Port) SetLinkDown(down bool) {
	p.down.Store(down)
	if !down {
		p.tryTx()
	}
}

// LinkDown reports whether the link is flapped down.
func (p *Port) LinkDown() bool { return p.down.Load() }

// WireDrops reports packets lost on the wire by fault injection or link
// flaps (tail drops at the finite egress queue are counted separately, by
// Queue.Drops).
func (p *Port) WireDrops() int64 { return p.wireDrops.Load() }

// Sim returns the network's simulator.
func (p *Port) Sim() *des.Simulator { return p.net.Sim }

// Send enqueues pkt for transmission and starts the transmitter if idle.
// A tail drop at a finite queue releases the switch's PFC accounting for
// the packet and recycles it.
func (p *Port) Send(pkt *Packet) {
	if !p.queue.Push(pkt) {
		if p.ownerSwitch != nil {
			p.ownerSwitch.departed(pkt)
		}
		p.net.FreePacket(pkt)
		return
	}
	p.tryTx()
}

// SendDirect bypasses the queue entirely (PFC PAUSE/RESUME frames, which
// real NICs emit from a dedicated high-priority path): the packet arrives
// after just the propagation delay.
func (p *Port) SendDirect(pkt *Packet) {
	p.fire(p.PropDelay, pkt)
}

// schedule queues h.OnEvent(arg) after d with the owner's node-minted
// sequence key.
func (p *Port) schedule(d des.Duration, h des.Handler, arg any) des.EventRef {
	return p.net.Sim.ScheduleHandlerSeq(d, p.mint.mint(), h, arg)
}

// fire queues the port's own OnEvent(arg) after d: a serialisation-done
// tick or a delivery, which nothing cancels. They take the simulator's
// fixed-delay lanes (des.Simulator.ScheduleFixedSeq), where most of them
// share one of two delays, a full packet's serialisation and PropDelay.
func (p *Port) fire(d des.Duration, arg any) {
	p.net.Sim.ScheduleFixedSeq(d, p.mint.mint(), p, arg)
}

// pause and unpause implement PFC flow control on this port. Both are
// idempotent — repeated PAUSE (pause-while-paused) or RESUME frames are
// absorbed — and they notify the PFC watchdog, when one is attached, only
// on genuine state transitions.
func (p *Port) pause() {
	if p.paused {
		return
	}
	p.paused = true
	if p.watch != nil {
		p.watch.onPause()
	}
	if p.net.obs != nil {
		if p.ctr != nil {
			p.ctr.Pauses.Inc()
		}
		if p.chk != nil {
			p.chk.PFC(p.net.Sim.Now(), true)
		}
		p.obsEvent(obs.Pause, nil)
	}
}

func (p *Port) unpause() {
	if p.paused {
		p.paused = false
		if p.watch != nil {
			p.watch.onUnpause()
		}
		if p.net.obs != nil {
			if p.ctr != nil {
				p.ctr.Resumes.Inc()
			}
			if p.chk != nil {
				p.chk.PFC(p.net.Sim.Now(), false)
			}
			p.obsEvent(obs.Resume, nil)
		}
	}
	p.tryTx()
}

// OnEvent implements des.Handler: a nil argument is the serialisation-done
// tick for the in-flight packet; a *Packet argument is a delivery landing at
// the peer after propagation (lost instead if the link is flapped down).
func (p *Port) OnEvent(arg any) {
	if arg == nil {
		p.txDone()
		return
	}
	pkt := arg.(*Packet)
	if p.down.Load() {
		p.wireDrops.Add(1)
		if p.net.obs != nil {
			p.obsWireDrop(pkt)
		}
		p.net.FreePacket(pkt)
		return
	}
	pkt.prevHop = p.owner.ID()
	p.peer.Receive(pkt)
}

func (p *Port) tryTx() {
	if p.busy || p.paused || p.down.Load() || p.queue.Len() == 0 {
		return
	}
	pkt := p.queue.Pop()
	p.busy = true
	p.txPkt = pkt
	txTime := des.DurationFromSeconds(float64(pkt.Size) / p.Bandwidth)
	p.TxBytes += int64(pkt.Size)
	if p.ctr != nil {
		p.ctr.TxBytes.Add(int64(pkt.Size))
		p.ctr.TxPkts.Inc()
	}
	p.fire(txTime, nil)
}

// txDone finishes serialising the in-flight packet: release PFC accounting,
// consult the fault hook, launch the propagation-delay delivery, and start
// on the next queued packet. A packet the fault layer drops (or that was
// being serialised when the link flapped down) consumed its serialisation
// time and TxBytes — it burned link bandwidth — but is never delivered.
func (p *Port) txDone() {
	pkt := p.txPkt
	p.txPkt = nil
	p.busy = false
	if p.ownerSwitch != nil {
		p.ownerSwitch.departed(pkt)
	}
	if p.down.Load() || (p.hook != nil && p.hook.DropTx(pkt)) {
		p.wireDrops.Add(1)
		if p.net.obs != nil {
			p.obsWireDrop(pkt)
		}
		p.net.FreePacket(pkt)
		p.tryTx()
		return
	}
	delay := p.PropDelay
	if pkt.Kind.Control() && pkt.Kind != Pause && pkt.Kind != Resume {
		delay += p.CtrlExtraDelay
		if p.CtrlJitterMax > 0 {
			delay += des.Duration(p.net.Rng.Int63n(int64(p.CtrlJitterMax)))
		}
	}
	p.fire(delay, pkt)
	p.tryTx()
}

// nodeSeqBits sizes the per-node event counter: node n mints keys
// (n+1)<<nodeSeqBits | counter, giving every node ≈10^12 events and keeping
// every node key above the simulator's own 0-based counter. At an equal
// (time, sub) key, events scheduled straight on Network.Sim (samplers,
// probes, flow-arrival chains) therefore fire before node events.
const nodeSeqBits = 40

// nodeSeq mints per-node event sequence keys. Every Host and Switch owns
// one, and its ports and protocol timers schedule through it, so
// same-instant events fire ordered by node id, then in that node's own
// program order. These keys define the tie order every golden trajectory
// depends on.
type nodeSeq struct {
	next uint64
}

func (n *nodeSeq) init(id int) {
	n.next = (uint64(id) + 1) << nodeSeqBits
}

func (n *nodeSeq) mint() uint64 {
	v := n.next
	n.next++
	return v
}
