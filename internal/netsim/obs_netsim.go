package netsim

import (
	"fmt"
	"sync/atomic"

	"ecndelay/internal/obs"
)

// Observability binding. The hooks follow the nil-hook pattern of the
// fault subsystem: without an observer attached every hook site is a
// single nil check on an already-loaded pointer, so unobserved runs are
// bit-identical to pre-observability builds and stay allocation-free.
// With an observer attached, ports bind their counters once (at attach
// time) and the per-packet path only touches atomics and emits value-type
// events — still allocation-free after warm-up.

// obsRunSeq numbers observed networks process-wide; see obs.Event.Run.
var obsRunSeq atomic.Uint32

// SetObserver attaches (or, with nil, detaches) the observability layer.
// Ports already wired bind their counters immediately; ports created
// later bind as they are created. Attach before running: counters only
// accumulate from the moment they are bound. Each attach stamps the
// network with a fresh run tag (obs.Event.Run), so a shared checker keeps
// this network's invariant books apart from every other observed run's.
func (nw *Network) SetObserver(o *obs.NetObserver) {
	nw.obs = o
	if o != nil {
		nw.obsRun = obsRunSeq.Add(1)
	}
	for _, p := range nw.ports {
		p.bindObs()
	}
}

// Observer reports the attached observability layer (nil when detached).
func (nw *Network) Observer() *obs.NetObserver { return nw.obs }

// PortName is the canonical metric prefix for the directed port from owner
// to peer, e.g. "port.n0-n2".
func PortName(owner, peer int) string {
	return fmt.Sprintf("port.n%d-n%d", owner, peer)
}

// Local aliases so queue.go's hook sites avoid an obs import of their own.
const (
	obsEnqueue = obs.Enqueue
	obsDequeue = obs.Dequeue
)

// bindObs registers the port's counter set with the observer's registry
// and its queueing-delay histogram with the observer's HistSet. Called
// when the port is created or when an observer is attached.
func (p *Port) bindObs() {
	o := p.net.obs
	p.ctr = nil
	p.qdH = nil
	p.aud = nil
	p.crossH = nil
	p.epCross = false
	p.epOpen = false
	if o == nil {
		return
	}
	if o.Metrics != nil {
		p.ctr = o.Metrics.PortCounters(PortName(p.owner.ID(), p.peer.ID()))
	}
	p.qdH = o.Hist(PortName(p.owner.ID(), p.peer.ID()) + ".qdelay_s")
	// The control-loop audit only tracks mark episodes on ports that can
	// mark; host NICs and unmarked fabric links keep a nil trail and skip
	// the episode hook with one check.
	if o.Audit != nil && p.queue.mark != nil {
		p.aud = o.Audit
		p.epThresh = 0
		if tm, ok := p.queue.mark.(ThresholdMarker); ok {
			p.epThresh = tm.MarkThreshold()
		}
		p.crossH = o.Hist("ctl.cross_to_mark_s")
	}
}

// obsEvent fills the port-invariant fields of a trace record and routes it
// through the observer. The caller has already checked p.net.obs != nil.
func (p *Port) obsEvent(typ obs.EventType, pkt *Packet) {
	e := obs.Event{
		T:    p.net.Sim.Now(),
		Type: typ,
		Kind: obs.KindNone,
		Run:  p.net.obsRun,
		Node: int32(p.owner.ID()),
		Peer: int32(p.peer.ID()),
	}
	if pkt != nil {
		e.Kind = uint8(pkt.Kind)
		e.Flow = int32(pkt.Flow)
		e.Size = int32(pkt.Size)
		e.Pkt = pkt.ID
		e.Seq = pkt.Seq
	}
	e.QLen = int32(p.queue.Len())
	e.QBytes = int64(p.queue.Bytes())
	e.QCap = int64(p.queue.CapBytes())
	p.net.obs.Emit(e)
}

// obsQueue reports queue events from Push/Pop: the enqueue/dequeue record
// plus a Mark record when the marking policy set CE during the operation.
func (p *Port) obsQueue(typ obs.EventType, pkt *Packet, ceBefore bool) {
	p.obsEvent(typ, pkt)
	fresh := !ceBefore && pkt.CE
	if fresh {
		if p.ctr != nil {
			p.ctr.Marks.Inc()
		}
		p.obsEvent(obs.Mark, pkt)
	}
	if p.aud != nil {
		p.audEpisode(typ, pkt, fresh)
	}
}

// audEpisode maintains the port's mark-episode state for the control-loop
// audit. A mark episode is "the first CE mark after the queue crosses the
// marker threshold until the occupancy falls back to or below it": the
// upward crossing is timestamped at enqueue, the first fresh mark after
// it opens the episode (recording crossing→mark latency and stamping the
// packet), and the occupancy falling back at dequeue closes it. Every
// freshly marked packet — episode-opening or not — carries the open
// episode's id and its mark time back toward the notification point.
func (p *Port) audEpisode(typ obs.EventType, pkt *Packet, fresh bool) {
	now := p.net.Sim.Now()
	qb := p.queue.MarkBytes()
	if typ == obsEnqueue && !p.epCross && qb > p.epThresh {
		p.epCross = true
		p.epCrossT = now
	}
	if fresh {
		if !p.epOpen {
			p.epOpen = true
			p.epSeq++
			p.epID = uint64(p.owner.ID()+1)<<48 | uint64(p.peer.ID()+1)<<32 | p.epSeq
			crossT := p.epCrossT
			if !p.epCross {
				// A marker below its threshold "crossed" at the mark itself
				// (possible for threshold-free markers like PI on a draining
				// queue); report zero latency rather than a stale crossing.
				crossT = now
			}
			lat := now.Sub(crossT).Seconds()
			if p.crossH != nil {
				p.crossH.Record(lat)
			}
			p.aud.Emit(obs.Decision{
				T: now, Type: obs.DecMarkOpen,
				Node: int32(p.owner.ID()), Peer: int32(p.peer.ID()), Flow: -1,
				Seq: p.epSeq, Episode: p.epID, RTT: lat, QBytes: int64(qb),
			})
		}
		pkt.MarkEp = p.epID
		pkt.MarkT = now
	}
	if typ == obsDequeue && p.epCross && qb <= p.epThresh {
		p.epCross = false
		if p.epOpen {
			p.epOpen = false
			p.aud.Emit(obs.Decision{
				T: now, Type: obs.DecMarkClose,
				Node: int32(p.owner.ID()), Peer: int32(p.peer.ID()), Flow: -1,
				Seq: p.epSeq, Episode: p.epID, QBytes: int64(qb),
			})
		}
	}
}

// obsBufDrop records a tail drop at the finite egress queue.
func (p *Port) obsBufDrop(pkt *Packet) {
	if p.ctr != nil {
		p.ctr.BufDrops.Inc()
	}
	p.obsEvent(obs.BufDrop, pkt)
}

// obsWireDrop records a packet lost on the wire (fault hook or link flap).
func (p *Port) obsWireDrop(pkt *Packet) {
	if p.ctr != nil {
		p.ctr.WireDrops.Inc()
	}
	p.obsEvent(obs.WireDrop, pkt)
}

// obsDeliver records a packet landing at its destination host.
func (h *Host) obsDeliver(pkt *Packet) {
	o := h.net.obs
	if o == nil {
		return
	}
	o.Emit(obs.Event{
		T:    h.net.Sim.Now(),
		Type: obs.Deliver,
		Kind: uint8(pkt.Kind),
		Run:  h.net.obsRun,
		Node: int32(h.id),
		Peer: int32(pkt.Src),
		Flow: int32(pkt.Flow),
		Size: int32(pkt.Size),
		Pkt:  pkt.ID,
		Seq:  pkt.Seq,
	})
}

// obsDoubleFree records a pooled packet freed twice.
func (nw *Network) obsDoubleFree(pkt *Packet) {
	nw.obs.Emit(obs.Event{
		T:    nw.Sim.Now(),
		Type: obs.DoubleFree,
		Kind: uint8(pkt.Kind),
		Run:  nw.obsRun,
		Node: -1,
		Peer: -1,
		Flow: int32(pkt.Flow),
		Size: int32(pkt.Size),
		Pkt:  pkt.ID,
		Seq:  pkt.Seq,
	})
}
