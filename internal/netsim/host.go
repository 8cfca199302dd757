package netsim

import (
	"ecndelay/internal/des"
)

// Transport is the protocol engine attached to a host: it receives every
// non-PFC packet addressed to the host. DCQCN and TIMELY endpoints
// implement it in their own packages.
type Transport interface {
	Handle(h *Host, pkt *Packet)
}

// TransportFunc adapts a function to the Transport interface.
type TransportFunc func(h *Host, pkt *Packet)

// Handle implements Transport.
func (f TransportFunc) Handle(h *Host, pkt *Packet) { f(h, pkt) }

// Host is an end station with a single NIC port.
type Host struct {
	net       *Network
	id        int
	seq       nodeSeq
	port      *Port
	Transport Transport
}

// NewHost creates a host; attach its NIC with Connect.
func (nw *Network) NewHost() *Host {
	h := &Host{net: nw}
	h.id = nw.addNode(h)
	h.seq.init(h.id)
	return h
}

// Connect wires the host NIC toward peer (normally a switch).
func (h *Host) Connect(peer Node, bandwidth float64, prop des.Duration, m Marker) *Port {
	h.port = h.net.NewPort(h, peer, bandwidth, prop, m)
	return h.port
}

// ID implements Node.
func (h *Host) ID() int { return h.id }

// Net exposes the owning network (protocols need the clock and RNG).
func (h *Host) Net() *Network { return h.net }

// Port returns the NIC port.
func (h *Host) Port() *Port { return h.port }

// Now is the current simulation time.
func (h *Host) Now() des.Time { return h.net.Sim.Now() }

// Sim is the simulator the host's events run on. Protocol engines read the
// clock here but schedule through ScheduleHandler/AtHandler below, so
// their timers carry host-minted sequence keys (see nodeSeq).
func (h *Host) Sim() *des.Simulator { return h.net.Sim }

// ScheduleHandler schedules hd.OnEvent(arg) after delay d with a
// host-minted sequence key.
func (h *Host) ScheduleHandler(d des.Duration, hd des.Handler, arg any) des.EventRef {
	return h.net.Sim.ScheduleHandlerSeq(d, h.seq.mint(), hd, arg)
}

// AtHandler is ScheduleHandler with an absolute firing time.
func (h *Host) AtHandler(t des.Time, hd des.Handler, arg any) des.EventRef {
	return h.net.Sim.AtHandlerSeq(t, h.seq.mint(), hd, arg)
}

// AllocPacket draws a zeroed packet from the network's pool.
func (h *Host) AllocPacket() *Packet { return h.net.NewPacket() }

// Receive implements Node: PFC is handled by the NIC itself; everything
// else goes to the transport. The host is the packet's final consumer, so
// once the transport returns the packet is recycled — transports may read
// but must not retain it past the Handle call (see the Packet contract).
func (h *Host) Receive(pkt *Packet) {
	switch pkt.Kind {
	case Pause:
		h.port.pause()
		h.net.FreePacket(pkt)
		return
	case Resume:
		h.port.unpause()
		h.net.FreePacket(pkt)
		return
	}
	if h.net.obs != nil {
		h.obsDeliver(pkt)
	}
	if h.Transport != nil {
		h.Transport.Handle(h, pkt)
	}
	h.net.FreePacket(pkt)
}

// Send stamps and transmits a packet through the NIC.
func (h *Host) Send(pkt *Packet) {
	pkt.ID = h.net.NextPacketID()
	pkt.Src = h.id
	pkt.SentAt = h.net.Sim.Now()
	h.port.Send(pkt)
}

// LineRate reports the NIC bandwidth in bytes/second.
func (h *Host) LineRate() float64 { return h.port.Bandwidth }
