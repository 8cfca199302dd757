package netsim

import (
	"fmt"
	"slices"

	"ecndelay/internal/des"
)

// PFCConfig sets the Priority Flow Control thresholds on a switch. PFC
// tracks buffered bytes per ingress port; crossing PauseBytes sends PAUSE
// upstream, and draining below ResumeBytes sends RESUME. Zero values
// disable PFC (infinite buffer, never pauses) — the regime the fluid models
// assume ("ECN marking is triggered before PFC").
type PFCConfig struct {
	PauseBytes  int
	ResumeBytes int
}

// Enabled reports whether the thresholds are active.
func (c PFCConfig) Enabled() bool { return c.PauseBytes > 0 }

// Switch is a shared-buffer output-queued switch: every egress port has a
// FIFO with an ECN marking policy, and PFC watches per-ingress occupancy.
// Forwarding is by static per-destination route (SetRoute) or, for
// destinations with several equal-cost next hops, by seeded flow-consistent
// ECMP hashing (SetECMPRoutes).
//
// Node ids are dense (Network.addNode), so the forwarding tables are
// slices indexed by node id, each entry one past the value it names and 0
// for no entry: a hop costs a bounds check and a load, never a hash. A
// switch keeps each distinct ECMP group once, and a destination's entry
// names its group.
type Switch struct {
	net     *Network
	id      int
	seq     nodeSeq
	ports   []*Port
	routes  []int32 // destination host id → pinned egress port index + 1
	ecmp    []int32 // destination host id → index into groups + 1
	groups  [][]int // the distinct ECMP groups, in first-use order
	peerIdx []int32 // neighbour node id → first egress port index toward it + 1

	ecmpSeed uint64

	pfc        PFCConfig
	ingressUse []int  // buffered bytes attributed to each ingress port
	pausedUp   []bool // whether we have PAUSEd the upstream on that port
}

// NewSwitch creates a switch with no ports. Wire it with AddPort and
// SetRoute (the topology builders do this).
func (nw *Network) NewSwitch(pfc PFCConfig) *Switch {
	sw := &Switch{net: nw, pfc: pfc}
	sw.id = nw.addNode(sw)
	sw.seq.init(sw.id)
	return sw
}

// ID implements Node.
func (sw *Switch) ID() int { return sw.id }

// AddPort attaches an egress port toward peer and returns its index.
func (sw *Switch) AddPort(peer Node, bandwidth float64, prop des.Duration, m Marker) int {
	p := sw.net.newPort(sw, peer, bandwidth, prop, m)
	sw.ports = append(sw.ports, p)
	sw.ingressUse = append(sw.ingressUse, 0)
	sw.pausedUp = append(sw.pausedUp, false)
	idx := len(sw.ports) - 1
	sw.peerIdx = sw.grow(sw.peerIdx, peer.ID())
	if sw.peerIdx[peer.ID()] == 0 {
		sw.peerIdx[peer.ID()] = int32(idx + 1)
	}
	return idx
}

// grow returns table long enough to hold an entry for node id, sized to
// the network's node count when that is larger, so a topology builder's
// tables grow once. A negative id panics, like a bad port index.
func (sw *Switch) grow(table []int32, id int) []int32 {
	if id < 0 {
		panic(fmt.Sprintf("netsim: switch %d given negative node id %d", sw.id, id))
	}
	if id < len(table) {
		return table
	}
	n := max(id+1, sw.net.NodeCount())
	return append(table, make([]int32, n-len(table))...)
}

// lookup reads the table entry for node id: the value it names, or -1
// for no entry (also for an id outside the table).
func lookup(table []int32, id int) int {
	if uint(id) < uint(len(table)) {
		return int(table[id]) - 1
	}
	return -1
}

// Port returns the port at index i.
func (sw *Switch) Port(i int) *Port { return sw.ports[i] }

// Ports returns the switch's egress ports (the live slice; treat as
// read-only). Useful for summing per-port drop counters.
func (sw *Switch) Ports() []*Port { return sw.ports }

// SetRoute directs traffic for host dst out of port index i.
func (sw *Switch) SetRoute(dst, portIndex int) {
	if portIndex < 0 || portIndex >= len(sw.ports) {
		panic(fmt.Sprintf("netsim: switch %d has no port %d", sw.id, portIndex))
	}
	sw.routes = sw.grow(sw.routes, dst)
	sw.routes[dst] = int32(portIndex + 1)
}

// SetECMPRoutes directs traffic for host dst over a group of equal-cost
// egress ports, selected per packet by a seeded hash of the flow key
// (Src, Dst, Flow) — the simulator's 5-tuple equivalent — so every packet
// of a flow takes the same path while distinct flows spread across the
// group. A single-port group behaves exactly like SetRoute. SetRoute
// entries take precedence over ECMP groups for the same destination, so a
// topology may pin a deterministic down path while load-balancing the up
// direction. Destinations given equal groups share one stored copy; a
// caller may reuse or change its slice afterwards without moving a route.
func (sw *Switch) SetECMPRoutes(dst int, portIndexes []int) {
	if len(portIndexes) == 0 {
		panic(fmt.Sprintf("netsim: switch %d ECMP group for %d is empty", sw.id, dst))
	}
	for _, i := range portIndexes {
		if i < 0 || i >= len(sw.ports) {
			panic(fmt.Sprintf("netsim: switch %d has no port %d", sw.id, i))
		}
	}
	sw.ecmp = sw.grow(sw.ecmp, dst)
	sw.ecmp[dst] = int32(sw.group(portIndexes) + 1)
}

// group returns the index of the stored group equal to g, storing a copy
// of g first if none is. A switch holds a handful of distinct groups (one
// per tier direction in the Clos builders), so a scan finds it.
func (sw *Switch) group(g []int) int {
	for i, have := range sw.groups {
		if slices.Equal(have, g) {
			return i
		}
	}
	sw.groups = append(sw.groups, slices.Clone(g))
	return len(sw.groups) - 1
}

// SetECMPSeed seeds the flow-key hash. Two switches given distinct seeds
// make independent choices for the same flow (real fabrics hash with
// per-switch salts for exactly this reason); the topology generators derive
// per-switch seeds deterministically from one fabric seed, so a whole wired
// fabric is reproducible from its configuration.
func (sw *Switch) SetECMPSeed(seed uint64) { sw.ecmpSeed = seed }

// splitmix64 is the finalizer of the splitmix64 generator: a cheap,
// well-mixed 64-bit permutation (same scheme the sweep engine uses for
// per-job seed derivation).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// ecmpHash maps a flow key to a 64-bit hash, deterministically in
// (seed, src, dst, flow).
func ecmpHash(seed uint64, src, dst, flow int) uint64 {
	x := splitmix64(seed ^ (uint64(uint32(src)) | uint64(uint32(dst))<<32))
	return splitmix64(x ^ uint64(int64(flow)))
}

// EgressIndex reports the egress port index the switch would forward a
// packet with the given flow key through: the pinned route when one exists,
// otherwise the hashed pick from the destination's ECMP group. It returns
// -1 for unknown destinations. Pure — topology tests and path-tracing tools
// call it without moving packets.
func (sw *Switch) EgressIndex(src, dst, flow int) int {
	if idx := lookup(sw.routes, dst); idx >= 0 {
		return idx
	}
	if gi := lookup(sw.ecmp, dst); gi >= 0 {
		g := sw.groups[gi]
		return g[int(ecmpHash(sw.ecmpSeed, src, dst, flow)%uint64(len(g)))]
	}
	return -1
}

// portToward finds the port whose peer is the given node id (for PFC
// control addressed to a neighbour).
func (sw *Switch) portToward(nodeID int) *Port {
	if idx := lookup(sw.peerIdx, nodeID); idx >= 0 {
		return sw.ports[idx]
	}
	return nil
}

// Receive implements Node: forward by static route, tracking PFC state.
func (sw *Switch) Receive(pkt *Packet) {
	switch pkt.Kind {
	case Pause:
		if p := sw.portToward(pkt.Src); p != nil {
			p.pause()
		}
		sw.net.FreePacket(pkt)
		return
	case Resume:
		if p := sw.portToward(pkt.Src); p != nil {
			p.unpause()
		}
		sw.net.FreePacket(pkt)
		return
	}
	idx := sw.EgressIndex(pkt.Src, pkt.Dst, pkt.Flow)
	if idx < 0 {
		panic(fmt.Sprintf("netsim: switch %d has no route to %d", sw.id, pkt.Dst))
	}
	if sw.pfc.Enabled() {
		// Attribute the buffered bytes to the ingress the packet came
		// through (the port facing its source side); for a single-path
		// topology the reverse route of the source works.
		in := sw.ingressIndexFor(pkt)
		pkt.ingress = in
		if in >= 0 {
			sw.ingressUse[in] += pkt.Size
			if !sw.pausedUp[in] && sw.ingressUse[in] > sw.pfc.PauseBytes {
				sw.pausedUp[in] = true
				sw.sendPFC(in, Pause)
			}
		}
	} else {
		pkt.ingress = -1
	}
	sw.ports[idx].Send(pkt)
}

// ingressIndexFor attributes a buffered packet to the ingress port it came
// through. The pinned reverse route of the source is the historical
// single-path answer and is kept first so existing topologies behave
// exactly as before; when the reverse path is an ECMP group (no pinned
// route), the delivering port's stamp identifies the true upstream — the
// hashed reverse pick could name a different equal-cost neighbour than the
// one actually feeding us.
func (sw *Switch) ingressIndexFor(pkt *Packet) int {
	if idx := lookup(sw.routes, pkt.Src); idx >= 0 {
		return idx
	}
	return lookup(sw.peerIdx, pkt.prevHop)
}

// departed is called by the owning port when a buffered packet finishes
// transmission, releasing its PFC accounting.
func (sw *Switch) departed(pkt *Packet) {
	if !sw.pfc.Enabled() || pkt.ingress < 0 {
		return
	}
	in := pkt.ingress
	sw.ingressUse[in] -= pkt.Size
	if sw.pausedUp[in] && sw.ingressUse[in] <= sw.pfc.ResumeBytes {
		sw.pausedUp[in] = false
		sw.sendPFC(in, Resume)
	}
}

func (sw *Switch) sendPFC(portIndex int, kind Kind) {
	p := sw.ports[portIndex]
	pkt := sw.net.NewPacket()
	pkt.ID = sw.net.NextPacketID()
	pkt.Flow = -1
	pkt.Src = sw.id
	pkt.Dst = p.peer.ID()
	pkt.Size = CtrlSize
	pkt.Kind = kind
	p.SendDirect(pkt)
}
