package netsim

// Packet pooling: the hot path allocates packets from the network's free
// list (NewPacket) and the delivery endpoint recycles them (FreePacket), so
// a steady-state run moves millions of packets through a handful of structs.
// The free list is a plain LIFO slice touched only by the simulation
// goroutine, so no locking is needed and reuse order is deterministic.
//
// SetPooling(false) turns both calls into plain allocate/forget, the
// reference behaviour the pooling determinism tests compare against.

// poolingDefault is the packet-pool state of a new network.
const poolingDefault = true

// NewPacket returns a zeroed packet, reusing a recycled one when the pool
// holds any. All fields are zero, exactly as a &Packet{} literal.
func (nw *Network) NewPacket() *Packet {
	if n := len(nw.pktFree); n > 0 {
		pkt := nw.pktFree[n-1]
		nw.pktFree[n-1] = nil
		nw.pktFree = nw.pktFree[:n-1]
		pkt.inPool = false
		return pkt
	}
	return &Packet{}
}

// FreePacket recycles a delivered packet. The caller must be the packet's
// final consumer: after this call every field is zeroed and the struct may
// be handed out again by NewPacket. Packets not minted by NewPacket (tests
// build them with literals) may be freed too; they simply join the pool.
// Freeing a packet that is already in the pool is a no-op, reported to the
// attached observer as a double free.
func (nw *Network) FreePacket(pkt *Packet) {
	if !nw.pooling {
		return
	}
	if pkt.inPool {
		if nw.obs != nil {
			nw.obsDoubleFree(pkt)
		}
		return
	}
	*pkt = Packet{}
	pkt.inPool = true
	nw.pktFree = append(nw.pktFree, pkt)
}

// SetPooling toggles packet recycling. Turning it off makes FreePacket a
// no-op, so every NewPacket heap-allocates — the fallback used to verify
// pooling does not change simulated results. Toggle before running; packets
// already in the pool remain reusable.
func (nw *Network) SetPooling(on bool) { nw.pooling = on }

// PoolSize reports the number of packets currently in the free list.
func (nw *Network) PoolSize() int { return len(nw.pktFree) }
