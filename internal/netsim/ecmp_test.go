package netsim

import (
	"strings"
	"testing"

	"ecndelay/internal/des"
)

// ecmpFixture wires a 4-port switch with an ECMP group over all ports
// toward one destination id. Hosts are real so port peers resolve.
func ecmpFixture(t *testing.T, seed uint64) *Switch {
	t.Helper()
	nw := New(1)
	sw := nw.NewSwitch(PFCConfig{})
	var hosts []*Host
	for i := 0; i < 4; i++ {
		h := nw.NewHost()
		h.Connect(sw, 1e9, des.Microsecond, nil)
		sw.AddPort(h, 1e9, des.Microsecond, nil)
		hosts = append(hosts, h)
	}
	sw.SetECMPSeed(seed)
	sw.SetECMPRoutes(99, []int{0, 1, 2, 3})
	return sw
}

// A flow key maps to exactly one port, stably: the property that keeps a
// flow's packets in order on one path.
func TestECMPSameKeySamePath(t *testing.T) {
	sw := ecmpFixture(t, 42)
	for flow := 0; flow < 200; flow++ {
		first := sw.EgressIndex(7, 99, flow)
		for rep := 0; rep < 10; rep++ {
			if got := sw.EgressIndex(7, 99, flow); got != first {
				t.Fatalf("flow %d: pick changed %d → %d on repeat", flow, first, got)
			}
		}
	}
	// And the mapping is a pure function of (seed, key): a freshly wired
	// identical switch agrees on every key.
	again := ecmpFixture(t, 42)
	for flow := 0; flow < 200; flow++ {
		if sw.EgressIndex(7, 99, flow) != again.EgressIndex(7, 99, flow) {
			t.Fatalf("flow %d: identically-seeded switches disagree", flow)
		}
	}
}

// Distinct flows spread across the group roughly uniformly: no port is
// starved or overloaded beyond sampling noise.
func TestECMPSpreadIsBalanced(t *testing.T) {
	sw := ecmpFixture(t, 7)
	const flows = 8000
	counts := make([]int, 4)
	for flow := 0; flow < flows; flow++ {
		idx := sw.EgressIndex(flow%13, 99, flow)
		if idx < 0 || idx > 3 {
			t.Fatalf("flow %d: pick %d outside the group", flow, idx)
		}
		counts[idx]++
	}
	for i, c := range counts {
		share := float64(c) / flows
		if share < 0.20 || share > 0.30 {
			t.Errorf("port %d got %.1f%% of %d flows, want 25%% ± 5", i, 100*share, flows)
		}
	}
}

// Different hash seeds produce different flow→path mappings (the per-switch
// salt real fabrics use so one flow doesn't collide on every tier).
func TestECMPSeedChangesMapping(t *testing.T) {
	a := ecmpFixture(t, 1)
	b := ecmpFixture(t, 2)
	diff := 0
	for flow := 0; flow < 256; flow++ {
		if a.EgressIndex(7, 99, flow) != b.EgressIndex(7, 99, flow) {
			diff++
		}
	}
	if diff == 0 {
		t.Error("256 flow keys mapped identically under different seeds")
	}
}

// A pinned SetRoute wins over an ECMP group for the same destination: the
// deterministic down path stays deterministic.
func TestECMPRoutePrecedence(t *testing.T) {
	sw := ecmpFixture(t, 3)
	sw.SetRoute(99, 2)
	for flow := 0; flow < 64; flow++ {
		if got := sw.EgressIndex(0, 99, flow); got != 2 {
			t.Fatalf("flow %d: ECMP overrode the pinned route (got %d)", flow, got)
		}
	}
}

// The forwarding tables are slices indexed by node id, one past the value
// each entry names. Each row pins one edge of that layout to the rules the
// map-based tables had.
func TestForwardingTableEdges(t *testing.T) {
	for _, row := range []struct {
		name string
		run  func(t *testing.T)
	}{
		{"unknown destinations give -1", func(t *testing.T) {
			sw := ecmpFixture(t, 5) // ECMP table spans ids 0..99
			sw.SetRoute(1, 0)       // route table spans the 5 node ids
			for _, dst := range []int{-1, 100, 1 << 20, 3, 50} {
				if got := sw.EgressIndex(7, dst, 1); got != -1 {
					t.Errorf("dst %d: EgressIndex %d, want -1", dst, got)
				}
			}
			if got := sw.EgressIndex(7, 1, 1); got != 0 {
				t.Errorf("pinned dst 1: EgressIndex %d, want 0", got)
			}
		}},
		{"the caller's slice is copied", func(t *testing.T) {
			sw := ecmpFixture(t, 9)
			g := []int{3, 2, 1, 0}
			sw.SetECMPRoutes(98, g)
			var before [64]int
			for flow := range before {
				before[flow] = sw.EgressIndex(7, 98, flow)
			}
			for i := range g {
				g[i] = 0
			}
			for flow, want := range before {
				if got := sw.EgressIndex(7, 98, flow); got != want {
					t.Fatalf("flow %d: pick moved %d → %d after the caller changed its slice", flow, want, got)
				}
			}
		}},
		{"order-distinct groups keep their own picks", func(t *testing.T) {
			sw := ecmpFixture(t, 11) // dst 99 over {0, 1, 2, 3}
			rev := []int{3, 2, 1, 0}
			sw.SetECMPRoutes(98, rev)
			sw.SetECMPRoutes(97, []int{0, 1, 2, 3})
			if len(sw.groups) != 2 {
				t.Errorf("%d stored groups, want 2 (equal groups share one copy)", len(sw.groups))
			}
			fwd := []int{0, 1, 2, 3}
			for flow := 0; flow < 64; flow++ {
				for _, c := range []struct {
					dst int
					g   []int
				}{{99, fwd}, {98, rev}, {97, fwd}} {
					want := c.g[ecmpHash(sw.ecmpSeed, 7, c.dst, flow)%4]
					if got := sw.EgressIndex(7, c.dst, flow); got != want {
						t.Fatalf("dst %d flow %d: pick %d, want %d", c.dst, flow, got, want)
					}
				}
			}
		}},
		{"PAUSE from a peer pauses the first port toward it", func(t *testing.T) {
			nw := New(1)
			sw := nw.NewSwitch(PFCConfig{})
			h := nw.NewHost()
			first := sw.AddPort(h, 1e9, des.Microsecond, nil)
			second := sw.AddPort(h, 1e9, des.Microsecond, nil)
			sw.Receive(&Packet{Kind: Pause, Src: h.ID(), Dst: sw.ID(), Size: CtrlSize})
			if !sw.Port(first).Paused() || sw.Port(second).Paused() {
				t.Errorf("paused: first %v, second %v; want only the first",
					sw.Port(first).Paused(), sw.Port(second).Paused())
			}
		}},
		{"bad SetRoute arguments panic", func(t *testing.T) {
			sw := ecmpFixture(t, 1)
			for _, c := range []struct{ dst, port int }{{-1, 0}, {1, 4}, {1, -1}} {
				func() {
					defer func() {
						msg, _ := recover().(string)
						if !strings.HasPrefix(msg, "netsim: ") {
							t.Errorf("SetRoute(%d, %d): panic %q, want a netsim: message", c.dst, c.port, msg)
						}
					}()
					sw.SetRoute(c.dst, c.port)
				}()
			}
		}},
	} {
		t.Run(row.name, row.run)
	}
}

// diamond wires the minimal multipath fabric: a ↔ swA ↔ {sp0, sp1} ↔ swB ↔ b
// with ECMP over the two spines in both directions.
type diamond struct {
	nw       *Network
	a, b     *Host
	swA, swB *Switch
	sp       []*Switch
	// upA[i] is swA's port toward spine i (the spread measurement point).
	upA []*Port
}

func newDiamond(seed int64, pfc PFCConfig) *diamond {
	nw := New(seed)
	d := &diamond{nw: nw}
	d.swA = nw.NewSwitch(pfc)
	d.swB = nw.NewSwitch(pfc)
	d.sp = []*Switch{nw.NewSwitch(pfc), nw.NewSwitch(pfc)}
	d.a = nw.NewHost()
	d.b = nw.NewHost()
	const bw = 1.25e9
	link := func(sw *Switch, peer Node) int { return sw.AddPort(peer, bw, des.Microsecond, nil) }
	d.a.Connect(d.swA, bw, des.Microsecond, nil)
	d.b.Connect(d.swB, bw, des.Microsecond, nil)
	aPort := link(d.swA, d.a)
	bPort := link(d.swB, d.b)
	var upB []int
	for i, sp := range d.sp {
		ua := link(d.swA, sp)
		ub := link(d.swB, sp)
		d.upA = append(d.upA, d.swA.Port(ua))
		upB = append(upB, ub)
		link(sp, d.swA)
		link(sp, d.swB)
		sp.SetECMPSeed(uint64(100 + i))
		sp.SetRoute(d.a.ID(), 0)
		sp.SetRoute(d.b.ID(), 1)
		_ = ua
	}
	d.swA.SetECMPSeed(1)
	d.swB.SetECMPSeed(2)
	d.swA.SetRoute(d.a.ID(), aPort)
	d.swA.SetECMPRoutes(d.b.ID(), []int{1, 2})
	d.swB.SetRoute(d.b.ID(), bPort)
	d.swB.SetECMPRoutes(d.a.ID(), []int{1, 2})
	return d
}

// End to end: every packet of one flow crosses exactly one spine, distinct
// flows use both spines, and all bytes arrive — with PFC accounting intact
// even though the reverse route of the source is a multipath group.
func TestECMPDeliveryFlowSticksToOnePath(t *testing.T) {
	d := newDiamond(1, PFCConfig{PauseBytes: 3000, ResumeBytes: 1000})
	var got int64
	d.b.Transport = TransportFunc(func(h *Host, pkt *Packet) { got += int64(pkt.Size) })

	perFlowSpine := func(flow int) int {
		before := []int64{d.upA[0].TxBytes, d.upA[1].TxBytes}
		const n = 20
		for i := 0; i < n; i++ {
			d.a.Send(&Packet{Flow: flow, Dst: d.b.ID(), Size: DataMTU, Kind: Data})
		}
		d.nw.Sim.Run()
		used := -1
		for i, p := range d.upA {
			if p.TxBytes != before[i] {
				carried := p.TxBytes - before[i]
				if carried != n*DataMTU {
					t.Fatalf("flow %d: spine %d carried %d bytes, want all %d or none",
						flow, i, carried, n*DataMTU)
				}
				if used >= 0 {
					t.Fatalf("flow %d: packets split across spines %d and %d", flow, used, i)
				}
				used = i
			}
		}
		if used < 0 {
			t.Fatalf("flow %d: no spine carried its packets", flow)
		}
		return used
	}

	spinesUsed := map[int]bool{}
	const flows = 16
	for flow := 0; flow < flows; flow++ {
		spinesUsed[perFlowSpine(flow)] = true
	}
	if len(spinesUsed) != 2 {
		t.Errorf("%d flows all hashed to one spine", flows)
	}
	if want := int64(flows * 20 * DataMTU); got != want {
		t.Errorf("delivered %d bytes, want %d (drop-free)", got, want)
	}
}
