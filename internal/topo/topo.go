// Package topo generates datacenter-scale fabrics for the packet
// simulator: k-ary fat trees (3 tiers) and leaf–spine networks (2 tiers),
// wired onto netsim switches with seeded flow-consistent ECMP across the
// equal-cost up paths and deterministic single-path routing downward.
//
// The paper's evaluation runs on a dumbbell; the deployments it targets run
// on exactly these fabrics, where N-to-1 incast at a leaf's host port and
// PFC pause trees climbing the tiers are the defining failure modes. A
// generated fabric is a plain netsim network, so every existing layer —
// protocol endpoints, fault plans, the observability and invariant
// machinery, the sweep engine — composes with it unchanged.
//
// Everything is deterministic in (configuration, ECMPSeed): wiring order,
// node ids, and every per-switch hash salt derive from the config alone, so
// two processes building the same ClosConfig get byte-identical simulations.
package topo

import (
	"fmt"

	"ecndelay/internal/netsim"
)

// ClosConfig parameterises NewClos.
type ClosConfig struct {
	// Radix is k, the port count per switch. Must be even and >= 2
	// (>= 4 tells the 3-tier fat tree apart from a straight line). The
	// fabric shape follows the standard k-ary construction:
	//
	//	Tiers == 2: k leaves × k/2 spines, k/2 hosts per leaf
	//	            (k²/2 hosts, full bipartite leaf↔spine mesh)
	//	Tiers == 3: k pods × (k/2 leaves + k/2 aggs), (k/2)² spines,
	//	            k/2 hosts per leaf (k³/4 hosts)
	Radix int
	// Tiers selects the fabric depth: 2 (leaf–spine) or 3 (fat tree).
	Tiers int
	// Oversub is the leaf oversubscription ratio: leaf uplinks run at
	// FabricLink.Bandwidth / Oversub, so host-facing capacity exceeds
	// uplink capacity by this factor when host and fabric links are equal.
	// 1 (or 0, the default) is a non-blocking fabric.
	Oversub float64
	// HostLink is the host ↔ leaf link (both directions).
	HostLink netsim.LinkConfig
	// FabricLink is the switch ↔ switch link before oversubscription; a
	// zero value copies HostLink.
	FabricLink netsim.LinkConfig
	// Mark builds the ECN marking policy per switch egress queue (nil:
	// none). Host NIC queues are never marked, as everywhere else.
	Mark netsim.MarkerFactory
	// PFC applies to every switch in the fabric.
	PFC netsim.PFCConfig
	// SwitchQueueCap bounds every switch egress queue in bytes (0:
	// unbounded, the lossless default).
	SwitchQueueCap int
	// ECMPSeed salts the per-switch flow hashes. Every switch gets a
	// distinct salt derived deterministically from this one seed.
	ECMPSeed int64
}

// withDefaults fills derived defaults without mutating the caller's copy.
func (cfg ClosConfig) withDefaults() ClosConfig {
	if cfg.Oversub == 0 {
		cfg.Oversub = 1
	}
	if cfg.FabricLink == (netsim.LinkConfig{}) {
		cfg.FabricLink = cfg.HostLink
	}
	return cfg
}

// Validate reports whether the configuration describes a buildable fabric.
func (cfg ClosConfig) Validate() error {
	switch {
	case cfg.Radix < 2 || cfg.Radix%2 != 0:
		return fmt.Errorf("topo: radix must be even and >= 2, got %d", cfg.Radix)
	case cfg.Tiers != 2 && cfg.Tiers != 3:
		return fmt.Errorf("topo: tiers must be 2 or 3, got %d", cfg.Tiers)
	case cfg.Tiers == 3 && cfg.Radix < 4:
		return fmt.Errorf("topo: a 3-tier fat tree needs radix >= 4, got %d", cfg.Radix)
	case cfg.Oversub < 0 || (cfg.Oversub > 0 && cfg.Oversub < 1):
		return fmt.Errorf("topo: oversubscription must be >= 1, got %g", cfg.Oversub)
	case cfg.HostLink.Bandwidth <= 0:
		return fmt.Errorf("topo: host link bandwidth must be positive, got %g", cfg.HostLink.Bandwidth)
	}
	return nil
}

// Hosts reports how many hosts the configuration yields without building it
// (experiment harnesses size workloads from this).
func (cfg ClosConfig) Hosts() int {
	k := cfg.Radix
	if cfg.Tiers == 2 {
		return k * k / 2
	}
	return k * k * k / 4
}

// Clos is a wired fabric. Slices are in deterministic construction order;
// treat them as read-only.
type Clos struct {
	Net *netsim.Network
	Cfg ClosConfig

	// Hosts in global order: host h sits under leaf h / (k/2).
	Hosts []*netsim.Host
	// Leaves, Aggs (3-tier only, in-pod order), Spines.
	Leaves []*netsim.Switch
	Aggs   []*netsim.Switch
	Spines []*netsim.Switch

	// HostPorts[h] is leaf-of-h's egress port toward host h — the incast
	// bottleneck when h is a fan-in receiver.
	HostPorts []*netsim.Port
	// LeafUplinks[l] are leaf l's ports up the fabric (toward spines on 2
	// tiers, toward the pod aggs on 3), the ECMP spread measurement points.
	LeafUplinks [][]*netsim.Port
}

// saltFor derives the per-switch ECMP hash salt: distinct and deterministic
// per construction index.
func saltFor(seed int64, idx int) uint64 {
	return uint64(seed) + 0x9e3779b97f4a7c15*uint64(idx+1)
}

// NewClos builds the fabric on nw. Hosts, switches and links are created in
// a fixed order, so node ids and the network's event schedule depend only
// on the configuration.
func NewClos(nw *netsim.Network, cfg ClosConfig) (*Clos, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	c := &Clos{Net: nw, Cfg: cfg}
	if cfg.Tiers == 2 {
		c.buildLeafSpine()
	} else {
		c.buildFatTree()
	}
	return c, nil
}

// mark returns a fresh marker, or nil without a factory.
func (c *Clos) mark() netsim.Marker {
	if c.Cfg.Mark == nil {
		return nil
	}
	return c.Cfg.Mark()
}

// switchPort adds one egress port on sw with fabric-wide queue policy.
func (c *Clos) switchPort(sw *netsim.Switch, peer netsim.Node, link netsim.LinkConfig) int {
	idx := sw.AddPort(peer, link.Bandwidth, link.PropDelay, c.mark())
	sw.Port(idx).Queue().SetCapBytes(c.Cfg.SwitchQueueCap)
	return idx
}

// newSwitch creates a fabric switch with its deterministic hash salt; salts
// follow switch creation order.
func (c *Clos) newSwitch(order *int) *netsim.Switch {
	sw := c.Net.NewSwitch(c.Cfg.PFC)
	sw.SetECMPSeed(saltFor(c.Cfg.ECMPSeed, *order))
	*order++
	return sw
}

// attachHost creates host h under leaf, wiring both directions and the
// leaf's down route.
func (c *Clos) attachHost(leaf *netsim.Switch) {
	h := c.Net.NewHost()
	h.Connect(leaf, c.Cfg.HostLink.Bandwidth, c.Cfg.HostLink.PropDelay, nil)
	idx := c.switchPort(leaf, h, c.Cfg.HostLink)
	leaf.SetRoute(h.ID(), idx)
	c.Hosts = append(c.Hosts, h)
	c.HostPorts = append(c.HostPorts, leaf.Port(idx))
}

// uplink is the oversubscribed fabric link used above the leaf tier's
// host-facing ports.
func (c *Clos) uplink() netsim.LinkConfig {
	l := c.Cfg.FabricLink
	l.Bandwidth /= c.Cfg.Oversub
	return l
}

// buildLeafSpine wires the 2-tier fabric: k leaves, k/2 spines, full
// bipartite mesh, k/2 hosts per leaf.
func (c *Clos) buildLeafSpine() {
	k := c.Cfg.Radix
	half := k / 2
	order := 0
	for l := 0; l < k; l++ {
		c.Leaves = append(c.Leaves, c.newSwitch(&order))
	}
	for s := 0; s < half; s++ {
		c.Spines = append(c.Spines, c.newSwitch(&order))
	}
	up := c.uplink()
	for l, leaf := range c.Leaves {
		for i := 0; i < half; i++ {
			c.attachHost(leaf)
		}
		var ups []*netsim.Port
		for _, sp := range c.Spines {
			ui := c.switchPort(leaf, sp, up)
			c.switchPort(sp, leaf, up)
			ups = append(ups, leaf.Port(ui))
		}
		c.LeafUplinks = append(c.LeafUplinks, ups)
		_ = l
	}
	// Routes: spines reach every host through its leaf (the port order
	// above means spine's port l faces leaf l); leaves pin their own
	// hosts (done in attachHost) and ECMP everything else over all
	// uplinks.
	for hid, h := range c.Hosts {
		leaf := hid / half
		for _, sp := range c.Spines {
			sp.SetRoute(h.ID(), leaf)
		}
	}
	for l, leaf := range c.Leaves {
		group := make([]int, len(c.LeafUplinks[l]))
		for i := range group {
			group[i] = half + i // ports 0..half-1 are hosts, then uplinks
		}
		for hid, h := range c.Hosts {
			if hid/half != l {
				leaf.SetECMPRoutes(h.ID(), group)
			}
		}
	}
}

// buildFatTree wires the 3-tier k-ary fat tree: k pods of k/2 leaves and
// k/2 aggs, (k/2)² spines in k/2 groups, k/2 hosts per leaf.
func (c *Clos) buildFatTree() {
	k := c.Cfg.Radix
	half := k / 2
	order := 0
	// Creation order: per pod leaves then aggs, then spines — hosts are
	// attached pod by pod afterwards so ids group naturally.
	for p := 0; p < k; p++ {
		for l := 0; l < half; l++ {
			c.Leaves = append(c.Leaves, c.newSwitch(&order))
		}
		for a := 0; a < half; a++ {
			c.Aggs = append(c.Aggs, c.newSwitch(&order))
		}
	}
	for s := 0; s < half*half; s++ {
		c.Spines = append(c.Spines, c.newSwitch(&order))
	}

	up := c.uplink()
	core := c.Cfg.FabricLink
	leafUpIdx := make([][]int, len(c.Leaves)) // leaf → its agg-facing port indexes
	aggDownIdx := make([][]int, len(c.Aggs))  // agg → its leaf-facing port indexes
	aggUpIdx := make([][]int, len(c.Aggs))    // agg → its spine-facing port indexes
	for p := 0; p < k; p++ {
		// Hosts and leaf↔agg mesh inside the pod.
		for l := 0; l < half; l++ {
			leaf := c.Leaves[p*half+l]
			for i := 0; i < half; i++ {
				c.attachHost(leaf)
			}
			for a := 0; a < half; a++ {
				agg := c.Aggs[p*half+a]
				ui := c.switchPort(leaf, agg, up)
				di := c.switchPort(agg, leaf, up)
				leafUpIdx[p*half+l] = append(leafUpIdx[p*half+l], ui)
				aggDownIdx[p*half+a] = append(aggDownIdx[p*half+a], di)
			}
		}
		// Agg ↔ spine: agg a of every pod connects to spine group a.
		for a := 0; a < half; a++ {
			agg := c.Aggs[p*half+a]
			for j := 0; j < half; j++ {
				sp := c.Spines[a*half+j]
				ui := c.switchPort(agg, sp, core)
				c.switchPort(sp, agg, core)
				aggUpIdx[p*half+a] = append(aggUpIdx[p*half+a], ui)
			}
		}
	}
	for l, leaf := range c.Leaves {
		var ups []*netsim.Port
		for _, ui := range leafUpIdx[l] {
			ups = append(ups, leaf.Port(ui))
		}
		c.LeafUplinks = append(c.LeafUplinks, ups)
	}

	// Routes. Down paths are unique and pinned; up paths are ECMP groups.
	hostsPerPod := half * half
	podOf := func(hid int) int { return hid / hostsPerPod }
	leafOf := func(hid int) int { return hid / half }
	for hid, h := range c.Hosts {
		p, l := podOf(hid), leafOf(hid)
		// Aggs in the host's pod pin the down leg to its leaf.
		for a := 0; a < half; a++ {
			agg := c.Aggs[p*half+a]
			agg.SetRoute(h.ID(), aggDownIdx[p*half+a][l%half])
		}
		// Spines pin the down leg to the host's pod: spine s in group a
		// wired its pod ports in pod order, so port p faces pod p's agg.
		for _, sp := range c.Spines {
			sp.SetRoute(h.ID(), p)
		}
	}
	for l, leaf := range c.Leaves {
		for hid, h := range c.Hosts {
			if leafOf(hid) != l {
				leaf.SetECMPRoutes(h.ID(), leafUpIdx[l])
			}
		}
	}
	for a, agg := range c.Aggs {
		p := a / half
		for hid, h := range c.Hosts {
			if podOf(hid) != p {
				agg.SetECMPRoutes(h.ID(), aggUpIdx[a])
			}
		}
	}
}

// Switches returns every fabric switch (leaves, aggs, spines) in
// construction order — convenient for wiring watchdogs or summing drops.
func (c *Clos) Switches() []*netsim.Switch {
	out := make([]*netsim.Switch, 0, len(c.Leaves)+len(c.Aggs)+len(c.Spines))
	out = append(out, c.Leaves...)
	out = append(out, c.Aggs...)
	return append(out, c.Spines...)
}

// LeafOf returns the leaf switch host h hangs off.
func (c *Clos) LeafOf(h int) *netsim.Switch {
	return c.Leaves[h/(c.Cfg.Radix/2)]
}

// PodOf returns the pod index of host h (always 0 on a 2-tier fabric,
// where pods degenerate to leaves' shared spine mesh).
func (c *Clos) PodOf(h int) int {
	if c.Cfg.Tiers == 2 {
		return 0
	}
	half := c.Cfg.Radix / 2
	return h / (half * half)
}
