// Package fault injects failures into netsim networks: random packet
// loss and link flaps. RoCE deployments assume a lossless fabric —
// the paper's protocols were designed with PFC underneath them — so the
// interesting robustness questions are exactly what happens when that
// assumption breaks: a flaky optic dropping data packets, a congested
// management path losing CNPs, a link that bounces.
//
// Everything is declarative and seeded: a Plan lists per-link loss rules
// and flap schedules, Apply installs them, and the injector draws from its
// own splitmix64-derived RNG — never the network's — so two runs of the
// same plan drop the same packets, and a run with no plan (or an empty
// one) is bit-identical to a build where this package does not exist.
package fault

import (
	"fmt"
	"math/rand"

	"ecndelay/internal/des"
	"ecndelay/internal/netsim"
)

// Selector is a bitmask choosing which packet kinds a loss rule applies
// to. Separating data from feedback matters: the paper's control loops
// react very differently to losing payload (retransmit, stall) than to
// losing the CNP/ACK signal that drives the rate computation.
type Selector uint8

// Selector bits, one per wire kind, plus the common unions.
const (
	SelData Selector = 1 << iota
	SelAck
	SelCNP
	SelNack
	SelPFC // PAUSE and RESUME frames

	SelCtrl = SelAck | SelCNP | SelNack // protocol feedback
	SelAll  = SelData | SelCtrl | SelPFC
)

// Matches reports whether the selector covers the packet kind.
func (s Selector) Matches(k netsim.Kind) bool {
	switch k {
	case netsim.Data:
		return s&SelData != 0
	case netsim.Ack:
		return s&SelAck != 0
	case netsim.CNP:
		return s&SelCNP != 0
	case netsim.Nack:
		return s&SelNack != 0
	case netsim.Pause, netsim.Resume:
		return s&SelPFC != 0
	}
	return false
}

// Loss is one loss rule on a link: the kinds it applies to and the i.i.d.
// rate at which it drops them. The first rule on a link that matches a
// packet's kind decides its fate.
type Loss struct {
	Kinds Selector
	Rate  float64
}

// Flap takes a link down at DownAt and back up at UpAt. UpAt of zero means
// the link never recovers. While down the port refuses to transmit and
// in-flight packets are lost (netsim.Port.SetLinkDown semantics).
type Flap struct {
	DownAt des.Time
	UpAt   des.Time
}

// LinkFaults attaches loss rules and a flap schedule to one port (one
// direction of a link — fault both ports for a symmetric failure).
type LinkFaults struct {
	Port  *netsim.Port
	Loss  []Loss
	Flaps []Flap
}

// Plan is a complete fault scenario. The zero value (or a nil pointer) is
// the healthy network; Apply of such a plan installs nothing.
type Plan struct {
	// Seed drives every loss draw. Each link's injector gets an
	// independent stream derived from (Seed, link index), so adding a
	// faulty link never reshuffles the losses on another.
	Seed  int64
	Links []LinkFaults
}

// Validate reports the first configuration error, or nil.
func (p *Plan) Validate() error {
	if p == nil {
		return nil
	}
	for i, lf := range p.Links {
		if lf.Port == nil {
			return fmt.Errorf("fault: link %d has no port", i)
		}
		for j, l := range lf.Loss {
			if l.Kinds == 0 {
				return fmt.Errorf("fault: link %d loss %d selects no kinds", i, j)
			}
			if !(l.Rate >= 0 && l.Rate <= 1) { // false for NaN too
				return fmt.Errorf("fault: link %d loss %d rate %v outside [0,1]", i, j, l.Rate)
			}
		}
		for j, f := range lf.Flaps {
			if f.DownAt < 0 || f.UpAt < 0 {
				return fmt.Errorf("fault: link %d flap %d has a negative time (down %v, up %v)",
					i, j, f.DownAt, f.UpAt)
			}
			if f.UpAt != 0 && f.UpAt <= f.DownAt {
				return fmt.Errorf("fault: link %d flap %d comes up at %v, not after down at %v",
					i, j, f.UpAt, f.DownAt)
			}
		}
	}
	return nil
}

// Applied is a live fault scenario: it exposes the injection counter.
type Applied struct {
	injectors []*injector // one per link with loss rules
}

// Apply installs the plan on the network: loss hooks on each faulted port
// and flap transitions on the simulator clock. It panics on an invalid
// plan (a programming error, like a bad topology). Applying a nil or empty
// plan is a no-op that leaves the network untouched.
func (p *Plan) Apply(nw *netsim.Network) *Applied {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	a := &Applied{}
	if p == nil {
		return a
	}
	for i, lf := range p.Links {
		if len(lf.Loss) > 0 {
			in := newInjector(deriveSeed(p.Seed, i), lf.Loss)
			lf.Port.SetFaultHook(in)
			a.injectors = append(a.injectors, in)
		}
		for _, f := range lf.Flaps {
			port := lf.Port
			nw.Sim.At(f.DownAt, func() { port.SetLinkDown(true) })
			if f.UpAt != 0 {
				nw.Sim.At(f.UpAt, func() { port.SetLinkDown(false) })
			}
		}
	}
	return a
}

// Drops reports the total packets dropped by loss injection across all
// links (flap losses are counted by each port's WireDrops instead).
func (a *Applied) Drops() int64 {
	var n int64
	for _, in := range a.injectors {
		n += in.total
	}
	return n
}

// deriveSeed maps (base, index) to a well-mixed per-link seed via the
// splitmix64 finalizer (same construction as sweep.DeriveSeed, copied to
// keep the dependency arrow pointing one way).
func deriveSeed(base int64, index int) int64 {
	z := uint64(base) + 0x9e3779b97f4a7c15*uint64(index+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// injector implements netsim.FaultHook for one port. It owns a private
// RNG: loss draws must not advance the network RNG, or enabling faults
// would perturb ECN marking and jitter in otherwise-identical runs.
type injector struct {
	rng   *rand.Rand
	rules []Loss
	total int64
}

func newInjector(seed int64, rules []Loss) *injector {
	return &injector{rng: rand.New(rand.NewSource(seed)), rules: append([]Loss(nil), rules...)}
}

// DropTx implements netsim.FaultHook: the first rule matching the packet's
// kind decides.
func (in *injector) DropTx(pkt *netsim.Packet) bool {
	for _, r := range in.rules {
		if !r.Kinds.Matches(pkt.Kind) {
			continue
		}
		if r.Rate >= 1 || (r.Rate > 0 && in.rng.Float64() < r.Rate) {
			in.total++
			return true
		}
		return false
	}
	return false
}
