// Package hybrid couples the repo's two validated models of the same
// protocols — the analytic layer (internal/fixedpoint, internal/fluid) and
// the packet-level simulator (internal/netsim + endpoint packages) — into a
// co-simulation and cross-validation toolkit:
//
//   - Equilibrium warm start: solve the paper's fixed point (Theorem 1 for
//     DCQCN, Eq. 31 for patched TIMELY) and start packet-sim endpoints at
//     the analytic operating point — rates, α, and a prefilled bottleneck
//     queue — so steady-state studies skip the cold-start transient.
//   - Fluid background aggregates: model a large background flow population
//     as a fluid ODE whose queue occupancy is superimposed on a real switch
//     queue each DES tick (Queue.SetVirtualBytes), while foreground flows
//     stay packet-accurate.
//   - Automatic cross-validation: run matched fluid and packet scenarios and
//     diff queue trajectories and tail percentiles against each other and
//     against the fixed-point predictions, with explicit tolerances — the
//     paper's own math as a standing regression oracle for the simulator.
//
// Unit convention: the analytic layer works in paper units (packets of
// netsim.DataMTU bytes, packets/second) for DCQCN and in bytes for TIMELY;
// the packet simulator always works in bytes. Conversions happen at this
// package's boundary and nowhere else.
package hybrid

import (
	"errors"

	"ecndelay/internal/dcqcn"
	"ecndelay/internal/des"
	"ecndelay/internal/fixedpoint"
	"ecndelay/internal/fluid"
	"ecndelay/internal/netsim"
	"ecndelay/internal/obs"
	"ecndelay/internal/timely"
)

// MTU is the data segment size shared by both layers: the fluid models
// count packets of this many bytes, the packet simulator sends them.
const MTU = netsim.DataMTU

// Fabric is what a scenario's long flows need of a wired topology: flow i
// runs Senders[i] → Receiver, and a warm start prefills Bottleneck's
// egress queue.
type Fabric struct {
	Senders    []*netsim.Host
	Receiver   *netsim.Host
	Bottleneck *netsim.Port
}

// prefill fills the bottleneck queue to the warm start's q*, its packets
// carrying the fabric's flow identities.
func (f Fabric) prefill(warm *WarmStart) {
	flows := make([]PrefillFlow, len(f.Senders))
	for i, h := range f.Senders {
		flows[i] = PrefillFlow{Flow: i, Src: h.ID(), Dst: f.Receiver.ID()}
	}
	warm.Prefill(f.Bottleneck, flows)
}

// DCQCNScenario is one DCQCN operating point: Par.N long-lived flows
// through one bottleneck star. Par is in paper units (packets of MTU
// bytes) and builds every layer — the Theorem 1 fixed point, the fluid
// system, the linearised loop — while the packet realisation scales it by
// MTU.
type DCQCNScenario struct {
	Par  fixedpoint.DCQCNParams
	Seed int64
	// ExtraDelay lengthens every feedback path of the packet star (Fig. 5).
	ExtraDelay des.Duration
	// Ingress marks at enqueue instead of dequeue (Fig. 17), in the
	// packet marker and the fluid model alike.
	Ingress bool
	// PI, when non-nil, marks with the Eq. 32 controller in paper units
	// (e in packets) instead of Par's RED ramp. Only the packet marker
	// has it; Fluid refuses such a scenario.
	PI *fluid.PIConfig
}

// NewDCQCNScenario returns the Table 1 default operating point for n flows
// on a 40 Gb/s bottleneck (the Figure 2 configuration).
func NewDCQCNScenario(n int, seed int64) DCQCNScenario {
	return DCQCNScenario{Par: fluid.DefaultDCQCNParams(n), Seed: seed}
}

// BwBytes is the bottleneck bandwidth in wire units.
func (sc DCQCNScenario) BwBytes() float64 { return sc.Par.C * MTU }

// Marker returns the factory of the scenario's switch marker on nw: Par's
// RED ramp in bytes, or the PI controller when sc.PI is set.
func (sc DCQCNScenario) Marker(nw *netsim.Network) netsim.MarkerFactory {
	if pi := sc.PI; pi != nil {
		return func() netsim.Marker {
			return &netsim.PIMarker{K1: pi.K1 / MTU, K2: pi.K2 / MTU, QRef: int(pi.QRef * MTU), PMax: pi.PMax, Rng: nw.Rng}
		}
	}
	return func() netsim.Marker {
		return &netsim.REDMarker{
			Kmin:    int(sc.Par.Kmin * MTU),
			Kmax:    int(sc.Par.Kmax * MTU),
			Pmax:    sc.Par.Pmax,
			Ingress: sc.Ingress,
			Rng:     nw.Rng,
		}
	}
}

// Star builds the packet-level realisation: a star with Par.N senders and
// the scenario's marker, wired by Attach with DCQCN default endpoints. A
// non-nil ob is attached before any port or endpoint exists, so both bind
// to it as they are created.
func (sc DCQCNScenario) Star(ob *obs.NetObserver, warm *WarmStart) (*netsim.Network, *netsim.Star, []*dcqcn.Sender, error) {
	nw := netsim.New(sc.Seed)
	nw.SetObserver(ob)
	star := netsim.NewStar(nw, netsim.StarConfig{
		Senders:        sc.Par.N,
		Link:           netsim.LinkConfig{Bandwidth: sc.BwBytes(), PropDelay: des.Microsecond},
		Mark:           sc.Marker(nw),
		CtrlExtraDelay: sc.ExtraDelay,
	})
	senders, err := sc.Attach(Fabric{star.Senders, star.Receiver, star.Bottleneck}, dcqcn.DefaultParams(), warm)
	if err != nil {
		return nil, nil, nil, err
	}
	return nw, star, senders, nil
}

// Attach puts the scenario's long flows on f: a DCQCN endpoint with
// parameters p on the receiver, then on each sender an endpoint and flow
// i toward the receiver, started at time 0. A non-nil warm start then
// arms the senders and prefills the bottleneck queue.
func (sc DCQCNScenario) Attach(f Fabric, p dcqcn.Params, warm *WarmStart) ([]*dcqcn.Sender, error) {
	if _, err := dcqcn.NewEndpoint(f.Receiver, p); err != nil {
		return nil, err
	}
	senders := make([]*dcqcn.Sender, 0, len(f.Senders))
	for i, h := range f.Senders {
		ep, err := dcqcn.NewEndpoint(h, p)
		if err != nil {
			return nil, err
		}
		s, err := ep.NewFlow(i, f.Receiver.ID(), -1, 0)
		if err != nil {
			return nil, err
		}
		senders = append(senders, s)
	}
	if warm != nil {
		if err := warm.ApplyDCQCN(senders); err != nil {
			return nil, err
		}
		f.prefill(warm)
	}
	return senders, nil
}

// Fluid builds the matched fluid model. A non-nil warm start sets the
// initial per-flow rates (the fluid model's queue and α warm-start
// implicitly: its Initial() starts at α=1 / empty queue, so warm fluid runs
// use InitialRC only — the ODE reaches its fixed point regardless).
func (sc DCQCNScenario) Fluid(warm *WarmStart) (*fluid.DCQCNSystem, error) {
	if sc.PI != nil {
		return nil, errors.New("hybrid: the DCQCN fluid system marks with RED, not PI")
	}
	cfg := fluid.DCQCNConfig{Params: sc.Par, IngressMarking: sc.Ingress}
	if warm != nil {
		rc := make([]float64, sc.Par.N)
		for i := range rc {
			rc[i] = warm.RatesBytes[i] / MTU
		}
		cfg.InitialRC = rc
	}
	return fluid.NewDCQCN(cfg)
}

// TimelyScenario is one TIMELY operating point: Cfg.N long-lived flows
// through one star. Cfg (bytes units) drives the fluid model, the Eq. 31
// prediction and the packet star's link rate, flow starts and start
// rates; Par configures the packet endpoints.
type TimelyScenario struct {
	Cfg  fluid.TimelyConfig
	Par  timely.Params
	Seed int64
}

// NewTimelyScenario returns the §4.3 patched-TIMELY operating point for n
// flows (the Figure 12 configuration).
func NewTimelyScenario(n int, seed int64) TimelyScenario {
	return TimelyScenario{
		Cfg:  fluid.DefaultPatchedTimelyConfig(n),
		Par:  timely.DefaultPatchedParams(),
		Seed: seed,
	}
}

// Star builds the packet-level realisation: a star with Cfg.N senders at
// link rate Cfg.C, wired by Attach. A non-nil ob is attached before any
// port or endpoint exists, as in DCQCNScenario.Star.
func (sc TimelyScenario) Star(ob *obs.NetObserver, warm *WarmStart) (*netsim.Network, *netsim.Star, []*timely.Sender, error) {
	nw := netsim.New(sc.Seed)
	nw.SetObserver(ob)
	star := netsim.NewStar(nw, netsim.StarConfig{
		Senders: sc.Cfg.N,
		Link:    netsim.LinkConfig{Bandwidth: sc.Cfg.C, PropDelay: des.Microsecond},
	})
	senders, err := sc.Attach(Fabric{star.Senders, star.Receiver, star.Bottleneck}, warm)
	if err != nil {
		return nil, nil, nil, err
	}
	return nw, star, senders, nil
}

// Attach puts the scenario's long flows on f: a Par endpoint on the
// receiver, then on each sender an endpoint and flow i toward the
// receiver. Flow i starts at Cfg.StartTimes[i] at rate
// Cfg.InitialRates[i]; a nil slice starts every flow at time 0 or at the
// protocol's default rate. A non-nil warm start overrides the start rates
// and prefills the bottleneck queue.
func (sc TimelyScenario) Attach(f Fabric, warm *WarmStart) ([]*timely.Sender, error) {
	if _, err := timely.NewEndpoint(f.Receiver, sc.Par); err != nil {
		return nil, err
	}
	senders := make([]*timely.Sender, 0, len(f.Senders))
	for i, h := range f.Senders {
		ep, err := timely.NewEndpoint(h, sc.Par)
		if err != nil {
			return nil, err
		}
		var start des.Time
		if sc.Cfg.StartTimes != nil {
			start = des.Time(des.DurationFromSeconds(sc.Cfg.StartTimes[i]))
		}
		rate := 0.0
		if sc.Cfg.InitialRates != nil {
			rate = sc.Cfg.InitialRates[i]
		}
		if warm != nil {
			rate = warm.RatesBytes[i]
		}
		s, err := ep.NewFlow(i, f.Receiver.ID(), -1, start, rate)
		if err != nil {
			return nil, err
		}
		senders = append(senders, s)
	}
	if warm != nil {
		f.prefill(warm)
	}
	return senders, nil
}

func relErr(got, want float64) float64 {
	d := got - want
	if d < 0 {
		d = -d
	}
	w := want
	if w < 0 {
		w = -w
	}
	if w < 1e-12 {
		w = 1e-12
	}
	return d / w
}
