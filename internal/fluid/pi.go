package fluid

import "fmt"

// PIConfig holds the Eq. 32 controller gains: dp/dt = K1·de/dt + K2·e.
// For the switch-side controller (DCQCN) the error e is the queue deviation
// in packets; for the host-side controller (TIMELY) it is the delay
// deviation in seconds. QRef is in the respective queue unit.
type PIConfig struct {
	K1   float64
	K2   float64
	QRef float64
	// PMax caps the controller output (anti-windup): without it the
	// line-rate start transient winds the integrator to p = 1, which then
	// drains at only K2·QRef per second. Zero means 0.1 for the switch
	// controller; the host controller is capped structurally instead.
	PMax float64
}

// DCQCNPIConfig configures DCQCN with PI marking at the switch (Figure 18):
// RED (a proportional controller) is replaced by the integral controller of
// Eq. 32 and the resulting p drives the usual DCQCN multiplicative decrease.
type DCQCNPIConfig struct {
	DCQCN DCQCNConfig
	PI    PIConfig // e in packets; QRef in packets
}

// DCQCNPISystem is the DCQCN fluid model with the PI controller in place of
// RED. State: y[0] = queue (packets), y[1] = marking probability p, then
// per-flow (α, R_T, R_C) triples. It is a DCQCNSystem with the controller
// switched on: queue, rate law, clamps and jitter are the base system's,
// and Eq. 32 is the only variant code (in its Derivs and PostStep).
type DCQCNPISystem struct{ DCQCNSystem }

// NewDCQCNPI validates the configuration and builds the system. Zero PI
// gains default to K1 = 2e-5 /packet, K2 = 1e-3 /packet/s, QRef = 50
// packets — a controller that holds ~50 KB of queue with 1 KB packets and
// stays stable for 2-64 flows at feedback delays up to ~100 µs.
func NewDCQCNPI(cfg DCQCNPIConfig) (*DCQCNPISystem, error) {
	s, err := NewDCQCN(cfg.DCQCN)
	if err != nil {
		return nil, err
	}
	pi := cfg.PI
	if pi.K1 == 0 {
		pi.K1 = 2e-5
	}
	if pi.K2 == 0 {
		pi.K2 = 1e-3
	}
	if pi.QRef == 0 {
		pi.QRef = 50
	}
	if pi.PMax == 0 {
		pi.PMax = 0.1
	}
	s.pi, s.off = &pi, 2
	return &DCQCNPISystem{*s}, nil
}

// PIndex returns the state index of the PI marking probability.
func (s *DCQCNPISystem) PIndex() int { return 1 }

// QRef reports the controller's queue reference in packets.
func (s *DCQCNPISystem) QRef() float64 { return s.pi.QRef }

// TimelyPIConfig configures patched TIMELY with an end-host PI controller
// (Figure 19): each sender integrates its own delay error into an internal
// variable p_i that replaces the (q-q')/q' term of Eq. 29.
type TimelyPIConfig struct {
	Timely TimelyConfig
	PI     PIConfig // e in seconds of queueing delay; QRef in bytes
}

// TimelyPISystem is patched TIMELY with the end-host PI controller. State:
// y[0] = queue (bytes), then per-flow (R_i, g_i, p_i) triples. It is the
// patched TIMELY base with the controller switched on: queue, gradient,
// rate branches, activation and clamps are the base's, and Eq. 32 with
// p_i in place of (q-q')/q' is the only variant code (the base's hostPI
// pass and a clamp in its PostStep).
type TimelyPISystem struct{ timelyBase }

// NewTimelyPI validates the configuration and builds the system. Zero PI
// gains default to K1 = 500 /s, K2 = 2e4 /s², QRef = 300 KB (the Figure 19
// operating point).
func NewTimelyPI(cfg TimelyPIConfig) (*TimelyPISystem, error) {
	b, err := newTimelyBase(cfg.Timely, true)
	if err != nil {
		return nil, err
	}
	pi := cfg.PI
	if pi.K1 == 0 {
		pi.K1 = 500
	}
	if pi.K2 == 0 {
		pi.K2 = 2e4
	}
	if pi.QRef == 0 {
		pi.QRef = 300e3
	}
	if pi.QRef <= 0 || pi.QRef >= 16e6 {
		return nil, fmt.Errorf("fluid: TimelyPI QRef %v bytes out of range", pi.QRef)
	}
	b.pi, b.stride = &pi, 3
	return &TimelyPISystem{*b}, nil
}

// PIndex returns the state index of flow i's internal PI variable.
func (s *TimelyPISystem) PIndex(i int) int { return s.RateIndex(i) + 2 }

// QRef reports the controller's queue reference in bytes.
func (s *TimelyPISystem) QRef() float64 { return s.pi.QRef }
