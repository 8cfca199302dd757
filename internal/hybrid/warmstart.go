package hybrid

import (
	"fmt"

	"ecndelay/internal/dcqcn"
	"ecndelay/internal/fixedpoint"
	"ecndelay/internal/fluid"
	"ecndelay/internal/netsim"
)

// WarmStart is an analytic operating point translated to wire units, ready
// to be applied to packet-sim endpoints: per-flow rates and α, plus the
// steady-state bottleneck queue occupancy to prefill. Build one with
// DCQCNWarmStart or TimelyWarmStart.
type WarmStart struct {
	// RatesBytes / TargetsBytes are per-flow current and target rates in
	// bytes/s; Alphas the per-flow α (DCQCN only, 0 for TIMELY).
	RatesBytes   []float64
	TargetsBytes []float64
	Alphas       []float64
	// QueueBytes is the analytic steady-state bottleneck occupancy q* in
	// bytes, the amount Prefill injects.
	QueueBytes int
	// FP is the solved DCQCN fixed point (zero value for TIMELY).
	FP fixedpoint.DCQCNFixedPoint
}

// DCQCNWarmStart solves the Theorem 1 fixed point of pr (paper units:
// packets of MTU bytes) and translates it to wire units for pr.N flows.
func DCQCNWarmStart(pr fixedpoint.DCQCNParams) (*WarmStart, error) {
	fp, err := fixedpoint.SolveDCQCN(pr)
	if err != nil {
		return nil, err
	}
	w := &WarmStart{QueueBytes: int(fp.Q * MTU), FP: fp}
	for i := 0; i < pr.N; i++ {
		w.RatesBytes = append(w.RatesBytes, fp.RC*MTU)
		w.TargetsBytes = append(w.TargetsBytes, fp.RT*MTU)
		w.Alphas = append(w.Alphas, fp.Alpha)
	}
	return w, nil
}

// TimelyWarmStart builds the patched-TIMELY operating point of cfg (bytes
// units): fair-share rates and the Eq. 31 queue
//
//	q* = N δ q' / (β C) + q'
//
// with q' = C·T_low, the paper's reference queue.
func TimelyWarmStart(cfg fluid.TimelyConfig) (*WarmStart, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n, c := cfg.N, cfg.C
	w := &WarmStart{QueueBytes: int(fixedpoint.PatchedTimelyQStar(n, cfg.Delta, cfg.Beta, c, c*cfg.TLow))}
	for i := 0; i < n; i++ {
		w.RatesBytes = append(w.RatesBytes, c/float64(n))
		w.TargetsBytes = append(w.TargetsBytes, c/float64(n))
		w.Alphas = append(w.Alphas, 0)
	}
	return w, nil
}

// ApplyDCQCN arms every sender to start at the warm operating point instead
// of the cold line-rate/α=1 default. Call before the flows' start times.
func (w *WarmStart) ApplyDCQCN(senders []*dcqcn.Sender) error {
	if len(senders) != len(w.RatesBytes) {
		return fmt.Errorf("hybrid: warm start has %d flows, got %d senders",
			len(w.RatesBytes), len(senders))
	}
	for i, s := range senders {
		s.WarmStart(w.RatesBytes[i], w.TargetsBytes[i], w.Alphas[i])
	}
	return nil
}

// PrefillFlow names one flow whose identity prefilled packets carry, so CE
// feedback on them reaches a live sender.
type PrefillFlow struct {
	Flow, Src, Dst int
}

// Prefill fills the port's egress queue to w.QueueBytes with MTU-sized data
// segments round-robined across flows, so the queue — and therefore the
// marking probability and queueing delay — starts at the analytic fixed
// point. It returns the bytes actually injected (less than w.QueueBytes
// only if a finite queue capacity tail-dropped the fill).
func (w *WarmStart) Prefill(port *netsim.Port, flows []PrefillFlow) int {
	if len(flows) == 0 || w.QueueBytes < MTU {
		return 0
	}
	filled := 0
	for i := 0; filled+MTU <= w.QueueBytes; i++ {
		f := flows[i%len(flows)]
		if !port.PrefillQueue(f.Flow, f.Src, f.Dst, MTU) {
			break
		}
		filled += MTU
	}
	return filled
}
