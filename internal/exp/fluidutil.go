package exp

import (
	"ecndelay/internal/fluid"
	"ecndelay/internal/stats"
)

// lateStats summarises one state component of a fluid trajectory over the
// tail window t >= tFrom.
func lateStats(samples []fluid.Sample, idx int, tFrom float64) stats.Summary {
	return stats.Summarize(fluid.Tail(samples, idx, tFrom))
}

// runDCQCNFluid integrates the DCQCN fluid model and summarises the tail.
func runDCQCNFluid(n int, tauStar, horizon float64, jitter float64, seed int64) (q stats.Summary, r0 stats.Summary, err error) {
	p := fluid.DefaultDCQCNParams(n)
	p.TauStar = tauStar
	sys, err := fluid.NewDCQCN(fluid.DCQCNConfig{Params: p, JitterMax: jitter, Seed: seed})
	if err != nil {
		return stats.Summary{}, stats.Summary{}, err
	}
	q, r0 = dcqcnTail(sys, horizon)
	return q, r0, nil
}

// dcqcnTail runs a DCQCN fluid system to horizon and summarises the queue
// and flow 0's rate over the last 40% of the run.
func dcqcnTail(sys *fluid.DCQCNSystem, horizon float64) (q, r0 stats.Summary) {
	sm := fluid.Run(sys, 1e-6, horizon, 1e-4)
	tail := horizon * 0.6
	return lateStats(sm, sys.QIndex(), tail), lateStats(sm, sys.RCIndex(0), tail)
}
