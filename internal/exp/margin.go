package exp

import (
	"ecndelay/internal/fixedpoint"
	"ecndelay/internal/fluid"
	"ecndelay/internal/stability"
)

// The phase-margin cells behind Figures 3 and 11. Each returns the
// metrics of one sweep row, so fig3, fig11, cmd/phasemargin and the sweep
// command's pm grid all compute a cell the same way.

// DCQCNMargin is one Figure 3 cell: the Bode phase margin of the
// linearised DCQCN loop at p. Its metrics are pm_deg, crossover_rad_s and
// stable (1 or 0).
func DCQCNMargin(p fixedpoint.DCQCNParams) (map[string]float64, error) {
	loop, err := fluid.NewDCQCNLoop(p)
	if err != nil {
		return nil, err
	}
	res, err := stability.PhaseMargin(loop)
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"pm_deg":          res.PhaseMarginDeg,
		"crossover_rad_s": res.CrossoverRadPerSec,
		"stable":          boolMetric(res.Stable),
	}, nil
}

// PatchedMargin is one Figure 11 cell: the phase margin of the linearised
// patched-TIMELY loop at n flows. Its metrics are pm_deg, q_star_kb (the
// Eq. 31 queue) and stable (1 or 0).
func PatchedMargin(n int) (map[string]float64, error) {
	loop, err := fluid.NewPatchedTimelyLoop(fluid.DefaultPatchedTimelyConfig(n))
	if err != nil {
		return nil, err
	}
	res, err := stability.PhaseMargin(loop)
	if err != nil {
		return nil, err
	}
	_, qStar, err := loop.Equilibrium()
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"pm_deg":    res.PhaseMarginDeg,
		"q_star_kb": qStar / 1000,
		"stable":    boolMetric(res.Stable),
	}, nil
}

func boolMetric(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
