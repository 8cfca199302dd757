package hybrid

import (
	"fmt"
	"io"

	"ecndelay/internal/des"
	"ecndelay/internal/fixedpoint"
	"ecndelay/internal/fluid"
	"ecndelay/internal/netsim"
	"ecndelay/internal/obs"
	"ecndelay/internal/stats"
)

// Tolerance bounds the fluid↔packet disagreement a cross-validation run
// accepts, all as relative errors. The defaults are documented in
// DESIGN.md ("Hybrid fluid↔packet coupling"): the fluid model tracks the
// analytic fixed point tightly, while the packet layer adds burst noise,
// CNP/ack quantisation and timer discretisation around it.
type Tolerance struct {
	FluidVsFP  float64 // fluid tail queue mean vs analytic q*
	QueueMean  float64 // packet vs fluid tail queue mean
	QueueP50   float64 // packet vs fluid tail queue median
	FixedPoint float64 // packet tail queue mean vs analytic q*
	Rate       float64 // packet mean per-flow rate vs analytic fair share
}

// DefaultTolerance returns the bounds the CI gate enforces. Measured
// headroom at the canonical operating points (fixed seeds): the worst
// packet-vs-fluid queue mean is ~0.32 (DCQCN N=2, whose small q* ≈ 20 KB
// makes the packet layer's non-negativity bias largest), the worst median
// ~0.24, and rates agree to <0.1%. A mistuned run (e.g. the packet RED
// profile 4× off) lands far outside every queue bound.
func DefaultTolerance() Tolerance {
	return Tolerance{
		FluidVsFP:  0.05,
		QueueMean:  0.40,
		QueueP50:   0.35,
		FixedPoint: 0.40,
		Rate:       0.05,
	}
}

// OpPoint names one canonical cross-validation operating point.
type OpPoint struct {
	Proto   string // "dcqcn" or "timely"
	N       int
	Horizon float64
}

// CIOperatingPoints returns the operating points the crossval CI gate
// covers: two per protocol. Horizons are long enough for the fluid tail to
// settle onto its fixed point (DCQCN N=2 converges slowest).
func CIOperatingPoints() []OpPoint {
	return []OpPoint{
		{Proto: "dcqcn", N: 2, Horizon: 0.1},
		{Proto: "dcqcn", N: 10, Horizon: 0.1},
		{Proto: "timely", N: 2, Horizon: 0.25},
		{Proto: "timely", N: 4, Horizon: 0.25},
	}
}

// RunOp cross-validates one operating point with the default tolerances.
// A non-nil ob is attached to the packet network before it is built, as
// in DCQCNScenario.Star.
func RunOp(op OpPoint, seed int64, ob *obs.NetObserver) (Result, error) {
	switch op.Proto {
	case "dcqcn":
		return NewDCQCNScenario(op.N, seed).crossVal(op.Horizon, ob)
	case "timely":
		return NewTimelyScenario(op.N, seed).crossVal(op.Horizon, ob)
	}
	return Result{}, fmt.Errorf("hybrid: unknown protocol %q", op.Proto)
}

// Check is one scalar agreement test: an oracle value, a measurement, and
// the relative tolerance that separates pass from fail.
type Check struct {
	Name      string
	Want, Got float64
	Tol       float64
}

// RelErr is |got-want| / max(|want|, ε).
func (c Check) RelErr() float64 { return relErr(c.Got, c.Want) }

// OK reports whether the measurement is inside the tolerance.
func (c Check) OK() bool { return c.RelErr() <= c.Tol }

// TrajPoint is one instant of the matched queue trajectories, in KB.
type TrajPoint struct {
	T        float64
	FluidKB  float64
	PacketKB float64
}

// Result is the outcome of cross-validating one operating point.
type Result struct {
	Name   string
	Checks []Check
	// Traj is the fluid and packet queue trajectory on a shared 1 ms
	// grid, for reports and golden fixtures.
	Traj []TrajPoint
}

// Failures returns the checks outside tolerance.
func (r Result) Failures() []Check {
	var out []Check
	for _, c := range r.Checks {
		if !c.OK() {
			out = append(out, c)
		}
	}
	return out
}

// Err summarises the failures, or nil if every check passed.
func (r Result) Err() error {
	fails := r.Failures()
	if len(fails) == 0 {
		return nil
	}
	msg := fmt.Sprintf("crossval %s: %d/%d checks failed:", r.Name, len(fails), len(r.Checks))
	for _, c := range fails {
		msg += fmt.Sprintf(" [%s want %.6g got %.6g rel %.3f > tol %.3f]",
			c.Name, c.Want, c.Got, c.RelErr(), c.Tol)
	}
	return fmt.Errorf("%s", msg)
}

// Render writes the result in a deterministic text form — the golden
// fixture format under internal/hybrid/testdata.
func (r Result) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# crossval %s\n", r.Name); err != nil {
		return err
	}
	for _, c := range r.Checks {
		if _, err := fmt.Fprintf(w, "check %s want=%.6g got=%.6g rel=%.4f tol=%.3f ok=%t\n",
			c.Name, c.Want, c.Got, c.RelErr(), c.Tol, c.OK()); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "traj t_s fluid_kb packet_kb\n"); err != nil {
		return err
	}
	for _, p := range r.Traj {
		if _, err := fmt.Fprintf(w, "%.4f %.3f %.3f\n", p.T, p.FluidKB, p.PacketKB); err != nil {
			return err
		}
	}
	return nil
}

// trajGrid pairs fluid samples with the packet queue series on a 1 ms grid.
// Fluid samples land on exact multiples of the sample stride; the packet
// series is step-interpolated to the same instants.
func trajGrid(sm []fluid.Sample, qIdx int, scaleKB float64, qs *stats.Series, horizon float64) []TrajPoint {
	var out []TrajPoint
	pi := 0
	for _, s := range sm {
		// Keep ~1 ms resolution regardless of the fluid sample stride.
		if len(out) > 0 && s.T < out[len(out)-1].T+1e-3-1e-9 {
			continue
		}
		if s.T > horizon+1e-9 {
			break
		}
		for pi+1 < len(qs.T) && qs.T[pi+1] <= s.T+1e-9 {
			pi++
		}
		pkt := 0.0
		if len(qs.V) > 0 && qs.T[pi] <= s.T+1e-9 {
			pkt = qs.V[pi] / 1000
		}
		out = append(out, TrajPoint{T: s.T, FluidKB: s.Y[qIdx] * scaleKB, PacketKB: pkt})
	}
	return out
}

func tailVals(sm []fluid.Sample, idx int, tFrom float64) []float64 {
	var vals []float64
	for _, s := range sm {
		if s.T >= tFrom {
			vals = append(vals, s.Y[idx])
		}
	}
	return vals
}

func median(vals []float64) float64 {
	m, err := stats.Percentile(vals, 50)
	if err != nil {
		return 0
	}
	return m
}

// crossVal runs the matched fluid and packet realisations of sc over the
// horizon and checks their queue trajectories and rates against each other
// and against the Theorem 1 fixed point. The returned Result carries every
// check (use Err for the verdict) and the shared trajectory.
func (sc DCQCNScenario) crossVal(horizon float64, ob *obs.NetObserver) (Result, error) {
	fp, err := fixedpoint.SolveDCQCN(sc.Par)
	if err != nil {
		return Result{}, err
	}
	sys, err := sc.Fluid(nil)
	if err != nil {
		return Result{}, err
	}
	sm := fluid.Run(sys, 1e-6, horizon, 1e-4)
	nw, star, senders, err := sc.Star(ob, nil)
	if err != nil {
		return Result{}, err
	}
	// The fluid queue counts packets of MTU bytes: one per KB.
	return compare(fmt.Sprintf("dcqcn_n%d", sc.Par.N), sm, sys.QIndex(), 1, fp.Q, fp.RC*MTU,
		nw, star, senders, horizon), nil
}

// crossVal runs the matched fluid and packet realisations of the
// patched-TIMELY scenario and checks them against each other and the Eq. 31
// fixed point.
func (sc TimelyScenario) crossVal(horizon float64, ob *obs.NetObserver) (Result, error) {
	sys, err := fluid.NewPatchedTimely(sc.Cfg)
	if err != nil {
		return Result{}, err
	}
	qStar := sys.FixedPointQueue() // bytes
	sm := fluid.Run(sys, 1e-6, horizon, 1e-4)
	nw, star, senders, err := sc.Star(ob, nil)
	if err != nil {
		return Result{}, err
	}
	return compare(fmt.Sprintf("timely_n%d", sc.Cfg.N), sm, sys.QIndex(), 1000, qStar, sc.Cfg.C/float64(sc.Cfg.N),
		nw, star, senders, horizon), nil
}

// compare is the one fluid↔packet comparison under both protocols. It
// samples the packet star's bottleneck queue and mean sender rate every
// 100 µs, runs the network to the horizon and checks the tail (the last
// 40%) of both layers against each other, against the fixed-point queue
// qStar and against the fair share fair (bytes/s), within
// DefaultTolerance. Fluid queue values, qStar included, count perKB units
// per KB.
func compare[S interface{ Rate() float64 }](name string, sm []fluid.Sample, qIdx int, perKB, qStar, fair float64,
	nw *netsim.Network, star *netsim.Star, senders []S, horizon float64) Result {
	tol := DefaultTolerance()
	qs := netsim.MonitorQueueBytes(nw.Sim, star.Bottleneck, 100*des.Microsecond)
	rs := &stats.Series{}
	nw.Sim.Every(0, 100*des.Microsecond, func() {
		sum := 0.0
		for _, s := range senders {
			sum += s.Rate()
		}
		rs.Add(nw.Sim.Now().Seconds(), sum/float64(len(senders)))
	})
	nw.RunUntil(des.Time(des.DurationFromSeconds(horizon)))

	tail := horizon * 0.6
	fq := tailVals(sm, qIdx, tail)
	fqMeanKB := stats.Summarize(fq).Mean / perKB
	pq := qs.Window(tail, horizon)
	pqMeanKB := stats.Summarize(pq).Mean / 1000
	return Result{
		Name: name,
		Checks: []Check{
			{Name: "fluid_q_vs_fixed_point", Want: qStar / perKB, Got: fqMeanKB, Tol: tol.FluidVsFP},
			{Name: "packet_q_vs_fluid", Want: fqMeanKB, Got: pqMeanKB, Tol: tol.QueueMean},
			{Name: "packet_q_p50_vs_fluid", Want: median(fq) / perKB, Got: median(pq) / 1000, Tol: tol.QueueP50},
			{Name: "packet_q_vs_fixed_point", Want: qStar / perKB, Got: pqMeanKB, Tol: tol.FixedPoint},
			{Name: "packet_rate_vs_fair_share", Want: fair, Got: stats.Summarize(rs.Window(tail, horizon)).Mean, Tol: tol.Rate},
		},
		Traj: trajGrid(sm, qIdx, 1/perKB, qs, horizon),
	}
}
