// Package report is the whole of the runreport command. It reads a run's
// exports through internal/obs's readers and prints two sections:
//
//   - the control loop, from an audit export: every DCQCN rate cut
//     attributed to the mark episode that caused it, the feedback-latency
//     legs, each flow's rate oscillation (and the queue's, from the run's
//     probe export), and the fluid model linearised at the operating
//     point the audit header records, its predicted oscillation period
//     set beside the measured ones;
//   - the latency histograms, from a histogram export: every percentile
//     compared against a baseline export.
//
// Each section opens with one line per file it reads, naming the file
// and the run its export header records (seed, protocol, flags), or
// "(no header)". Each section carries a CI gate: -require-attributed
// fails on an unattributed rate cut, and -base fails on a percentile more
// than 5% above the baseline or a baseline histogram the run lacks.
package report

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"

	"ecndelay/internal/fixedpoint"
	"ecndelay/internal/fluid"
	"ecndelay/internal/hybrid"
	"ecndelay/internal/obs"
	"ecndelay/internal/stability"
	"ecndelay/internal/stats"
)

// threshold is the percentile gate's tolerance: a relative increase over
// the baseline beyond it is a regression.
const threshold = 0.05

// Run is the whole command. It reads every input and writes the -rates
// file before it prints a line, so a refused or unreadable run prints
// nothing on stdout. It exits 2 with one runreport: line on a usage error
// or an unreadable input, 1 with one stderr line per failed gate, and 0
// otherwise.
func Run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("runreport", flag.ContinueOnError)
	fs.SetOutput(stderr)
	auditPath := fs.String("audit", "", "control-loop audit JSONL export to analyse")
	probePath := fs.String("probe", "", "the run's probe JSONL export: its first queue_bytes series feeds the queue oscillation analysis (needs -audit)")
	ratesPath := fs.String("rates", "", "write per-flow rate-timeline JSONL to this file (needs -audit)")
	requireAttr := fs.Bool("require-attributed", false, "exit 1 if any rate cut lacks a mark episode (needs -audit)")
	histPath := fs.String("hist", "", "histogram JSONL export to compare against -base")
	basePath := fs.String("base", "", "baseline histogram JSONL export for -hist")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	refuse := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "runreport: "+format+"\n", a...)
		return 2
	}

	noAudit := *auditPath == ""
	switch {
	case fs.NArg() > 0:
		return refuse("unexpected argument %q", fs.Arg(0))
	case noAudit && *histPath == "":
		return refuse("need -audit, -hist or both")
	case noAudit && *probePath != "":
		return refuse("-probe needs -audit")
	case noAudit && *ratesPath != "":
		return refuse("-rates needs -audit")
	case noAudit && *requireAttr:
		return refuse("-require-attributed needs -audit")
	case (*histPath == "") != (*basePath == ""):
		return refuse("-hist and -base must be given together")
	}

	// Each section reads its inputs and prints into out; out reaches
	// stdout only once every input has been read.
	var out bytes.Buffer
	var failed []string
	if !noAudit {
		att, err := loopSection(&out, *auditPath, *probePath, *ratesPath)
		if err != nil {
			return refuse("%v", err)
		}
		if *requireAttr && att.Attributed != att.Cuts {
			failed = append(failed, fmt.Sprintf("%d of %d rate cuts unattributed", att.Cuts-att.Attributed, att.Cuts))
		}
	}
	if *histPath != "" {
		if !noAudit {
			out.WriteByte('\n')
		}
		n, err := histSection(&out, *histPath, *basePath)
		if err != nil {
			return refuse("%v", err)
		}
		if n > 0 {
			failed = append(failed, fmt.Sprintf("%d regression(s) beyond %+.1f%%", n, threshold*100))
		}
	}
	if _, err := out.WriteTo(stdout); err != nil {
		return refuse("%v", err)
	}
	for _, msg := range failed {
		fmt.Fprintln(stderr, "runreport: "+msg)
	}
	if len(failed) > 0 {
		return 1
	}
	return 0
}

// loopSection reads the audit export at auditPath (and the probe export at
// probePath, when given), writes the rate timelines to ratesPath (when
// given) and prints the control-loop section to w. It returns the audit's
// attribution for the gate, or the error of an input it could not read or
// an audit without decisions.
func loopSection(w io.Writer, auditPath, probePath, ratesPath string) (obs.Attribution, error) {
	hdr, decs, err := obs.ReadAudit(auditPath)
	if err != nil {
		return obs.Attribution{}, err
	}
	if len(decs) == 0 {
		return obs.Attribution{}, fmt.Errorf("%s holds no decision records", auditPath)
	}
	var queueName string
	var queueTs, queueVs []float64
	var probeHdr *obs.Header
	if probePath != "" {
		probeHdr, err = obs.ReadProbes(probePath, func(name string, samples []obs.Sample, _ int64) {
			if queueName != "" || len(samples) == 0 || !strings.Contains(name, "queue_bytes") {
				return
			}
			queueName = name
			for _, s := range samples {
				queueTs = append(queueTs, s.T)
				queueVs = append(queueVs, s.V)
			}
		})
		if err != nil {
			return obs.Attribution{}, err
		}
	}
	tls := timelines(decs)
	if ratesPath != "" {
		if err := writeRates(ratesPath, tls); err != nil {
			return obs.Attribution{}, err
		}
	}

	headerLine(w, "audit", auditPath, hdr)
	if probePath != "" {
		headerLine(w, "probe", probePath, probeHdr)
	}
	fmt.Fprintf(w, "%d decisions over %.6fs\n", len(decs), decs[len(decs)-1].T.Sub(decs[0].T).Seconds())

	att := obs.Attribute(decs)
	fmt.Fprintf(w, "\nattribution: %d rate cuts, %d attributed, %d unattributed; %d mark episodes, %d orphaned\n",
		att.Cuts, att.Attributed, att.Cuts-att.Attributed, att.Episodes, att.Orphans)
	if len(att.MarkCut) > 0 {
		p50, _ := stats.Percentile(att.MarkCut, 50) // errs only on an empty set
		p99, _ := stats.Percentile(att.MarkCut, 99)
		fmt.Fprintf(w, "mark→rate-cut latency: p50 %.1fµs p99 %.1fµs (%d attributed cuts)\n",
			p50*1e6, p99*1e6, len(att.MarkCut))
	}
	if len(att.OpenCut) > 0 {
		p50, _ := stats.Percentile(att.OpenCut, 50)
		p99, _ := stats.Percentile(att.OpenCut, 99)
		fmt.Fprintf(w, "episode-open→first-cut latency: p50 %.1fµs p99 %.1fµs (%d episodes with cuts)\n",
			p50*1e6, p99*1e6, len(att.OpenCut))
	}

	fmt.Fprintf(w, "\nrate timelines: %d flows\n", len(tls))
	var periods, amps []float64
	for _, tl := range tls {
		o := oscillation(tl.ts, tl.vs)
		fmt.Fprintf(w, "  n%d flow %d: %d rate changes, %.1f→%.1f Mb/s",
			tl.node, tl.flow, len(tl.vs), tl.vs[0]*8/1e6, tl.vs[len(tl.vs)-1]*8/1e6)
		if o.cycles >= 2 {
			fmt.Fprintf(w, "; oscillating: amplitude %.1f Mb/s, period %.1fµs over %d cycles",
				o.amp*8/1e6, o.period*1e6, o.cycles)
			periods = append(periods, o.period)
			amps = append(amps, o.amp)
		}
		fmt.Fprintln(w)
	}
	var ratePeriod float64
	if len(periods) > 0 {
		ratePeriod = mean(periods)
		fmt.Fprintf(w, "rate oscillation: mean period %.1fµs, mean amplitude %.1f Mb/s across %d oscillating flows\n",
			ratePeriod*1e6, mean(amps)*8/1e6, len(periods))
	}

	var queuePeriod float64
	if queueName != "" {
		o := oscillation(queueTs, queueVs)
		fmt.Fprintf(w, "\nqueue series %q: %d samples", queueName, len(queueTs))
		if o.cycles >= 2 {
			queuePeriod = o.period
			fmt.Fprintf(w, "; oscillating: amplitude %.1f KB, period %.1fµs over %d cycles",
				o.amp/1e3, o.period*1e6, o.cycles)
		}
		fmt.Fprintln(w)
	}

	if hdr != nil && hdr.Op != nil {
		// τ* is the measured feedback delay when any cut measured one, else
		// the recorded point's own.
		p := *hdr.Op
		if len(att.MarkCut) > 0 {
			if d, _ := stats.Percentile(att.MarkCut, 50); d > 0 {
				p.TauStar = d
			}
		}
		fluidCompare(w, p, ratePeriod, queuePeriod)
	}

	if ratesPath != "" {
		fmt.Fprintf(w, "\nwrote %d rate timelines to %s\n", len(tls), ratesPath)
	}
	return att, nil
}

// changesRate reports whether a decision sets a sender's rate; its
// NewRate is then the post-decision rate.
func changesRate(t obs.DecisionType) bool {
	switch t {
	case obs.DecRateCut, obs.DecFastRecovery, obs.DecAdditiveInc, obs.DecHyperInc,
		obs.DecTimelyAdd, obs.DecTimelyMD, obs.DecTimelyBrake, obs.DecTimelyPatched:
		return true
	}
	return false
}

type timeline struct {
	node, flow int32
	ts, vs     []float64 // seconds, bytes/s after each rate decision
}

// timelines reconstructs each flow's rate trajectory from its rate
// decisions, in (node, flow) order.
func timelines(decs []obs.Decision) []*timeline {
	byKey := make(map[[2]int32]*timeline)
	var order [][2]int32
	for _, d := range decs {
		if !changesRate(d.Type) {
			continue
		}
		k := [2]int32{d.Node, d.Flow}
		tl := byKey[k]
		if tl == nil {
			tl = &timeline{node: d.Node, flow: d.Flow}
			byKey[k] = tl
			order = append(order, k)
		}
		tl.ts = append(tl.ts, d.T.Seconds())
		tl.vs = append(tl.vs, d.NewRate)
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i][0] != order[j][0] {
			return order[i][0] < order[j][0]
		}
		return order[i][1] < order[j][1]
	})
	out := make([]*timeline, 0, len(order))
	for _, k := range order {
		out = append(out, byKey[k])
	}
	return out
}

type oscStats struct {
	amp    float64 // mean peak-to-trough swing
	period float64 // mean peak-to-peak spacing, seconds
	cycles int     // confirmed peaks
}

// oscillation runs hysteresis-based peak/trough detection (zigzag with a
// band of 10% of the signal range): an extremum only counts once the
// signal retraces by more than the band, so sample noise within the band
// never fabricates cycles.
func oscillation(ts, vs []float64) oscStats {
	if len(vs) < 3 {
		return oscStats{}
	}
	lo, hi := vs[0], vs[0]
	for _, v := range vs {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	h := 0.1 * (hi - lo)
	if h <= 0 {
		return oscStats{}
	}
	dir := 0 // 0 unknown, 1 rising (hunting a peak), -1 falling
	maxV, maxT := vs[0], ts[0]
	minV := vs[0]
	var peakT, peakV, troughV []float64
	for i := 1; i < len(vs); i++ {
		t, v := ts[i], vs[i]
		if v > maxV {
			maxV, maxT = v, t
		}
		if v < minV {
			minV = v
		}
		switch {
		case dir >= 0 && maxV-v > h:
			peakT = append(peakT, maxT)
			peakV = append(peakV, maxV)
			dir = -1
			minV = v
		case dir <= 0 && v-minV > h:
			if dir == -1 {
				troughV = append(troughV, minV)
			}
			dir = 1
			maxV, maxT = v, t
		}
	}
	st := oscStats{cycles: len(peakT)}
	if len(peakT) >= 2 {
		var gaps []float64
		for i := 1; i < len(peakT); i++ {
			gaps = append(gaps, peakT[i]-peakT[i-1])
		}
		st.period = mean(gaps)
	}
	if len(peakV) > 0 && len(troughV) > 0 {
		st.amp = mean(peakV) - mean(troughV)
	}
	return st
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// fluidCompare linearises the DCQCN fluid model at the run's operating
// point p and compares its predicted oscillation period (2π over the gain
// crossover frequency) with the measured rate and queue periods. A point
// the model cannot linearise gets one line saying why: the run recorded
// its point, but no flag asked for the comparison, so it fails no gate.
func fluidCompare(w io.Writer, p fixedpoint.DCQCNParams, ratePeriod, queuePeriod float64) {
	fmt.Fprintf(w, "\nfluid model (n=%d, C=%.2g B/s, τ*=%.1fµs): ", p.N, p.C*hybrid.MTU, p.TauStar*1e6)
	var res stability.Result
	loop, err := fluid.NewDCQCNLoop(p)
	if err == nil {
		res, err = stability.PhaseMargin(loop)
	}
	if err != nil {
		fmt.Fprintf(w, "not linearisable at the recorded point: %v\n", err)
		return
	}
	fmt.Fprintf(w, "phase margin %.1f°", res.PhaseMarginDeg)
	if res.CrossoverRadPerSec <= 0 {
		fmt.Fprintf(w, ", no gain crossover — loop predicted unconditionally stable, no oscillation period to compare\n")
		return
	}
	pred := 2 * math.Pi / res.CrossoverRadPerSec
	fmt.Fprintf(w, ", crossover %.3g rad/s → predicted period %.1fµs\n", res.CrossoverRadPerSec, pred*1e6)
	for _, m := range []struct {
		name   string
		period float64
	}{{"rate", ratePeriod}, {"queue", queuePeriod}} {
		if m.period > 0 {
			fmt.Fprintf(w, "  measured %s period %.1fµs = %.2f× predicted\n",
				m.name, m.period*1e6, m.period/pred)
		}
	}
	fmt.Fprintf(w, "  measured feedback delay feeds τ*: predicted period scales with it (Figure 4's lesson)\n")
}

// writeRates exports the per-flow rate timelines as JSONL, one record per
// rate decision, flows in (node, flow) order, floats in the shortest
// round-trip form — byte-stable for identical audits.
func writeRates(path string, tls []*timeline) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	for _, tl := range tls {
		for i := range tl.ts {
			fmt.Fprintf(bw, "{\"node\":%d,\"flow\":%d,\"t\":%v,\"rate\":%v}\n", tl.node, tl.flow, tl.ts[i], tl.vs[i])
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// histSection reads the histogram exports at histPath and basePath and
// writes one row per baseline histogram percentile to w. It returns the
// number of regressions — a percentile more than threshold above its
// baseline, or a baseline histogram the candidate lacks (one each) — or
// the error of an input it could not read or a baseline without
// histograms. Histograms only in the candidate are noted and never fail.
func histSection(w io.Writer, histPath, basePath string) (int, error) {
	candHdr, cand, err := obs.ReadHists(histPath)
	if err != nil {
		return 0, err
	}
	baseHdr, base, err := obs.ReadHists(basePath)
	if err != nil {
		return 0, err
	}
	if len(base) == 0 {
		return 0, fmt.Errorf("%s holds no histograms", basePath)
	}
	headerLine(w, "hist", histPath, candHdr)
	headerLine(w, "base", basePath, baseHdr)
	baseBy, candBy := byName(base), byName(cand)
	names := make([]string, 0, len(baseBy))
	for name := range baseBy {
		names = append(names, name)
	}
	sort.Strings(names)
	regressions := 0
	for _, name := range names {
		b := baseBy[name]
		n, ok := candBy[name]
		if !ok {
			fmt.Fprintf(w, "MISSING    %s: in baseline only\n", name)
			regressions++
			continue
		}
		for i, label := range obs.HistQuantileLabels {
			bv, nv := b.Quantiles[i], n.Quantiles[i]
			delta := relDelta(bv, nv)
			verdict := "ok"
			if delta > threshold {
				verdict = "REGRESSION"
				regressions++
			}
			fmt.Fprintf(w, "%-10s %s %s: %.6g -> %.6g (%+.1f%%)\n",
				verdict, name, label, bv, nv, delta*100)
		}
		if b.Count != n.Count {
			fmt.Fprintf(w, "note       %s: sample count %d -> %d\n", name, b.Count, n.Count)
		}
	}
	var added []string
	for name := range candBy {
		if _, ok := baseBy[name]; !ok {
			added = append(added, name)
		}
	}
	sort.Strings(added)
	for _, name := range added {
		fmt.Fprintf(w, "note       %s: new histogram, no baseline\n", name)
	}
	return regressions, nil
}

// headerLine prints one line naming an input file, under its role in the
// report, and the run its header records.
func headerLine(w io.Writer, role, path string, h *obs.Header) {
	if h == nil {
		fmt.Fprintf(w, "%s %s (no header)\n", role, path)
		return
	}
	fmt.Fprintf(w, "%s %s v%d seed=%d proto=%s", role, path, h.Version, h.Seed, h.Proto)
	if h.Flags != "" {
		fmt.Fprintf(w, " flags=%q", h.Flags)
	}
	fmt.Fprintln(w)
}

// byName indexes summaries by name; a later row of a name replaces an
// earlier one.
func byName(rows []obs.HistSummary) map[string]obs.HistSummary {
	m := make(map[string]obs.HistSummary, len(rows))
	for _, r := range rows {
		m[r.Name] = r
	}
	return m
}

// relDelta reports the relative increase from base to cand. A zero
// baseline regresses only if the candidate is positive: latency
// percentiles are non-negative, so going from 0 to anything is growth
// no finite threshold should excuse.
func relDelta(base, cand float64) float64 {
	if base == 0 {
		if cand > 0 {
			return 1e18 // effectively +inf: trips any finite threshold
		}
		return 0
	}
	return (cand - base) / base
}
