// Command ccreport analyses a control-loop audit JSONL export (packetsim
// -audit, sweep -audit, or an AuditJSONLSink written directly): it
// reconstructs per-flow rate timelines, checks that every DCQCN rate cut
// is attributed to the mark episode that caused it, summarises the
// feedback-latency legs, detects oscillation episodes (amplitude and
// period of the sending rate, and of the queue when a probe export is
// given), and — when asked — compares the measured oscillation period
// and feedback delay against the fluid-model prediction at the same
// operating point.
//
//	ccreport -audit audit.jsonl
//	ccreport -audit audit.jsonl -probe probes.jsonl -rates rates.jsonl
//	ccreport -audit audit.jsonl -fluid-n 10 -fluid-bw 5e9 -fluid-kmin 50000
//	ccreport -audit audit.jsonl -require-attributed   # CI gate
//
// Exit status: 0 on success, 1 when -require-attributed finds an
// unattributed rate cut, 2 on bad usage or unreadable input.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"ecndelay/internal/fluid"
	"ecndelay/internal/hybrid"
	"ecndelay/internal/stability"
	"ecndelay/internal/stats"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// rec is one audit JSONL record (the header line and foreign records are
// skipped by Dec == "").
type rec struct {
	TNs    int64   `json:"t_ns"`
	Dec    string  `json:"dec"`
	Node   int32   `json:"node"`
	Peer   int32   `json:"peer"`
	Flow   int32   `json:"flow"`
	Seq    uint64  `json:"seq"`
	Ep     uint64  `json:"ep"`
	Old    float64 `json:"old"`
	New    float64 `json:"new"`
	Tgt    float64 `json:"tgt"`
	Alpha  float64 `json:"alpha"`
	RTT    float64 `json:"rtt"`
	Grad   float64 `json:"grad"`
	QBytes int64   `json:"qbytes"`
}

// header is the self-describing first record of an export.
type header struct {
	Schema string `json:"schema"`
	V      int    `json:"v"`
	Seed   int64  `json:"seed"`
	Proto  string `json:"proto"`
	Flags  string `json:"flags"`
}

// rateDecs are the decision types that change a sender's rate; their
// New field is the post-decision rate.
var rateDecs = map[string]bool{
	"cut": true, "fr": true, "ai": true, "hai": true,
	"tadd": true, "tmd": true, "tbrake": true, "tpatched": true,
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ccreport", flag.ContinueOnError)
	fs.SetOutput(stderr)
	auditPath := fs.String("audit", "", "audit JSONL export to analyse (required)")
	probePath := fs.String("probe", "", "probe JSONL export; queue_bytes series feed the queue oscillation analysis")
	ratesPath := fs.String("rates", "", "write per-flow rate-timeline JSONL here")
	requireAttr := fs.Bool("require-attributed", false, "exit 1 if any rate cut lacks a mark episode")
	fluidN := fs.Int("fluid-n", 0, "compare against the fluid model for this many flows (0: skip)")
	fluidBW := fs.Float64("fluid-bw", 5e9, "fluid model: bottleneck bandwidth, bytes/s")
	fluidDelay := fs.Float64("fluid-delay", 0, "fluid model: feedback delay τ* seconds (0: use measured p50 mark→cut)")
	fluidKmin := fs.Float64("fluid-kmin", 50000, "fluid model: RED Kmin, bytes")
	fluidKmax := fs.Float64("fluid-kmax", 200000, "fluid model: RED Kmax, bytes")
	fluidPmax := fs.Float64("fluid-pmax", 0.01, "fluid model: RED Pmax")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *auditPath == "" {
		fmt.Fprintln(stderr, "ccreport: -audit is required")
		fs.Usage()
		return 2
	}

	hdr, recs, err := readAudit(*auditPath)
	if err != nil {
		fmt.Fprintf(stderr, "ccreport: %v\n", err)
		return 2
	}
	if hdr != nil {
		fmt.Fprintf(stdout, "audit %s v%d seed=%d proto=%s", *auditPath, hdr.V, hdr.Seed, hdr.Proto)
		if hdr.Flags != "" {
			fmt.Fprintf(stdout, " flags=%q", hdr.Flags)
		}
		fmt.Fprintln(stdout)
	} else {
		fmt.Fprintf(stdout, "audit %s (no header)\n", *auditPath)
	}
	if len(recs) == 0 {
		fmt.Fprintln(stderr, "ccreport: audit export holds no decision records")
		return 2
	}
	fmt.Fprintf(stdout, "%d decisions over %.6fs\n", len(recs),
		float64(recs[len(recs)-1].TNs-recs[0].TNs)/1e9)

	att := attribution(recs)
	fmt.Fprintf(stdout, "\nattribution: %d rate cuts, %d attributed, %d unattributed; %d mark episodes, %d orphaned\n",
		att.cuts, att.attributed, att.cuts-att.attributed, att.episodes, att.orphans)
	if len(att.markCut) > 0 {
		p50, _ := stats.Percentile(att.markCut, 50)
		p99, _ := stats.Percentile(att.markCut, 99)
		fmt.Fprintf(stdout, "mark→rate-cut latency: p50 %.1fµs p99 %.1fµs (%d attributed cuts)\n",
			p50*1e6, p99*1e6, len(att.markCut))
	}
	if len(att.openCut) > 0 {
		p50, _ := stats.Percentile(att.openCut, 50)
		p99, _ := stats.Percentile(att.openCut, 99)
		fmt.Fprintf(stdout, "episode-open→first-cut latency: p50 %.1fµs p99 %.1fµs (%d episodes with cuts)\n",
			p50*1e6, p99*1e6, len(att.openCut))
	}

	tls := timelines(recs)
	fmt.Fprintf(stdout, "\nrate timelines: %d flows\n", len(tls))
	var periods, amps []float64
	for _, tl := range tls {
		o := oscillation(tl.ts, tl.vs)
		fmt.Fprintf(stdout, "  n%d flow %d: %d rate changes, %.1f→%.1f Mb/s",
			tl.node, tl.flow, len(tl.vs), tl.vs[0]*8/1e6, tl.vs[len(tl.vs)-1]*8/1e6)
		if o.cycles >= 2 {
			fmt.Fprintf(stdout, "; oscillating: amplitude %.1f Mb/s, period %.1fµs over %d cycles",
				o.amp*8/1e6, o.period*1e6, o.cycles)
			periods = append(periods, o.period)
			amps = append(amps, o.amp)
		}
		fmt.Fprintln(stdout)
	}
	var ratePeriod float64
	if len(periods) > 0 {
		ratePeriod = mean(periods)
		fmt.Fprintf(stdout, "rate oscillation: mean period %.1fµs, mean amplitude %.1f Mb/s across %d oscillating flows\n",
			ratePeriod*1e6, mean(amps)*8/1e6, len(periods))
	}

	var queuePeriod float64
	if *probePath != "" {
		qts, qvs, name, err := readQueueProbe(*probePath)
		if err != nil {
			fmt.Fprintf(stderr, "ccreport: %v\n", err)
			return 2
		}
		if len(qts) > 0 {
			o := oscillation(qts, qvs)
			fmt.Fprintf(stdout, "\nqueue series %q: %d samples", name, len(qts))
			if o.cycles >= 2 {
				queuePeriod = o.period
				fmt.Fprintf(stdout, "; oscillating: amplitude %.1f KB, period %.1fµs over %d cycles",
					o.amp/1e3, o.period*1e6, o.cycles)
			}
			fmt.Fprintln(stdout)
		}
	}

	if *fluidN > 0 {
		delay := *fluidDelay
		if delay == 0 && len(att.markCut) > 0 {
			delay, _ = stats.Percentile(att.markCut, 50)
		}
		if err := fluidCompare(stdout, *fluidN, *fluidBW, delay, *fluidKmin, *fluidKmax, *fluidPmax, ratePeriod, queuePeriod); err != nil {
			fmt.Fprintf(stderr, "ccreport: fluid comparison: %v\n", err)
			return 2
		}
	}

	if *ratesPath != "" {
		if err := writeRates(*ratesPath, tls); err != nil {
			fmt.Fprintf(stderr, "ccreport: %v\n", err)
			return 2
		}
		fmt.Fprintf(stdout, "\nwrote %d rate timelines to %s\n", len(tls), *ratesPath)
	}

	if *requireAttr && att.attributed != att.cuts {
		fmt.Fprintf(stderr, "ccreport: %d of %d rate cuts unattributed\n", att.cuts-att.attributed, att.cuts)
		return 1
	}
	return 0
}

// readAudit parses an audit JSONL export, returning its header (nil when
// absent) and the decision records in file order.
func readAudit(path string) (*header, []rec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	var hdr *header
	var recs []rec
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	first := true
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		if first {
			first = false
			var h header
			if err := json.Unmarshal(line, &h); err == nil && h.Schema != "" {
				hdr = &h
				continue
			}
		}
		var r rec
		if err := json.Unmarshal(line, &r); err != nil {
			return nil, nil, fmt.Errorf("%s: bad record: %v", path, err)
		}
		if r.Dec == "" {
			continue // header or foreign record
		}
		recs = append(recs, r)
	}
	return hdr, recs, sc.Err()
}

type attStats struct {
	cuts, attributed  int
	episodes, orphans int
	markCut           []float64 // per-cut mark→cut latency, seconds
	openCut           []float64 // per-episode open→first-cut latency, seconds
}

// attribution reconstructs the mark-episode bookkeeping: every cut
// should name the episode stamped on its CNP; an opened episode no cut
// ever names is an orphan (its feedback was lost).
func attribution(recs []rec) attStats {
	var st attStats
	openT := make(map[uint64]int64)
	cutBy := make(map[uint64]int)
	for _, r := range recs {
		switch r.Dec {
		case "epopen":
			st.episodes++
			openT[r.Ep] = r.TNs
		case "cut":
			st.cuts++
			if r.Ep != 0 {
				st.attributed++
				cutBy[r.Ep]++
				st.markCut = append(st.markCut, r.RTT)
				if t0, ok := openT[r.Ep]; ok && cutBy[r.Ep] == 1 {
					st.openCut = append(st.openCut, float64(r.TNs-t0)/1e9)
				}
			}
		}
	}
	for ep := range openT {
		if cutBy[ep] == 0 {
			st.orphans++
		}
	}
	return st
}

type timeline struct {
	node, flow int32
	ts, vs     []float64 // seconds, bytes/s after each rate decision
}

// timelines reconstructs each flow's rate trajectory from its rate
// decisions, in (node, flow) order.
func timelines(recs []rec) []*timeline {
	byKey := make(map[[2]int32]*timeline)
	var order [][2]int32
	for _, r := range recs {
		if !rateDecs[r.Dec] {
			continue
		}
		k := [2]int32{r.Node, r.Flow}
		tl := byKey[k]
		if tl == nil {
			tl = &timeline{node: r.Node, flow: r.Flow}
			byKey[k] = tl
			order = append(order, k)
		}
		tl.ts = append(tl.ts, float64(r.TNs)/1e9)
		tl.vs = append(tl.vs, r.New)
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

// readQueueProbe extracts the first queue_bytes series from a probe JSONL
// export (sweep-prefixed names match by suffix/substring).
func readQueueProbe(path string) (ts, vs []float64, name string, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var p struct {
			Probe string   `json:"probe"`
			T     *float64 `json:"t"`
			V     float64  `json:"v"`
		}
		if err := json.Unmarshal(line, &p); err != nil || p.Probe == "" || p.T == nil {
			continue // header, dropped-count trailer, or foreign record
		}
		if !strings.Contains(p.Probe, "queue_bytes") {
			continue
		}
		if name == "" {
			name = p.Probe
		}
		if p.Probe != name {
			continue // only the first queue series
		}
		ts = append(ts, *p.T)
		vs = append(vs, p.V)
	}
	return ts, vs, name, sc.Err()
}

// fluidCompare linearises the DCQCN fluid model at the same operating
// point and compares its predicted oscillation period (2π over the gain
// crossover frequency) with the measured rate/queue periods.
func fluidCompare(w io.Writer, n int, bw, delay, kminB, kmaxB, pmax, ratePeriod, queuePeriod float64) error {
	p := fluid.DefaultDCQCNParams(n)
	p.C = bw / hybrid.MTU // packets/s
	p.Kmin = kminB / hybrid.MTU
	p.Kmax = kmaxB / hybrid.MTU
	p.Pmax = pmax
	if delay > 0 {
		p.TauStar = delay
	}
	loop, err := fluid.NewDCQCNLoop(p)
	if err != nil {
		return err
	}
	res, err := stability.PhaseMargin(loop)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nfluid model (n=%d, C=%.2g B/s, τ*=%.1fµs): phase margin %.1f°",
		n, bw, p.TauStar*1e6, res.PhaseMarginDeg)
	if res.CrossoverRadPerSec <= 0 {
		fmt.Fprintf(w, ", no gain crossover — loop predicted unconditionally stable, no oscillation period to compare\n")
		return nil
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
	return nil
}

// writeRates exports the per-flow rate timelines as JSONL, one record per
// rate decision, flows in (node, flow) order — byte-stable for identical
// audits.
func writeRates(path string, tls []*timeline) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	var buf []byte
	for _, tl := range tls {
		for i := range tl.ts {
			buf = buf[:0]
			buf = append(buf, `{"node":`...)
			buf = strconv.AppendInt(buf, int64(tl.node), 10)
			buf = append(buf, `,"flow":`...)
			buf = strconv.AppendInt(buf, int64(tl.flow), 10)
			buf = append(buf, `,"t":`...)
			buf = strconv.AppendFloat(buf, tl.ts[i], 'g', -1, 64)
			buf = append(buf, `,"rate":`...)
			buf = strconv.AppendFloat(buf, tl.vs[i], 'g', -1, 64)
			buf = append(buf, '}', '\n')
			if _, err := bw.Write(buf); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
