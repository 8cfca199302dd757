package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"ecndelay/internal/des"
	"ecndelay/internal/netsim"
	"ecndelay/internal/sweep"
)

// iter is one iteration's context: its seed, its tracer (nil when
// untraced) and the run-wide counters it adds to.
type iter struct {
	idx   int
	seed  int64
	out   string // directory for the files an iteration writes
	tr    *tracer
	root  spanRef
	setup time.Duration // host time before the first event, step or dispatch
	c     *counts
}

// counts are the layers' work counts, summed over a run's iterations. Only
// the main goroutine writes them.
type counts struct {
	events, pendingPeak                   int64
	txPkts, txBytes, marks, pauses, cnpTx int64
	poolSize, nodes, flows, unfinished    int64
	rhsEvals, jobs                        int64
	auditRecords, exportBytes, violations int64
}

func (it *iter) traced() bool { return it.tr != nil }

// span opens a span under parent when tracing.
func (it *iter) span(name string, parent spanRef) spanRef {
	if it.tr == nil {
		return spanRef{}
	}
	return spanRef{it.tr, it.tr.begin(name, parent.id, it.idx)}
}

// setupPhase is an open setup span whose host time counts toward setup_s.
type setupPhase struct {
	spanRef
	it    *iter
	start time.Time
}

func (it *iter) beginSetup() setupPhase {
	return setupPhase{it.span("setup", it.root), it, time.Now()}
}

func (p setupPhase) done() {
	p.end()
	p.it.setup += time.Since(p.start)
}

// runNet advances nw to end. Traced, it runs 1 ms simulated slices and
// reads the event heap's depth between them; slicing does not change the
// run, because RunUntil fires exactly the events up to its bound.
func (it *iter) runNet(nw *netsim.Network, end des.Time) {
	run := it.span("run", it.root)
	if it.traced() {
		for t := nw.Sim.Now(); t < end; {
			t = min(t.Add(des.Millisecond), end)
			sp := it.span("netsim.RunUntil", run)
			nw.RunUntil(t)
			sp.end()
			it.c.pendingPeak = max(it.c.pendingPeak, int64(nw.Sim.Pending()))
		}
	} else {
		nw.RunUntil(end)
	}
	run.end()
	it.c.events += int64(nw.Sim.Processed())
	it.c.poolSize += int64(nw.PoolSize())
}

// countPorts adds the network's transmitted bytes and, when a metrics
// registry is attached, its packet, mark, pause and CNP counters.
func (it *iter) countPorts(nw *netsim.Network) {
	for _, p := range nw.Ports() {
		it.c.txBytes += p.TxBytes
	}
	o := nw.Observer()
	if o == nil || o.Metrics == nil {
		return
	}
	for _, m := range o.Metrics.Snapshot() {
		switch m.Name[strings.LastIndex(m.Name, ".")+1:] {
		case "tx_pkts":
			it.c.txPkts += m.Value
		case "marks":
			it.c.marks += m.Value
		case "pauses":
			it.c.pauses += m.Value
		case "cnp_tx":
			it.c.cnpTx += m.Value
		}
	}
}

// loopStats is what one loop of timed iterations measured.
type loopStats struct {
	// iterS and setupS are host times scaled to the reference speed (see
	// reference); refS is the reference kernel's time around the iteration.
	iterS, setupS, allocB, refS []float64 // per successful iteration
	digests                     []uint64  // per iteration run, 0 when it failed
	ok                          []bool
	c                           counts
	rt                          runtimeDelta
}

// loop runs iterations 0..n-1 of the workload back to back. Iteration i
// uses seed sweep.DeriveSeed(seed, i), so no two iterations share inputs,
// and every run of n iterations covers the same seeds however slow the
// host is. The reference kernel runs before the first iteration and after
// each one, and an iteration is scaled by the mean of the two runs that
// bracket it.
func (b *bench) loop(n int, tr *tracer) *loopStats {
	ls := &loopStats{}
	rt0 := readRuntime()
	var ms runtime.MemStats
	before := reference()
	for i := 0; i < n; i++ {
		it := &iter{idx: i, seed: sweep.DeriveSeed(b.seed, i), out: b.out, tr: tr, c: &ls.c}
		it.root = it.span("iteration", spanRef{id: -1})
		// ReadMemStats flushes the per-P allocation caches, so its total is
		// exact per iteration; the runtime/metrics counter is not.
		runtime.ReadMemStats(&ms)
		a0 := ms.TotalAlloc
		t0 := time.Now()
		d, err := b.w.run(it)
		dt := time.Since(t0)
		it.root.end()
		runtime.ReadMemStats(&ms)
		after := reference()
		ref := (before + after).Seconds() / 2
		before = after
		ls.digests = append(ls.digests, d)
		ls.ok = append(ls.ok, err == nil)
		if err != nil {
			fmt.Fprintf(b.log, "bench: %s iteration %d (seed %d): %v\n", b.w.name, i, it.seed, err)
			continue
		}
		scale := refSeconds / ref
		ls.iterS = append(ls.iterS, dt.Seconds()*scale)
		ls.setupS = append(ls.setupS, it.setup.Seconds()*scale)
		ls.allocB = append(ls.allocB, float64(ms.TotalAlloc-a0))
		ls.refS = append(ls.refS, ref)
	}
	ls.rt = readRuntime().sub(rt0)
	return ls
}

// refSeconds is the reference kernel's time on the reference host (a
// 2-vCPU KVM guest on a 2.1 GHz Intel Xeon) in a quiet phase.
const refSeconds = 0.008

// Sizes of the reference kernel's two halves, about 4 ms each on the
// reference host.
const (
	refMathSteps = 180_000
	refHeapSize  = 4096
	refHeapOps   = 60_000
)

var (
	// refHeap holds the reference kernel's event times. It holds no
	// pointer, so heap moves pay no write barrier while the collector runs.
	refHeap = make([]uint64, refHeapSize)
	refSink float64 // keeps the kernel's results alive
)

// reference runs a fixed kernel of the benchmark's own and returns its host
// time. On a shared host the speed of the whole machine drifts in phases of
// tens of seconds to minutes, by up to 2×, and a phase slows every
// iteration of a run alike, so no statistic over one run removes it. Timing
// this kernel around each iteration and scaling the iteration by
// refSeconds ÷ its time reports every iteration at the reference host's
// speed. The kernel mixes the two kinds of work the workloads spend most of
// their time in, exp/log arithmetic and a binary heap of timed events,
// because slowdowns hit different code by different amounts (README.md,
// Calibration). It allocates nothing and changes with no commit of the
// repository, so only the host's speed moves it.
func reference() time.Duration {
	t0 := time.Now()
	x := 0.0
	for i := 0; i < refMathSteps; i++ {
		f := float64(i%1024) / 1024
		x += math.Expm1(0.3*f) + math.Log1p(f) + math.Exp(-f)
	}
	// An event queue in steady state: pop the earliest event and schedule
	// it again a pseudo-random delay later.
	h, r := refHeap, uint64(0x9e3779b97f4a7c15)
	next := func() uint64 { r ^= r << 13; r ^= r >> 7; r ^= r << 17; return r }
	for i := range h {
		h[i] = next() >> 34
		for j := i; j > 0 && h[j] < h[(j-1)/2]; j = (j - 1) / 2 {
			h[j], h[(j-1)/2] = h[(j-1)/2], h[j]
		}
	}
	for i := 0; i < refHeapOps; i++ {
		h[0] += next() >> 44
		for j := 0; ; {
			c := 2*j + 1
			if c >= len(h) {
				break
			}
			if c+1 < len(h) && h[c+1] < h[c] {
				c++
			}
			if h[j] <= h[c] {
				break
			}
			h[j], h[c] = h[c], h[j]
			j = c
		}
	}
	refSink = x + float64(h[0])
	return time.Since(t0)
}

// runtimeDelta holds runtime/metrics readings, or the change between two.
type runtimeDelta struct {
	gcCycles                 uint64
	gcCPU, totalCPU, idleCPU float64
}

var runtimeSamples = []string{
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readRuntime() runtimeDelta {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	return runtimeDelta{
		gcCycles: s[0].Value.Uint64(),
		gcCPU:    s[1].Value.Float64(),
		totalCPU: s[2].Value.Float64(),
		idleCPU:  s[3].Value.Float64(),
	}
}

func (a runtimeDelta) sub(b runtimeDelta) runtimeDelta {
	return runtimeDelta{
		gcCycles: a.gcCycles - b.gcCycles,
		gcCPU:    a.gcCPU - b.gcCPU,
		totalCPU: a.totalCPU - b.totalCPU,
		idleCPU:  a.idleCPU - b.idleCPU,
	}
}

// gcFrac is the GC's share of the CPU time the process used.
func (a runtimeDelta) gcFrac() float64 {
	used := a.totalCPU - a.idleCPU
	if used <= 0 {
		return 0
	}
	return a.gcCPU / used
}

// maxRSSBytes reads the process's peak resident set (VmHWM).
func maxRSSBytes() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb * 1024, err
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// quantile is the q-quantile of xs by linear interpolation between order
// statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
