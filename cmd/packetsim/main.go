// Command packetsim runs long-lived flows through the packet-level
// simulator and writes the bottleneck queue and per-flow rate series as
// TSV.
//
//	packetsim -proto dcqcn -n 10 -bw 40e9 -extra-delay 85e-6
//	packetsim -proto timely -n 2 -rates 875e6,375e6
//	packetsim -proto patched -n 2 -burst
//
// Hybrid fluid↔packet co-simulation (internal/hybrid): -warm-start begins
// the run at the analytic fixed point (rates, α, prefilled bottleneck
// queue) instead of the cold start, and -bg-flows couples a DCQCN fluid
// background aggregate to the bottleneck queue so a handful of packet
// flows can be studied against a large modelled population:
//
//	packetsim -proto dcqcn -n 10 -bw 40e9 -warm-start
//	packetsim -proto dcqcn -n 2 -bw 40e9 -bg-flows 6
//
// Fault injection (all off by default; output stays deterministic for
// fixed -seed and -fault-seed, which is what the Makefile determinism
// gate diffs):
//
//	packetsim -proto dcqcn -loss 1e-3 -ctrl-loss 1e-2 -recovery
//	packetsim -proto dcqcn -flap 0.01,0.02 -recovery
//	packetsim -proto dcqcn -qcap 100000 -recovery
//	packetsim -proto dcqcn -pfc-pause 300000 -pfc-resume 150000 -pfc-watchdog 1e-3
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"ecndelay"
	"ecndelay/internal/prof"
)

// shutdownOnSignal drains the telemetry server with a bounded deadline
// before the process dies on SIGINT/SIGTERM, so in-flight scrapes
// complete instead of being cut mid-body.
func shutdownOnSignal(srv *ecndelay.TelemetryServer) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-ch
		log.Printf("%v: draining telemetry server", s)
		_ = srv.Shutdown(5 * time.Second)
		os.Exit(1)
	}()
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("packetsim: ")
	var (
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
		proto      = flag.String("proto", "dcqcn", "dcqcn | timely | patched")
		topology   = flag.String("topology", "star", "star | dumbbell | parkinglot | clos")
		radix      = flag.Int("radix", 4, "clos: switch radix k (even; k**3/4 hosts at 3 tiers)")
		tiers      = flag.Int("tiers", 3, "clos: fabric depth, 2 (leaf-spine) or 3 (fat tree)")
		oversub    = flag.Float64("oversub", 1, "clos: leaf oversubscription ratio (>= 1)")
		hops       = flag.Int("hops", 3, "parkinglot: switches in the chain")
		n          = flag.Int("n", 2, "number of senders (one long flow each)")
		bw         = flag.Float64("bw", 10e9, "link bandwidth, bits/s")
		extraDelay = flag.Float64("extra-delay", 0, "extra feedback delay, seconds")
		jitter     = flag.Float64("jitter", 0, "uniform feedback jitter bound, seconds")
		ingress    = flag.Bool("ingress", false, "mark ECN at ingress instead of egress (DCQCN)")
		burst      = flag.Bool("burst", false, "TIMELY per-burst pacing")
		seg        = flag.Int("seg", 0, "TIMELY segment bytes (0: default 16000)")
		horizon    = flag.Float64("horizon", 0.1, "simulated seconds")
		sample     = flag.Float64("sample", 1e-4, "output sampling interval, seconds")
		rates      = flag.String("rates", "", "comma-separated TIMELY start rates, bytes/s")
		seed       = flag.Int64("seed", 1, "simulation seed")
		warmStart  = flag.Bool("warm-start", false, "start endpoints and the bottleneck queue at the analytic fixed point (dcqcn | patched)")
		bgFlows    = flag.Int("bg-flows", 0, "DCQCN fluid background flows coupled to the bottleneck queue (0: off)")

		lossRate  = flag.Float64("loss", 0, "i.i.d. data loss rate on the bottleneck port")
		ctrlLoss  = flag.Float64("ctrl-loss", 0, "i.i.d. ack/NACK/CNP loss rate on the receiver NIC")
		faultSeed = flag.Int64("fault-seed", 1, "seed for the fault draws")
		flapSpec  = flag.String("flap", "", "bottleneck link flap: down,up seconds (up 0 = stays down)")
		recovery  = flag.Bool("recovery", false, "go-back-N loss recovery at the endpoints")
		rto       = flag.Float64("rto", 0, "retransmission timeout, seconds (0: protocol default)")
		qcap      = flag.Int("qcap", 0, "switch egress queue capacity, bytes (0: unbounded)")
		pfcPause  = flag.Int("pfc-pause", 0, "PFC pause threshold, bytes (0: PFC off)")
		pfcResume = flag.Int("pfc-resume", 0, "PFC resume threshold, bytes")
		pfcWatch  = flag.Float64("pfc-watchdog", 0, "flag pauses sustained this many seconds (0: off)")

		metricsFile = flag.String("metrics", "", "write end-of-run counters as TSV to this file")
		traceFile   = flag.String("trace", "", "stream the event trace as JSONL to this file")
		probeFile   = flag.String("probe", "", "write probe time series as JSONL to this file")
		probeEvery  = flag.Float64("probe-every", 1e-4, "probe sampling cadence, seconds")
		invariants  = flag.Bool("invariants", false, "check runtime invariants; violations exit nonzero")
		histFile    = flag.String("hist", "", "write latency histogram percentiles to this file (.tsv: TSV, else JSONL)")
		auditFile   = flag.String("audit", "", "write the control-loop decision audit as JSONL to this file")
		serveAddr   = flag.String("serve", "", "serve live telemetry (/metrics, /progress, pprof) on this host:port")
	)
	flag.Parse()

	// Every JSONL export opens with the same self-describing header, so a
	// reader can tell which invocation produced a file without the shell
	// history. flag.Visit walks only explicitly set flags, in name order.
	header := func(schema string) ecndelay.ExportHeader {
		var parts []string
		flag.Visit(func(f *flag.Flag) {
			parts = append(parts, f.Name+"="+f.Value.String())
		})
		return ecndelay.ExportHeader{
			Schema: schema, Version: 1, Seed: *seed, Proto: *proto,
			Flags: strings.Join(parts, " "),
		}
	}

	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		log.Fatal(err)
	}

	// Observability: build the observer before any topology exists so
	// ports and endpoints bind their counters. All extra output goes to
	// separate files — stdout stays byte-identical to an unobserved run.
	var observer *ecndelay.Observer
	var traceSink *ecndelay.TraceJSONLSink
	var auditSink *ecndelay.AuditJSONLSink
	if *metricsFile != "" || *traceFile != "" || *probeFile != "" || *invariants ||
		*histFile != "" || *serveAddr != "" || *auditFile != "" {
		observer = &ecndelay.Observer{ProbeEvery: ecndelay.DurationFromSeconds(*probeEvery)}
		if *metricsFile != "" || *serveAddr != "" {
			observer.Metrics = ecndelay.NewMetricsRegistry()
		}
		if *traceFile != "" {
			f, err := os.Create(*traceFile)
			if err != nil {
				log.Fatal(err)
			}
			traceSink = ecndelay.NewTraceJSONLSink(f)
			traceSink.WriteHeader(header("trace"))
			observer.Trace = ecndelay.NewTracer(traceSink)
		}
		if *probeFile != "" {
			observer.Probes = ecndelay.NewProbeSet()
			observer.Probes.SetHeader(header("probe"))
		}
		if *invariants {
			observer.Check = ecndelay.NewInvariantChecker()
		}
		if *histFile != "" || *serveAddr != "" || *auditFile != "" {
			// The audit trail feeds the feedback-latency histograms, so an
			// audited run always carries a histogram set.
			observer.Hists = ecndelay.NewHistSet()
		}
		if *auditFile != "" {
			f, err := os.Create(*auditFile)
			if err != nil {
				log.Fatal(err)
			}
			auditSink = ecndelay.NewAuditJSONLSink(f, 1<<16)
			auditSink.SetHeader(header("audit"))
			observer.Audit = ecndelay.NewAuditTrail(auditSink)
		}
	}

	bwBytes := *bw / 8
	nw := ecndelay.NewNetwork(*seed)
	if observer != nil {
		nw.SetObserver(observer)
	}
	var mark func() ecndelay.Marker
	if *proto == "dcqcn" {
		mark = func() ecndelay.Marker {
			return &ecndelay.REDMarker{Kmin: 5000, Kmax: 200000, Pmax: 0.01, Ingress: *ingress, Rng: nw.Rng}
		}
	}
	// fab abstracts the wired topology down to what the flow/fault/output
	// machinery needs: who sends, who receives, which port is the
	// bottleneck the TSV tracks, and which switches exist (watchdog,
	// buffer-drop accounting). The default star build is unchanged, so
	// default invocations stay byte-identical.
	link := ecndelay.LinkConfig{Bandwidth: bwBytes, PropDelay: ecndelay.Microsecond}
	pfc := ecndelay.PFCConfig{PauseBytes: *pfcPause, ResumeBytes: *pfcResume}
	var fab fabric
	switch *topology {
	case "star":
		star := ecndelay.NewStar(nw, ecndelay.StarConfig{
			Senders:        *n,
			Link:           link,
			Mark:           mark,
			CtrlExtraDelay: ecndelay.DurationFromSeconds(*extraDelay),
			CtrlJitterMax:  ecndelay.DurationFromSeconds(*jitter),
			PFC:            pfc,
			SwitchQueueCap: *qcap,
		})
		fab = fabric{star.Senders, star.Receiver, star.Bottleneck,
			[]*ecndelay.Switch{star.Switch}}
	case "dumbbell":
		requireStarOnly(*topology, *extraDelay != 0, "-extra-delay")
		d := ecndelay.NewDumbbell(nw, ecndelay.DumbbellConfig{
			Senders: *n, Receivers: 1,
			Link:           link,
			Mark:           mark,
			CtrlJitterMax:  ecndelay.DurationFromSeconds(*jitter),
			PFC:            pfc,
			SwitchQueueCap: *qcap,
		})
		fab = fabric{d.Senders, d.Receivers[0], d.Bottleneck,
			[]*ecndelay.Switch{d.SW1, d.SW2}}
	case "parkinglot":
		requireStarOnly(*topology, *extraDelay != 0, "-extra-delay")
		requireStarOnly(*topology, *jitter != 0, "-jitter")
		requireStarOnly(*topology, *qcap != 0, "-qcap")
		if *n > *hops {
			log.Fatalf("-topology parkinglot has one sender per switch: -n %d needs -hops >= %d", *n, *n)
		}
		pl := ecndelay.NewParkingLot(nw, ecndelay.ParkingLotConfig{
			Hops: *hops, Link: link, Mark: mark, PFC: pfc,
		})
		// Every flow converges on the last switch's receiver, so the final
		// trunk is the shared bottleneck the long flow crosses end to end.
		fab = fabric{pl.Senders[:*n], pl.Recvs[*hops-1],
			pl.Trunks[len(pl.Trunks)-1], pl.Switches}
	case "clos":
		requireStarOnly(*topology, *extraDelay != 0, "-extra-delay")
		requireStarOnly(*topology, *jitter != 0, "-jitter")
		cl, err := ecndelay.NewClos(nw, ecndelay.ClosConfig{
			Radix: *radix, Tiers: *tiers, Oversub: *oversub,
			HostLink:       link,
			Mark:           mark,
			PFC:            pfc,
			SwitchQueueCap: *qcap,
			ECMPSeed:       *seed,
		})
		if err != nil {
			log.Fatal(err)
		}
		last := len(cl.Hosts) - 1
		if *n >= len(cl.Hosts) {
			log.Fatalf("-topology clos (radix %d, tiers %d) has %d hosts; -n %d leaves no receiver",
				*radix, *tiers, len(cl.Hosts), *n)
		}
		// Senders are the first n hosts, the aggregator is the last host —
		// in another pod, so the incast crosses the ECMP core — and its
		// leaf→host port is the bottleneck the TSV tracks.
		fab = fabric{cl.Hosts[:*n], cl.Hosts[last], cl.HostPorts[last], cl.Switches()}
	default:
		log.Fatalf("unknown -topology %q", *topology)
	}

	var startRates []float64
	if *rates != "" {
		for _, f := range strings.Split(*rates, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				log.Fatalf("bad -rates: %v", err)
			}
			startRates = append(startRates, v)
		}
		if len(startRates) != *n {
			log.Fatalf("-rates has %d entries, -n is %d", len(startRates), *n)
		}
	}

	// Equilibrium warm start (internal/hybrid): solve the analytic fixed
	// point for this operating point and hand it to the endpoints and the
	// bottleneck queue below. Go-back-N recovery tracks sequence state the
	// prefilled segments would bypass, so the two are mutually exclusive.
	var warm *ecndelay.HybridWarmStart
	if *warmStart {
		if *recovery {
			log.Fatal("-warm-start is incompatible with -recovery (prefilled segments bypass go-back-N tracking)")
		}
		if startRates != nil {
			log.Fatal("-warm-start and -rates both set start rates; pick one")
		}
		switch *proto {
		case "dcqcn":
			pr := ecndelay.DefaultDCQCNParams(*n)
			pr.C = bwBytes / ecndelay.DataMTU
			w, err := ecndelay.SolveDCQCNWarmStart(pr)
			if err != nil {
				log.Fatal(err)
			}
			// The analytic fixed point assumes the extended RED ramp;
			// the packet marker cliffs to p=1 above Kmax, so a q* past
			// Kmax prefills above the packet equilibrium and the run
			// drains through a transient instead of skipping it.
			if w.FP.Q > pr.Kmax {
				log.Printf("warm-start: analytic q* (%.0f packets) exceeds RED Kmax (%.0f); "+
					"this operating point is outside the validated ramp — "+
					"expect a draining transient (try a higher -bw, e.g. 40e9)",
					w.FP.Q, pr.Kmax)
			}
			warm = w
		case "patched":
			cfg := ecndelay.DefaultPatchedTimelyFluidConfig(*n)
			w, err := ecndelay.SolveTimelyWarmStart(*n, cfg.Delta, cfg.Beta, bwBytes, cfg.TLow, 0)
			if err != nil {
				log.Fatal(err)
			}
			warm = w
		default:
			log.Fatalf("-warm-start supports -proto dcqcn or patched, not %q", *proto)
		}
	}

	rate := make([]func() float64, *n)
	retx := make([]func() int64, *n)
	// Protocol-specific probe signals (DCQCN α, TIMELY RTT), registered
	// alongside the queue and rate probes when -probe is set.
	type probeSignal struct {
		name string
		fn   func() float64
	}
	var auxProbes []probeSignal
	switch *proto {
	case "dcqcn":
		p := ecndelay.DefaultDCQCNProtoParams()
		p.Recovery = *recovery
		p.RTO = ecndelay.DurationFromSeconds(*rto)
		if _, err := ecndelay.NewDCQCNEndpoint(fab.receiver, p); err != nil {
			log.Fatal(err)
		}
		var senders []*ecndelay.DCQCNSender
		for i, h := range fab.senders {
			ep, err := ecndelay.NewDCQCNEndpoint(h, p)
			if err != nil {
				log.Fatal(err)
			}
			s, err := ep.NewFlow(i, fab.receiver.ID(), -1, 0)
			if err != nil {
				log.Fatal(err)
			}
			rate[i] = s.Rate
			retx[i] = func() int64 { return s.Recovery().RetxBytes }
			auxProbes = append(auxProbes, probeSignal{fmt.Sprintf("alpha%d", i), s.Alpha})
			senders = append(senders, s)
		}
		if warm != nil {
			if err := warm.ApplyDCQCN(senders); err != nil {
				log.Fatal(err)
			}
		}
	case "timely", "patched":
		p := ecndelay.DefaultTimelyProtoParams()
		if *proto == "patched" {
			p = ecndelay.DefaultPatchedTimelyProtoParams()
		}
		p.Burst = *burst
		if *seg > 0 {
			p.Seg = *seg
		}
		p.Recovery = *recovery
		p.RTO = ecndelay.DurationFromSeconds(*rto)
		if _, err := ecndelay.NewTimelyEndpoint(fab.receiver, p); err != nil {
			log.Fatal(err)
		}
		for i, h := range fab.senders {
			ep, err := ecndelay.NewTimelyEndpoint(h, p)
			if err != nil {
				log.Fatal(err)
			}
			sr := 0.0
			if startRates != nil {
				sr = startRates[i]
			}
			if warm != nil {
				sr = warm.RatesBytes[i]
			}
			s, err := ep.NewFlow(i, fab.receiver.ID(), -1, 0, sr)
			if err != nil {
				log.Fatal(err)
			}
			rate[i] = s.Rate
			retx[i] = func() int64 { return s.Recovery().RetxBytes }
			auxProbes = append(auxProbes, probeSignal{fmt.Sprintf("rtt_s%d", i),
				func() float64 { return s.RTT().Seconds() }})
		}
	default:
		log.Fatalf("unknown -proto %q", *proto)
	}

	// Assemble the fault plan: data loss and flaps on the bottleneck,
	// control loss on the receiver's NIC (where acks/NACKs/CNPs originate).
	plan := &ecndelay.FaultPlan{Seed: *faultSeed}
	bn := ecndelay.LinkFaults{Port: fab.bottleneck}
	if *lossRate > 0 {
		bn.Loss = append(bn.Loss, ecndelay.Loss{Kinds: ecndelay.SelData, Rate: *lossRate})
	}
	if *flapSpec != "" {
		parts := strings.Split(*flapSpec, ",")
		if len(parts) != 2 {
			log.Fatalf("bad -flap %q, want down,up seconds", *flapSpec)
		}
		down, err1 := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
		up, err2 := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
		if err1 != nil || err2 != nil {
			log.Fatalf("bad -flap %q: %v %v", *flapSpec, err1, err2)
		}
		bn.Flaps = append(bn.Flaps, ecndelay.Flap{
			DownAt: ecndelay.Time(ecndelay.DurationFromSeconds(down)),
			UpAt:   ecndelay.Time(ecndelay.DurationFromSeconds(up)),
		})
	}
	if len(bn.Loss)+len(bn.Flaps) > 0 {
		plan.Links = append(plan.Links, bn)
	}
	if *ctrlLoss > 0 {
		plan.Links = append(plan.Links, ecndelay.LinkFaults{
			Port: fab.receiver.Port(),
			Loss: []ecndelay.Loss{{Kinds: ecndelay.SelCtrl, Rate: *ctrlLoss}},
		})
	}
	var applied *ecndelay.AppliedFaults
	if len(plan.Links) > 0 {
		applied = plan.Apply(nw)
	}
	var wd *ecndelay.PFCWatchdog
	if *pfcWatch > 0 {
		wd = ecndelay.NewPFCWatchdog(nw, ecndelay.DurationFromSeconds(*pfcWatch))
		for _, sw := range fab.switches {
			wd.WatchSwitch(sw)
		}
		for _, h := range fab.senders {
			wd.WatchHost(h)
		}
		wd.WatchHost(fab.receiver)
	}

	if observer != nil && observer.Probes != nil {
		every := observer.ProbeCadence()
		q := fab.bottleneck.Queue()
		observer.Probes.NewProbe("queue_bytes", 0).Drive(nw.Sim, every, func() float64 {
			return float64(q.Bytes())
		})
		for i := 0; i < *n; i++ {
			fn := rate[i]
			observer.Probes.NewProbe(fmt.Sprintf("rate%d", i), 0).Drive(nw.Sim, every, fn)
		}
		for _, ap := range auxProbes {
			observer.Probes.NewProbe(ap.name, 0).Drive(nw.Sim, every, ap.fn)
		}
	}

	// Live telemetry: the HTTP goroutine never touches the simulator —
	// /progress reads an atomic snapshot of the sim clock refreshed from
	// inside the sampling tick, and /metrics reads only atomic counters
	// and histograms — so a served run is bit-identical to an unserved one.
	var simNow atomic.Uint64 // float64 bits of the sim clock
	if *serveAddr != "" {
		srv := ecndelay.NewTelemetryServer(observer)
		srv.SetProgress(func() any {
			t := math.Float64frombits(simNow.Load())
			pct := 0.0
			if *horizon > 0 {
				pct = 100 * t / *horizon
			}
			return map[string]any{"sim_time_s": t, "horizon_s": *horizon, "pct": pct}
		})
		addr, err := srv.Start(*serveAddr)
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Shutdown(2 * time.Second)
		shutdownOnSignal(srv)
		log.Printf("serving telemetry on http://%s", addr)
	}

	// Warm-start the bottleneck queue and attach the optional fluid
	// background aggregate; the prefilled segments are ordinary queued
	// packets.
	if warm != nil {
		flows := make([]ecndelay.HybridPrefillFlow, *n)
		for i, h := range fab.senders {
			flows[i] = ecndelay.HybridPrefillFlow{Flow: i, Src: h.ID(), Dst: fab.receiver.ID()}
		}
		warm.Prefill(fab.bottleneck, flows)
	}
	var bg *ecndelay.HybridBackgroundAggregate
	if *bgFlows > 0 {
		if *proto != "dcqcn" {
			log.Fatal("-bg-flows needs -proto dcqcn (the aggregate is a DCQCN fluid model)")
		}
		pr := ecndelay.DefaultDCQCNParams(*bgFlows)
		pr.C = bwBytes / ecndelay.DataMTU
		b, err := ecndelay.AttachFluidBackground(fab.bottleneck, ecndelay.HybridBackgroundConfig{
			Flows: *bgFlows, Par: pr, ColdStart: warm == nil,
		})
		if err != nil {
			log.Fatal(err)
		}
		bg = b
	}

	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()

	qBytes := func() int { return fab.bottleneck.Queue().Bytes() }
	if bg != nil {
		// With a background aggregate the marking view (real + fluid
		// bytes) is the trajectory of interest; the extra comment keeps
		// aggregate-free runs byte-identical.
		fmt.Fprintf(out, "# bg-flows: %d fluid background flows; q_bytes is the combined marking view\n", *bgFlows)
		qBytes = func() int { return fab.bottleneck.Queue().MarkBytes() }
	}
	fmt.Fprint(out, "# t\tq_bytes")
	for i := 0; i < *n; i++ {
		fmt.Fprintf(out, "\trate%d", i)
	}
	fmt.Fprintln(out)
	nw.Sim.Every(0, ecndelay.DurationFromSeconds(*sample), func() {
		simNow.Store(math.Float64bits(nw.Sim.Now().Seconds()))
		fmt.Fprintf(out, "%.6f\t%d", nw.Sim.Now().Seconds(), qBytes())
		for i := 0; i < *n; i++ {
			fmt.Fprintf(out, "\t%.6g", rate[i]())
		}
		fmt.Fprintln(out)
	})
	nw.RunUntil(ecndelay.Time(ecndelay.DurationFromSeconds(*horizon)))

	// A trailing comment block carries the fault/degradation summary, so
	// piping the TSV elsewhere still works and a determinism check can
	// diff the whole output byte for byte.
	if applied != nil || wd != nil || *qcap > 0 || *recovery {
		var retxSum int64
		for i := 0; i < *n; i++ {
			retxSum += retx[i]()
		}
		var bufDrops int64
		for _, sw := range fab.switches {
			for _, p := range sw.Ports() {
				bufDrops += p.Queue().Drops()
			}
		}
		wireDrops := fab.bottleneck.WireDrops() + fab.receiver.Port().WireDrops()
		fmt.Fprintf(out, "# faults: injected_drops=%d wire_drops=%d buffer_drops=%d retx_bytes=%d",
			injectedDrops(applied), wireDrops, bufDrops, retxSum)
		if wd != nil {
			wd.Finish()
			deadlocked := 0
			for _, e := range wd.Events() {
				if e.OpenAtFinish {
					deadlocked++
				}
			}
			fmt.Fprintf(out, " pause_storms=%d open_at_finish=%d paused_s=%.6f",
				wd.Storms(), deadlocked, float64(wd.PausedTotal())/1e9)
		}
		fmt.Fprintln(out)
	}
	if err := stopProf(); err != nil {
		log.Fatal(err)
	}
	if observer != nil {
		out.Flush() // log.Fatal below skips the deferred flush
		if traceSink != nil {
			if err := traceSink.Close(); err != nil {
				log.Fatal(err)
			}
		}
		if auditSink != nil {
			if err := auditSink.Close(); err != nil {
				log.Fatal(err)
			}
		}
		if *metricsFile != "" {
			if err := writeFileWith(*metricsFile, observer.Metrics.WriteTSV); err != nil {
				log.Fatal(err)
			}
		}
		if *probeFile != "" {
			if err := writeFileWith(*probeFile, observer.Probes.WriteJSONL); err != nil {
				log.Fatal(err)
			}
		}
		if *histFile != "" {
			if err := writeFileWith(*histFile, histWriter(observer.Hists, *histFile)); err != nil {
				log.Fatal(err)
			}
		}
		if c := observer.Check; c != nil {
			c.Finish(nw.Sim.Now())
			if c.Total() > 0 {
				for _, v := range c.Violations() {
					fmt.Fprintln(os.Stderr, "packetsim: invariant violation:", v)
				}
				log.Fatalf("%d invariant violation(s)", c.Total())
			}
		}
	}
}

// fabric is the topology-independent view the rest of main drives: long
// flows go senders → receiver, the bottleneck port's queue is the TSV
// series, and switches carry the watchdog and drop accounting.
type fabric struct {
	senders    []*ecndelay.Host
	receiver   *ecndelay.Host
	bottleneck *ecndelay.Port
	switches   []*ecndelay.Switch
}

// requireStarOnly rejects flags the selected topology's builder has no hook
// for, instead of silently ignoring them.
func requireStarOnly(topology string, set bool, flagName string) {
	if set {
		log.Fatalf("%s is not supported with -topology %s", flagName, topology)
	}
}

// histWriter picks the histogram export format from the target filename:
// TSV for .tsv, JSONL (the cmd/obsreport input format) otherwise.
func histWriter(hs *ecndelay.HistSet, path string) func(io.Writer) error {
	if strings.HasSuffix(path, ".tsv") {
		return hs.WriteTSV
	}
	return hs.WriteJSONL
}

// writeFileWith creates path and streams write into it.
func writeFileWith(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func injectedDrops(a *ecndelay.AppliedFaults) int64 {
	if a == nil {
		return 0
	}
	return a.Drops()
}
