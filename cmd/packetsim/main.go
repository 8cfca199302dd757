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
// fixed -seed and -fault-seed, which TestSeededRunsReproduce checks):
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
	"math"
	"os"
	"strconv"
	"strings"

	"ecndelay/internal/cli"
	"ecndelay/internal/dcqcn"
	"ecndelay/internal/des"
	"ecndelay/internal/fault"
	"ecndelay/internal/fluid"
	"ecndelay/internal/hybrid"
	"ecndelay/internal/netsim"
	"ecndelay/internal/timely"
	"ecndelay/internal/topo"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command. It exits 2 on a refused flag value or
// combination, 1 on a run, export or invariant failure, and 0 otherwise.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("packetsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		proto      = fs.String("proto", "dcqcn", "dcqcn | timely | patched")
		topology   = fs.String("topology", "star", "star | dumbbell | parkinglot | clos")
		radix      = fs.Int("radix", 4, "clos: switch radix k (even; k**3/4 hosts at 3 tiers)")
		tiers      = fs.Int("tiers", 3, "clos: fabric depth, 2 (leaf-spine) or 3 (fat tree)")
		oversub    = fs.Float64("oversub", 1, "clos: leaf oversubscription ratio (>= 1)")
		hops       = fs.Int("hops", 3, "parkinglot: switches in the chain")
		n          = fs.Int("n", 2, "number of senders (one long flow each)")
		bw         = fs.Float64("bw", 10e9, "link bandwidth, bits/s")
		extraDelay = fs.Float64("extra-delay", 0, "extra feedback delay, seconds")
		jitter     = fs.Float64("jitter", 0, "uniform feedback jitter bound, seconds")
		ingress    = fs.Bool("ingress", false, "mark ECN at ingress instead of egress (DCQCN)")
		burst      = fs.Bool("burst", false, "TIMELY per-burst pacing")
		seg        = fs.Int("seg", 0, "TIMELY segment bytes (0: default 16000)")
		horizon    = fs.Float64("horizon", 0.1, "simulated seconds")
		sample     = fs.Float64("sample", 1e-4, "output sampling interval, seconds")
		rates      = fs.String("rates", "", "comma-separated TIMELY start rates, bytes/s")
		seed       = fs.Int64("seed", 1, "simulation seed")
		warmStart  = fs.Bool("warm-start", false, "start endpoints and the bottleneck queue at the analytic fixed point (dcqcn | patched)")
		bgFlows    = fs.Int("bg-flows", 0, "DCQCN fluid background flows coupled to the bottleneck queue (0: off)")

		lossRate  = fs.Float64("loss", 0, "i.i.d. data loss rate on the bottleneck port")
		ctrlLoss  = fs.Float64("ctrl-loss", 0, "i.i.d. ack/NACK/CNP loss rate on the receiver NIC")
		faultSeed = fs.Int64("fault-seed", 1, "seed for the fault draws")
		flapSpec  = fs.String("flap", "", "bottleneck link flap: down,up seconds (up 0 = stays down)")
		recovery  = fs.Bool("recovery", false, "go-back-N loss recovery at the endpoints")
		rto       = fs.Float64("rto", 0, "retransmission timeout, seconds (0: protocol default)")
		qcap      = fs.Int("qcap", 0, "switch egress queue capacity, bytes (0: unbounded)")
		pfcPause  = fs.Int("pfc-pause", 0, "PFC pause threshold, bytes (0: PFC off)")
		pfcResume = fs.Int("pfc-resume", 0, "PFC resume threshold, bytes")
		pfcWatch  = fs.Float64("pfc-watchdog", 0, "flag pauses sustained this many seconds (0: off)")

		flags = cli.Register(fs, false)
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(code int, format string, a ...any) int {
		fmt.Fprintf(stderr, "packetsim: "+format+"\n", a...)
		return code
	}

	// Refuse every bad value and combination before anything is built, so
	// a mistyped flag ends in one line naming it rather than a panic deep
	// in the simulator.
	switch {
	case *proto != "dcqcn" && *proto != "timely" && *proto != "patched":
		return fail(2, "unknown -proto %q", *proto)
	case *n < 0:
		return fail(2, "-n must be >= 0, got %d", *n)
	case !(*bw > 0) || math.IsInf(*bw, 1):
		return fail(2, "-bw must be a finite positive rate, got %g", *bw)
	case !(*lossRate >= 0 && *lossRate <= 1):
		return fail(2, "-loss must be in [0,1], got %g", *lossRate)
	case !(*ctrlLoss >= 0 && *ctrlLoss <= 1):
		return fail(2, "-ctrl-loss must be in [0,1], got %g", *ctrlLoss)
	case !(*oversub >= 1) || math.IsInf(*oversub, 1):
		return fail(2, "-oversub must be a finite ratio >= 1, got %g", *oversub)
	case *bgFlows < 0:
		return fail(2, "-bg-flows must be >= 0, got %d", *bgFlows)
	case *bgFlows > 0 && *proto != "dcqcn":
		return fail(2, "-bg-flows needs -proto dcqcn (the aggregate is a DCQCN fluid model)")
	}
	for _, c := range []struct {
		name string
		v    int
	}{{"-seg", *seg}, {"-qcap", *qcap}, {"-pfc-pause", *pfcPause}, {"-pfc-resume", *pfcResume}} {
		if c.v < 0 {
			return fail(2, "%s must be >= 0, got %d", c.name, c.v)
		}
	}
	// Every flag in seconds becomes a des.Duration, so it must convert
	// to one: finite, not negative, inside the int64-nanosecond range,
	// and at least 1 ns where a zero would stall the run.
	for _, c := range []struct {
		name  string
		v     float64
		least des.Duration
	}{
		{"-extra-delay", *extraDelay, 0}, {"-jitter", *jitter, 0}, {"-rto", *rto, 0},
		{"-pfc-watchdog", *pfcWatch, 0}, {"-sample", *sample, 1}, {"-horizon", *horizon, 1},
	} {
		if !cli.DurationOK(c.v, c.least) {
			return fail(2, "%s must be from %gs to 9.2e9s, got %g", c.name, c.least.Seconds(), c.v)
		}
	}
	if err := flags.Check(); err != nil {
		return fail(2, "%v", err)
	}
	// Flags the selected topology's builder has no hook for are refused
	// instead of silently ignored.
	unsupported, ok := map[string][]string{
		"star":       nil,
		"dumbbell":   {"-extra-delay"},
		"parkinglot": {"-extra-delay", "-jitter", "-qcap"},
		"clos":       {"-extra-delay", "-jitter"},
	}[*topology]
	if !ok {
		return fail(2, "unknown -topology %q", *topology)
	}
	set := map[string]bool{"-extra-delay": *extraDelay != 0, "-jitter": *jitter != 0, "-qcap": *qcap != 0}
	for _, name := range unsupported {
		if set[name] {
			return fail(2, "%s is not supported with -topology %s", name, *topology)
		}
	}
	if *topology == "parkinglot" {
		if *hops < 2 {
			return fail(2, "-topology parkinglot needs -hops >= 2, got %d", *hops)
		}
		if *n > *hops {
			return fail(2, "-topology parkinglot has one sender per switch: -n %d needs -hops >= %d", *n, *n)
		}
	}
	var startRates []float64
	if *rates != "" {
		for _, f := range strings.Split(*rates, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				return fail(2, "bad -rates: %v", err)
			}
			if !(v >= 0) || math.IsInf(v, 1) {
				return fail(2, "bad -rates entry %g: want a finite rate >= 0 (0: the protocol's default)", v)
			}
			startRates = append(startRates, v)
		}
		if len(startRates) != *n {
			return fail(2, "-rates has %d entries, -n is %d", len(startRates), *n)
		}
	}
	var flaps []fault.Flap
	if *flapSpec != "" {
		parts := strings.Split(*flapSpec, ",")
		if len(parts) != 2 {
			return fail(2, "bad -flap %q, want down,up seconds", *flapSpec)
		}
		down, err1 := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
		up, err2 := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
		if err1 != nil || err2 != nil {
			return fail(2, "bad -flap %q: %v %v", *flapSpec, err1, err2)
		}
		if !cli.DurationOK(down, 0) || !cli.DurationOK(up, 0) || (up != 0 && up <= down) {
			return fail(2, "bad -flap %q: want seconds down >= 0 and up 0 or after down", *flapSpec)
		}
		flaps = append(flaps, fault.Flap{
			DownAt: des.Time(des.DurationFromSeconds(down)),
			UpAt:   des.Time(des.DurationFromSeconds(up)),
		})
	}
	// Go-back-N recovery tracks sequence state the prefilled warm-start
	// segments would bypass, so the two are mutually exclusive.
	if *warmStart {
		switch {
		case *n < 1:
			return fail(2, "-warm-start needs -n >= 1, got %d", *n)
		case *recovery:
			return fail(2, "-warm-start is incompatible with -recovery (prefilled segments bypass go-back-N tracking)")
		case startRates != nil:
			return fail(2, "-warm-start and -rates both set start rates; pick one")
		case *proto != "dcqcn" && *proto != "patched":
			return fail(2, "-warm-start supports -proto dcqcn or patched, not %q", *proto)
		}
	}

	sess, err := flags.Open("packetsim", *seed, *proto, stderr)
	if err != nil {
		return fail(1, "%v", err)
	}
	defer sess.Close()
	observer := sess.Observer

	// The DCQCN operating point in paper units: it supplies the marker,
	// the warm start and the background aggregate's parameters. The
	// links keep the flag's bytes/s value.
	bwBytes := *bw / 8
	sc := hybrid.NewDCQCNScenario(*n, *seed)
	sc.Par.C = bwBytes / hybrid.MTU
	sc.Ingress = *ingress
	nw := netsim.New(*seed)
	if observer != nil {
		nw.SetObserver(observer)
	}
	var mark netsim.MarkerFactory
	if *proto == "dcqcn" {
		mark = sc.Marker(nw)
	}
	// fab abstracts the wired topology down to what the flow/fault/output
	// machinery needs: who sends, who receives, which port is the
	// bottleneck the TSV tracks, and which switches exist (watchdog,
	// buffer-drop accounting). The default star build is unchanged, so
	// default invocations stay byte-identical.
	link := netsim.LinkConfig{Bandwidth: bwBytes, PropDelay: des.Microsecond}
	pfc := netsim.PFCConfig{PauseBytes: *pfcPause, ResumeBytes: *pfcResume}
	var fab fabric
	switch *topology {
	case "star":
		star := netsim.NewStar(nw, netsim.StarConfig{
			Senders:        *n,
			Link:           link,
			Mark:           mark,
			CtrlExtraDelay: des.DurationFromSeconds(*extraDelay),
			CtrlJitterMax:  des.DurationFromSeconds(*jitter),
			PFC:            pfc,
			SwitchQueueCap: *qcap,
		})
		fab = fabric{star.Senders, star.Receiver, star.Bottleneck,
			[]*netsim.Switch{star.Switch}}
	case "dumbbell":
		d := netsim.NewDumbbell(nw, netsim.DumbbellConfig{
			Senders: *n, Receivers: 1,
			Link:           link,
			Mark:           mark,
			CtrlJitterMax:  des.DurationFromSeconds(*jitter),
			PFC:            pfc,
			SwitchQueueCap: *qcap,
		})
		fab = fabric{d.Senders, d.Receivers[0], d.Bottleneck,
			[]*netsim.Switch{d.SW1, d.SW2}}
	case "parkinglot":
		pl := netsim.NewParkingLot(nw, netsim.ParkingLotConfig{
			Hops: *hops, Link: link, Mark: mark, PFC: pfc,
		})
		// Every flow converges on the last switch's receiver, so the final
		// trunk is the shared bottleneck the long flow crosses end to end.
		fab = fabric{pl.Senders[:*n], pl.Recvs[*hops-1],
			pl.Trunks[len(pl.Trunks)-1], pl.Switches}
	case "clos":
		cl, err := topo.NewClos(nw, topo.ClosConfig{
			Radix: *radix, Tiers: *tiers, Oversub: *oversub,
			HostLink:       link,
			Mark:           mark,
			PFC:            pfc,
			SwitchQueueCap: *qcap,
			ECMPSeed:       *seed,
		})
		if err != nil {
			return fail(2, "-topology clos: %v", err)
		}
		last := len(cl.Hosts) - 1
		if *n >= len(cl.Hosts) {
			return fail(2, "-topology clos (radix %d, tiers %d) has %d hosts; -n %d leaves no receiver",
				*radix, *tiers, len(cl.Hosts), *n)
		}
		// Senders are the first n hosts, the aggregator is the last host —
		// in another pod, so the incast crosses the ECMP core — and its
		// leaf→host port is the bottleneck the TSV tracks.
		fab = fabric{cl.Hosts[:*n], cl.Hosts[last], cl.HostPorts[last], cl.Switches()}
	}

	// Equilibrium warm start (internal/hybrid): solve the analytic fixed
	// point for this operating point and hand it to the endpoints and the
	// bottleneck queue below.
	var warm *hybrid.WarmStart
	if *warmStart {
		switch *proto {
		case "dcqcn":
			w, err := hybrid.DCQCNWarmStart(sc.Par)
			if err != nil {
				return fail(1, "%v", err)
			}
			// The analytic fixed point assumes the extended RED ramp;
			// the packet marker cliffs to p=1 above Kmax, so a q* past
			// Kmax prefills above the packet equilibrium and the run
			// drains through a transient instead of skipping it.
			if w.FP.Q > sc.Par.Kmax {
				fmt.Fprintf(stderr, "packetsim: warm-start: analytic q* (%.0f packets) exceeds RED Kmax (%.0f); "+
					"this operating point is outside the validated ramp — "+
					"expect a draining transient (try a higher -bw, e.g. 40e9)\n",
					w.FP.Q, sc.Par.Kmax)
			}
			warm = w
		case "patched":
			cfg := fluid.DefaultPatchedTimelyConfig(*n)
			cfg.C = bwBytes
			w, err := hybrid.TimelyWarmStart(cfg)
			if err != nil {
				return fail(1, "%v", err)
			}
			warm = w
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
		p := dcqcn.DefaultParams()
		p.Recovery = *recovery
		p.RTO = des.DurationFromSeconds(*rto)
		if _, err := dcqcn.NewEndpoint(fab.receiver, p); err != nil {
			return fail(1, "%v", err)
		}
		var senders []*dcqcn.Sender
		for i, h := range fab.senders {
			ep, err := dcqcn.NewEndpoint(h, p)
			if err != nil {
				return fail(1, "%v", err)
			}
			s, err := ep.NewFlow(i, fab.receiver.ID(), -1, 0)
			if err != nil {
				return fail(1, "%v", err)
			}
			rate[i] = s.Rate
			retx[i] = func() int64 { return s.Recovery().RetxBytes }
			auxProbes = append(auxProbes, probeSignal{fmt.Sprintf("alpha%d", i), s.Alpha})
			senders = append(senders, s)
		}
		if warm != nil {
			if err := warm.ApplyDCQCN(senders); err != nil {
				return fail(1, "%v", err)
			}
		}
	case "timely", "patched":
		p := timely.DefaultParams()
		if *proto == "patched" {
			p = timely.DefaultPatchedParams()
		}
		p.Burst = *burst
		if *seg > 0 {
			p.Seg = *seg
		}
		p.Recovery = *recovery
		p.RTO = des.DurationFromSeconds(*rto)
		if _, err := timely.NewEndpoint(fab.receiver, p); err != nil {
			return fail(1, "%v", err)
		}
		for i, h := range fab.senders {
			ep, err := timely.NewEndpoint(h, p)
			if err != nil {
				return fail(1, "%v", err)
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
				return fail(1, "%v", err)
			}
			rate[i] = s.Rate
			retx[i] = func() int64 { return s.Recovery().RetxBytes }
			auxProbes = append(auxProbes, probeSignal{fmt.Sprintf("rtt_s%d", i),
				func() float64 { return s.RTT().Seconds() }})
		}
	}

	// Assemble the fault plan: data loss and flaps on the bottleneck,
	// control loss on the receiver's NIC (where acks/NACKs/CNPs originate).
	plan := &fault.Plan{Seed: *faultSeed}
	bn := fault.LinkFaults{Port: fab.bottleneck, Flaps: flaps}
	if *lossRate > 0 {
		bn.Loss = append(bn.Loss, fault.Loss{Kinds: fault.SelData, Rate: *lossRate})
	}
	if len(bn.Loss)+len(bn.Flaps) > 0 {
		plan.Links = append(plan.Links, bn)
	}
	if *ctrlLoss > 0 {
		plan.Links = append(plan.Links, fault.LinkFaults{
			Port: fab.receiver.Port(),
			Loss: []fault.Loss{{Kinds: fault.SelCtrl, Rate: *ctrlLoss}},
		})
	}
	var applied *fault.Applied
	if len(plan.Links) > 0 {
		applied = plan.Apply(nw)
	}
	var wd *netsim.PFCWatchdog
	if *pfcWatch > 0 {
		wd = netsim.NewPFCWatchdog(nw.Sim, des.DurationFromSeconds(*pfcWatch))
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

	// Warm-start the bottleneck queue and attach the optional fluid
	// background aggregate; the prefilled segments are ordinary queued
	// packets.
	if warm != nil {
		flows := make([]hybrid.PrefillFlow, *n)
		for i, h := range fab.senders {
			flows[i] = hybrid.PrefillFlow{Flow: i, Src: h.ID(), Dst: fab.receiver.ID()}
		}
		warm.Prefill(fab.bottleneck, flows)
	}
	var bg *hybrid.BackgroundAggregate
	if *bgFlows > 0 {
		b, err := hybrid.AttachBackground(fab.bottleneck, hybrid.BackgroundConfig{
			Flows: *bgFlows, Par: sc.Par, ColdStart: warm == nil,
		})
		if err != nil {
			return fail(1, "%v", err)
		}
		bg = b
	}

	out := bufio.NewWriter(stdout)
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
	nw.Sim.Every(0, des.DurationFromSeconds(*sample), func() {
		fmt.Fprintf(out, "%.6f\t%d", nw.Sim.Now().Seconds(), qBytes())
		for i := 0; i < *n; i++ {
			fmt.Fprintf(out, "\t%.6g", rate[i]())
		}
		fmt.Fprintln(out)
	})
	nw.RunUntil(des.Time(des.DurationFromSeconds(*horizon)))

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
	if err := out.Flush(); err != nil {
		return fail(1, "%v", err)
	}
	if observer != nil && observer.Check != nil {
		observer.Check.Finish(nw.Sim.Now())
	}
	return sess.Finish()
}

// fabric is the topology-independent view the rest of run drives: long
// flows go senders → receiver, the bottleneck port's queue is the TSV
// series, and switches carry the watchdog and drop accounting.
type fabric struct {
	senders    []*netsim.Host
	receiver   *netsim.Host
	bottleneck *netsim.Port
	switches   []*netsim.Switch
}

func injectedDrops(a *fault.Applied) int64 {
	if a == nil {
		return 0
	}
	return a.Drops()
}
