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
	"ecndelay/internal/obs"
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

		flags = cli.Register(fs)
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
	case *rto != 0 && !*recovery:
		return fail(2, "-rto needs -recovery (it is the go-back-N retransmission timeout)")
	case *proto == "dcqcn" && *seg != 0:
		return fail(2, "-seg needs -proto timely or patched (DCQCN has no segments)")
	case *proto == "dcqcn" && *burst:
		return fail(2, "-burst needs -proto timely or patched (DCQCN paces per packet)")
	case *proto == "dcqcn" && *rates != "":
		return fail(2, "-rates needs -proto timely or patched (DCQCN flows start at line rate)")
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
	if des.DurationFromSeconds(*rto) > netsim.MaxRTO {
		return fail(2, "-rto must be at most %gs, so its 8x backoff cap fits the int64-nanosecond range, got %g",
			netsim.MaxRTO.Seconds(), *rto)
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
		var err error
		if startRates, err = cli.ParseFloats(*rates); err != nil {
			return fail(2, "bad -rates: %v (0 keeps the protocol's default)", err)
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

	// The DCQCN operating point in paper units: it supplies the marker,
	// the warm start and the background aggregate's parameters, and a
	// dcqcn run's export headers name it. With a background aggregate the
	// coupled system settles at the combined fixed point, so the headers
	// count its flows too. The links keep the flag's bytes/s value.
	bwBytes := *bw / 8
	sc := hybrid.NewDCQCNScenario(*n, *seed)
	sc.Par.C = bwBytes / hybrid.MTU
	sc.Ingress = *ingress
	run := obs.Header{Seed: *seed, Proto: *proto}
	if *proto == "dcqcn" {
		op := sc.Par
		op.N += *bgFlows
		run.Op = &op
	}

	sess, err := flags.Open("packetsim", run, stderr)
	if err != nil {
		return fail(1, "%v", err)
	}
	defer sess.Close()
	observer := sess.Observer

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
	// buffer-drop accounting).
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
		fab = fabric{hybrid.Fabric{Senders: star.Senders, Receiver: star.Receiver, Bottleneck: star.Bottleneck},
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
		fab = fabric{hybrid.Fabric{Senders: d.Senders, Receiver: d.Receivers[0], Bottleneck: d.Bottleneck},
			[]*netsim.Switch{d.SW1, d.SW2}}
	case "parkinglot":
		pl := netsim.NewParkingLot(nw, netsim.ParkingLotConfig{
			Hops: *hops, Link: link, Mark: mark, PFC: pfc,
		})
		// Every flow converges on the last switch's receiver, so the final
		// trunk is the shared bottleneck the long flow crosses end to end.
		fab = fabric{hybrid.Fabric{Senders: pl.Senders[:*n], Receiver: pl.Recvs[*hops-1],
			Bottleneck: pl.Trunks[len(pl.Trunks)-1]}, pl.Switches}
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
		fab = fabric{hybrid.Fabric{Senders: cl.Hosts[:*n], Receiver: cl.Hosts[last], Bottleneck: cl.HostPorts[last]},
			cl.Switches()}
	}

	rate := make([]func() float64, *n)
	// Each sender's shared transport, for the retransmission summary.
	transports := make([]*netsim.Sender, *n)
	// The probe signals the TSV has no column for (DCQCN α, TIMELY RTT),
	// recorded beside the queue and rates when -probe is set.
	var signals []netsim.Signal
	// The long flows come from the scenario's Attach, the wiring every
	// experiment's star uses. With -warm-start the analytic fixed point
	// (internal/hybrid) arms the senders and prefills the bottleneck queue.
	var warm *hybrid.WarmStart
	switch *proto {
	case "dcqcn":
		if *warmStart {
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
		}
		p := dcqcn.DefaultParams()
		p.Recovery = *recovery
		p.RTO = des.DurationFromSeconds(*rto)
		senders, err := sc.Attach(fab.Fabric, p, warm)
		if err != nil {
			return fail(1, "%v", err)
		}
		for i, s := range senders {
			rate[i] = s.Rate
			transports[i] = &s.Sender
			signals = append(signals, netsim.Signal{Name: fmt.Sprintf("alpha%d", i), Read: s.Alpha})
		}
	case "timely", "patched":
		tsc := hybrid.TimelyScenario{Cfg: fluid.DefaultTimelyConfig(*n), Par: timely.DefaultParams(), Seed: *seed}
		if *proto == "patched" {
			tsc = hybrid.NewTimelyScenario(*n, *seed)
		}
		tsc.Cfg.C = bwBytes
		tsc.Cfg.InitialRates = startRates
		tsc.Par.Burst = *burst
		if *seg > 0 {
			tsc.Par.Seg = *seg
		}
		tsc.Par.Recovery = *recovery
		tsc.Par.RTO = des.DurationFromSeconds(*rto)
		if *warmStart {
			w, err := hybrid.TimelyWarmStart(tsc.Cfg)
			if err != nil {
				return fail(1, "%v", err)
			}
			warm = w
		}
		senders, err := tsc.Attach(fab.Fabric, warm)
		if err != nil {
			return fail(1, "%v", err)
		}
		for i, s := range senders {
			rate[i] = s.Rate
			transports[i] = &s.Sender
			signals = append(signals, netsim.Signal{Name: fmt.Sprintf("rtt_s%d", i),
				Read: func() float64 { return s.RTT().Seconds() }})
		}
	}

	// Assemble the fault plan: data loss and flaps on the bottleneck,
	// control loss on the receiver's NIC (where acks/NACKs/CNPs originate).
	plan := &fault.Plan{Seed: *faultSeed}
	bn := fault.LinkFaults{Port: fab.Bottleneck, Flaps: flaps}
	if *lossRate > 0 {
		bn.Loss = append(bn.Loss, fault.Loss{Kinds: fault.SelData, Rate: *lossRate})
	}
	if len(bn.Loss)+len(bn.Flaps) > 0 {
		plan.Links = append(plan.Links, bn)
	}
	if *ctrlLoss > 0 {
		plan.Links = append(plan.Links, fault.LinkFaults{
			Port: fab.Receiver.Port(),
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
		for _, h := range fab.Senders {
			wd.WatchHost(h)
		}
		wd.WatchHost(fab.Receiver)
	}

	// The optional fluid background aggregate starts at its own fixed
	// point when the packet flows are warm, and cold when they are not.
	var bg *hybrid.BackgroundAggregate
	if *bgFlows > 0 {
		b, err := hybrid.AttachBackground(fab.Bottleneck, hybrid.BackgroundConfig{
			Flows: *bgFlows, Par: sc.Par, ColdStart: warm == nil,
		})
		if err != nil {
			return fail(1, "%v", err)
		}
		bg = b
	}

	out := bufio.NewWriter(stdout)
	qBytes := func() int { return fab.Bottleneck.Queue().Bytes() }
	if bg != nil {
		// With a background aggregate the marking view (real + fluid
		// bytes) is the trajectory of interest; the extra comment keeps
		// aggregate-free runs byte-identical.
		fmt.Fprintf(out, "# bg-flows: %d fluid background flows; q_bytes is the combined marking view\n", *bgFlows)
		qBytes = func() int { return fab.Bottleneck.Queue().MarkBytes() }
	}
	fmt.Fprint(out, "# t\tq_bytes")
	for i := 0; i < *n; i++ {
		fmt.Fprintf(out, "\trate%d", i)
	}
	fmt.Fprintln(out)
	// With -probe the TSV ticker also records the probes, so -sample sets
	// both: the real queue (the TSV's q_bytes is the marking view under
	// -bg-flows), each flow's rate and its α or RTT.
	var probes []*obs.Probe
	if observer != nil && observer.Probes != nil {
		signals = append(signals, netsim.QueueSignal("queue_bytes", fab.Bottleneck))
		for i, fn := range rate {
			signals = append(signals, netsim.Signal{Name: fmt.Sprintf("rate%d", i), Read: fn})
		}
		for _, sg := range signals {
			probes = append(probes, observer.Probes.NewProbe(sg.Name, 0))
		}
	}
	nw.Sim.Every(0, des.DurationFromSeconds(*sample), func() {
		t := nw.Sim.Now().Seconds()
		fmt.Fprintf(out, "%.6f\t%d", t, qBytes())
		for i := 0; i < *n; i++ {
			fmt.Fprintf(out, "\t%.6g", rate[i]())
		}
		fmt.Fprintln(out)
		for i, p := range probes {
			p.Record(t, signals[i].Read())
		}
	})
	nw.RunUntil(des.Time(des.DurationFromSeconds(*horizon)))

	// A trailing comment block carries the fault/degradation summary, so
	// piping the TSV elsewhere still works and a determinism check can
	// diff the whole output byte for byte.
	if applied != nil || wd != nil || *qcap > 0 || *recovery {
		var retxSum int64
		for _, t := range transports {
			retxSum += t.Recovery().RetxBytes
		}
		var bufDrops int64
		for _, sw := range fab.switches {
			for _, p := range sw.Ports() {
				bufDrops += p.Queue().Drops()
			}
		}
		wireDrops := fab.Bottleneck.WireDrops() + fab.Receiver.Port().WireDrops()
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

// fabric is the topology-independent view the rest of run drives: the
// scenario's long flows go Senders → Receiver, the Bottleneck port's queue
// is the TSV series, and switches carry the watchdog and drop accounting.
type fabric struct {
	hybrid.Fabric
	switches []*netsim.Switch
}

func injectedDrops(a *fault.Applied) int64 {
	if a == nil {
		return 0
	}
	return a.Drops()
}
