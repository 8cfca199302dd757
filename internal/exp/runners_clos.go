package exp

// Datacenter-fabric scenarios: the paper's protocols on the topologies they
// actually deploy on. The dumbbell experiments isolate the control loops;
// these runs put DCQCN and TIMELY on generated Clos fabrics (internal/topo)
// under the traffic patterns that define datacenter congestion — N-to-1
// incast at a leaf's host port, all-to-all shuffle across the ECMP core,
// and sustained Poisson flow churn — and measure what the dumbbell cannot
// show: PFC pause trees climbing the tiers and multipath load balance.

import (
	"fmt"

	"ecndelay/internal/des"
	"ecndelay/internal/hybrid"
	"ecndelay/internal/netsim"
	"ecndelay/internal/obs"
	"ecndelay/internal/stats"
	"ecndelay/internal/topo"
	"ecndelay/internal/workload"
)

func init() {
	register(Runner{
		ID: "closincast", Title: "Incast degradation on a 3-tier Clos: FCT and PFC pause time vs fan-in",
		Figure: "fabric extension", Run: runClosIncast,
	})
	register(Runner{
		ID: "closshuffle", Title: "All-to-all shuffle on a leaf-spine fabric: completion, fairness, ECMP balance",
		Figure: "fabric extension", Run: runClosShuffle,
	})
	register(Runner{
		ID: "closload", Title: "Streaming Poisson flow churn on a 3-tier Clos (lazy arrival generation)",
		Figure: "fabric extension", Run: runClosLoad,
	})
}

// stormThreshold is the PFC watchdog's sustained-pause bar.
const stormThreshold = 100 * des.Microsecond

// closRunConfig drives one protocol run on a generated fabric. Exactly one
// of Flows (pre-materialised pattern) or Stream (lazy arrivals, pulled as
// simulated time reaches each one) supplies the traffic; Sender/Recv
// indexes are host indexes into the fabric.
type closRunConfig struct {
	Protocol Protocol
	Fabric   topo.ClosConfig

	Flows      []workload.Flow
	Stream     *workload.PoissonStream
	StreamSeed int64 // rng seed driving Stream draws
	// RecvOf maps a flow to its receiving host index (nil: Flow.Recv
	// verbatim). closload uses it to keep uniform pairings off self-flows.
	RecvOf func(f workload.Flow) int

	Horizon float64 // last second in which flows may start
	Drain   float64 // extra simulated seconds to let flows finish
	Seed    int64

	// ProbeHost selects whose leaf→host egress queue the run samples
	// for the observer's probe export.
	ProbeHost int

	Observer   *obs.NetObserver
	ProbeName  string // default "clos_queue_bytes"
	HistPrefix string
}

// closRunResult aggregates one fabric run.
type closRunResult struct {
	Clos      *topo.Clos
	AllFCT    []float64
	Generated int
	Completed int
	// PausedSec is cumulative PFC pause time summed over every fabric port
	// (the watchdog's PausedTotal) — the paper's "pause tree" cost.
	PausedSec float64
	// Storms counts pauses that persisted past stormThreshold.
	Storms int
	// PeakInFlight is the most flows simultaneously created-but-incomplete;
	// under a Stream it stays near the true concurrency instead of the
	// whole-horizon flow count.
	PeakInFlight int
}

// runClos builds the fabric and its PFC watchdog, then plays the traffic
// through the flow-completion harness (one endpoint on every host, since
// every host of a fabric can be sender and receiver).
func runClos(cfg closRunConfig) (*closRunResult, error) {
	if (cfg.Flows == nil) == (cfg.Stream == nil) {
		return nil, fmt.Errorf("exp: clos run needs exactly one of Flows or Stream")
	}
	nw := netsim.New(cfg.Seed)
	nw.SetObserver(cfg.Observer)
	fabric := cfg.Fabric
	if cfg.Protocol == ProtoDCQCN {
		// The Table 1 RED ramp, which does not depend on the flow count.
		fabric.Mark = hybrid.NewDCQCNScenario(1, cfg.Seed).Marker(nw)
	}
	cl, err := topo.NewClos(nw, fabric)
	if err != nil {
		return nil, err
	}
	wd := netsim.NewPFCWatchdog(nw.Sim, stormThreshold)
	for _, sw := range cl.Switches() {
		wd.WatchSwitch(sw)
	}
	for _, h := range cl.Hosts {
		wd.WatchHost(h)
	}

	recvOf := cfg.RecvOf
	if recvOf == nil {
		recvOf = func(f workload.Flow) int { return f.Recv }
	}
	fr, err := newFlowRun(nw, cfg.Observer, cl.Hosts, cfg.Protocol, false, false, recvOf, cfg.HistPrefix)
	if err != nil {
		return nil, err
	}
	if cfg.Flows != nil {
		if _, err := fr.startAll(cfg.Flows); err != nil {
			return nil, err
		}
	} else {
		fr.stream(cfg.Stream, cfg.StreamSeed)
	}
	name := cfg.ProbeName
	if name == "" {
		name = "clos_queue_bytes"
	}
	// The report reads no series; the watched queue is sampled for the
	// observer's probe export.
	nw.Sample(queueSampleEvery, netsim.QueueSignal(name, cl.HostPorts[cfg.ProbeHost]))
	if err := fr.run(cfg.Horizon + cfg.Drain); err != nil {
		return nil, err
	}
	wd.Finish()
	return &closRunResult{
		Clos: cl, AllFCT: fr.fcts,
		Generated: fr.generated, Completed: fr.completed,
		PausedSec: wd.PausedTotal().Seconds(), Storms: wd.Storms(),
		PeakInFlight: fr.peakInFlight,
	}, nil
}

// closIncastFabric is the shared incast arena: the smallest 3-tier fat tree
// (k=4: 16 hosts, 8 leaves, 8 aggs, 4 spines), PFC thresholds low enough
// that a converging burst must push pauses up the tiers.
func closIncastFabric(link netsim.LinkConfig, seed int64) topo.ClosConfig {
	return topo.ClosConfig{
		Radix: 4, Tiers: 3,
		HostLink: link,
		PFC:      netsim.PFCConfig{PauseBytes: 50e3, ResumeBytes: 25e3},
		ECMPSeed: seed,
	}
}

var closLink = netsim.LinkConfig{Bandwidth: 10e9 / 8, PropDelay: des.Microsecond}

// runClosIncast sweeps the fan-in of a partition-aggregate incast converging
// on one host of a 3-tier Clos: every sender's flow crosses the ECMP core
// and funnels into a single leaf→host port. FCT degrades with fan-in for
// both protocols, but the PFC cost — pause seconds and sustained storms —
// is the fabric-level signature the paper's §3 PFC discussion predicts.
func runClosIncast(o Options) (*Report, error) {
	rep := &Report{ID: "closincast", Title: "Incast fan-in sweep on a k=4 fat tree (16 hosts, ECMP core)"}
	fanins := []int{4, 8, 15}
	size, rounds, interval := int64(64e3), 2, 2e-3
	drain := 0.05
	if o.Scale == Full {
		fanins = []int{2, 4, 8, 12, 15}
		size, rounds, interval = 256e3, 4, 5e-3
		drain = 0.3
	}
	tbl := Table{Cols: []string{"fan-in", "protocol", "p50 ms", "p99 ms", "pause ms", "storms"}}
	for _, n := range fanins {
		flows, err := workload.Incast(workload.IncastConfig{
			Fanin: n, Size: size, Start: 2e-4, Rounds: rounds, Interval: interval,
		})
		if err != nil {
			return nil, err
		}
		for _, proto := range []Protocol{ProtoDCQCN, ProtoTimely} {
			r, err := runClos(closRunConfig{
				Protocol: proto,
				Fabric:   closIncastFabric(closLink, o.Seed),
				Flows:    flows,
				// Senders are hosts 0..n-1; the aggregator sits in the last
				// pod so every flow crosses the spine tier.
				RecvOf:     func(workload.Flow) int { return 15 },
				Horizon:    2e-4 + float64(rounds)*interval,
				Drain:      drain,
				Seed:       o.Seed,
				ProbeHost:  15,
				Observer:   o.Observer,
				ProbeName:  fmt.Sprintf("clos_queue.N%d.%s", n, proto),
				HistPrefix: fmt.Sprintf("closincast.N%d.%s.", n, proto),
			})
			if err != nil {
				return nil, err
			}
			p50, err := stats.Percentile(r.AllFCT, 50)
			if err != nil {
				return nil, err
			}
			p99, _ := stats.Percentile(r.AllFCT, 99)
			tbl.Rows = append(tbl.Rows, []string{
				fmt.Sprint(n), proto.String(),
				f3(p50 * 1e3), f3(p99 * 1e3), f3(r.PausedSec * 1e3), fmt.Sprint(r.Storms),
			})
			key := fmt.Sprintf("%s_N%d", proto, n)
			rep.AddMetric("p99_ms_"+key, p99*1e3)
			rep.AddMetric("pause_ms_"+key, r.PausedSec*1e3)
			rep.AddMetric("storms_"+key, float64(r.Storms))
			rep.AddMetric("unfinished_"+key, float64(r.Generated-r.Completed))
		}
	}
	rep.Tables = append(rep.Tables, tbl)
	rep.Notes = append(rep.Notes,
		"the incast bottleneck is the last leaf→host port, so congestion control quality decides whether backpressure stays at the edge or PFC pause trees climb into the ECMP core; pause ms and storms are that climb, measured")
	return rep, nil
}

// runClosShuffle plays the map→reduce all-to-all exchange on a leaf-spine
// fabric: every host sends an equal partition to every other host, so the
// run measures fabric-wide fairness (Jain across per-flow rates) and how
// evenly flow-consistent ECMP spreads the pairs over the spine uplinks.
func runClosShuffle(o Options) (*Report, error) {
	rep := &Report{ID: "closshuffle", Title: "All-to-all shuffle on a k=4 leaf-spine (8 hosts, 56 flows)"}
	size := int64(128e3)
	drain := 0.1
	if o.Scale == Full {
		size = 1e6
		drain = 0.5
	}
	flows, err := workload.Shuffle(workload.ShuffleConfig{Hosts: 8, Size: size, Start: 1e-4})
	if err != nil {
		return nil, err
	}
	tbl := Table{Cols: []string{"protocol", "shuffle ms", "Jain (flows)", "Jain (uplinks)", "pause ms"}}
	for _, proto := range []Protocol{ProtoDCQCN, ProtoTimely} {
		r, err := runClos(closRunConfig{
			Protocol: proto,
			Fabric: topo.ClosConfig{
				Radix: 4, Tiers: 2,
				HostLink: closLink,
				PFC:      netsim.PFCConfig{PauseBytes: 50e3, ResumeBytes: 25e3},
				ECMPSeed: o.Seed,
			},
			Flows:      flows,
			Horizon:    1e-4,
			Drain:      drain,
			Seed:       o.Seed,
			ProbeHost:  0,
			Observer:   o.Observer,
			ProbeName:  fmt.Sprintf("clos_queue.shuffle.%s", proto),
			HistPrefix: fmt.Sprintf("closshuffle.%s.", proto),
		})
		if err != nil {
			return nil, err
		}
		if r.Completed != len(flows) {
			return nil, fmt.Errorf("exp: shuffle finished %d of %d flows; raise Drain", r.Completed, len(flows))
		}
		// Shuffle completion is the straggler; fairness is over realised
		// per-flow rates (equal sizes, so 1/FCT up to a constant).
		done := 0.0
		rates := make([]float64, len(r.AllFCT))
		for i, fct := range r.AllFCT {
			if fct > done {
				done = fct
			}
			rates[i] = float64(size) / fct
		}
		var uplinkTx []float64
		for _, ups := range r.Clos.LeafUplinks {
			for _, p := range ups {
				uplinkTx = append(uplinkTx, float64(p.TxBytes))
			}
		}
		tbl.Rows = append(tbl.Rows, []string{
			proto.String(), f3(done * 1e3),
			f3(stats.JainIndex(rates)), f3(stats.JainIndex(uplinkTx)),
			f3(r.PausedSec * 1e3),
		})
		key := proto.String()
		rep.AddMetric("shuffle_ms_"+key, done*1e3)
		rep.AddMetric("jain_flows_"+key, stats.JainIndex(rates))
		rep.AddMetric("jain_uplinks_"+key, stats.JainIndex(uplinkTx))
		rep.AddMetric("pause_ms_"+key, r.PausedSec*1e3)
	}
	rep.Tables = append(rep.Tables, tbl)
	rep.Notes = append(rep.Notes,
		"Jain (uplinks) is over TxBytes of every leaf uplink: flow-consistent ECMP with per-switch salts spreads the 56 pairs across the spine mesh without splitting any single flow across paths")
	return rep, nil
}

// runClosLoad drives sustained Poisson flow churn (the §5.1 web-search mix)
// through a 3-tier Clos with the lazy arrival stream: flows are generated
// one event ahead of the simulation clock, so the run's memory scales with
// flows in flight rather than flows in the horizon — the shape that lets
// million-flow churn runs fit in RAM.
func runClosLoad(o Options) (*Report, error) {
	rep := &Report{ID: "closload", Title: "Poisson churn on a k=4 fat tree via the streaming arrival generator"}
	const hosts = 16
	capacity := closLink.Bandwidth * hosts // aggregate host ingress
	loadFactor, horizon, drain := 0.3, 0.01, 0.1
	if o.Scale == Full {
		loadFactor, horizon, drain = 0.5, 0.05, 0.5
	}
	tbl := Table{Cols: []string{"protocol", "flows", "done", "peak in-flight", "p50 ms", "p99 ms", "pause ms"}}
	for _, proto := range []Protocol{ProtoDCQCN, ProtoTimely} {
		stream, err := workload.NewPoissonStream(workload.Config{
			Load:     loadFactor * capacity,
			Capacity: capacity, // refuse configs past aggregate ingress
			Sizes:    workload.WebSearch(),
			Senders:  hosts, Receivers: hosts,
			Horizon: horizon,
			Seed:    o.Seed + 1,
		})
		if err != nil {
			return nil, err
		}
		r, err := runClos(closRunConfig{
			Protocol:   proto,
			Fabric:     closIncastFabric(closLink, o.Seed),
			Stream:     stream,
			StreamSeed: o.Seed + 1,
			// Uniform pairing may draw sender == receiver; shift those one
			// host over so every flow crosses the fabric.
			RecvOf: func(f workload.Flow) int {
				if f.Recv == f.Sender {
					return (f.Recv + 1) % hosts
				}
				return f.Recv
			},
			Horizon:    horizon,
			Drain:      drain,
			Seed:       o.Seed,
			ProbeHost:  0,
			Observer:   o.Observer,
			ProbeName:  fmt.Sprintf("clos_queue.load.%s", proto),
			HistPrefix: fmt.Sprintf("closload.%s.", proto),
		})
		if err != nil {
			return nil, err
		}
		p50, err := stats.Percentile(r.AllFCT, 50)
		if err != nil {
			return nil, err
		}
		p99, _ := stats.Percentile(r.AllFCT, 99)
		tbl.Rows = append(tbl.Rows, []string{
			proto.String(), fmt.Sprint(r.Generated), fmt.Sprint(r.Completed),
			fmt.Sprint(r.PeakInFlight), f3(p50 * 1e3), f3(p99 * 1e3), f3(r.PausedSec * 1e3),
		})
		key := proto.String()
		rep.AddMetric("flows_"+key, float64(r.Generated))
		rep.AddMetric("peak_inflight_"+key, float64(r.PeakInFlight))
		rep.AddMetric("p99_ms_"+key, p99*1e3)
		rep.AddMetric("pause_ms_"+key, r.PausedSec*1e3)
	}
	rep.Tables = append(rep.Tables, tbl)
	rep.Notes = append(rep.Notes,
		"peak in-flight stays far below the generated flow count: the PoissonStream materialises one arrival ahead of the clock, so churn length costs simulated time, not memory")
	return rep, nil
}
