package exp

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"ecndelay/internal/obs"
	"ecndelay/internal/sweep"
)

var update = flag.Bool("update", false, "rewrite golden testdata files")

// Fault injection under go-back-N recovery must not break any invariant:
// wire loss happens after the dequeue, so queue conservation, bounds, and
// the pool discipline all hold even while packets die and retransmit.
func TestFaultLossRunCleanInvariants(t *testing.T) {
	for _, proto := range []Protocol{ProtoDCQCN, ProtoTimely} {
		t.Run(proto.String(), func(t *testing.T) {
			o := obs.Full()
			r, err := RunFCT(FCTConfig{
				Protocol: proto, LoadFactor: 0.6,
				Horizon: 0.02, Warmup: 0.004, Drain: 0.2, Seed: 7,
				DataLossRate: 1e-3, CtrlLossRate: 1e-2,
				FaultSeed: 42, Recovery: true,
				Observer: o,
			})
			if err != nil {
				t.Fatal(err)
			}
			if r.WireDrops == 0 {
				t.Fatal("no injected loss; scenario not exercising the fault path")
			}
			// RunFCT already ran the Finish closure; Err reports the verdict.
			if err := o.Check.Err(); err != nil {
				t.Errorf("invariants violated under injected loss: %v", err)
			}
			if o.Trace.Count(obs.WireDrop) != r.WireDrops {
				t.Errorf("trace wire drops %d, result reports %d",
					o.Trace.Count(obs.WireDrop), r.WireDrops)
			}
			if o.Trace.Count(obs.Retx) == 0 {
				t.Error("recovery retransmitted nothing despite loss")
			}
		})
	}
}

// A finite-buffer run (tail drops instead of lossless PFC) is also clean:
// the BufDrop path never enqueued, so the books still balance.
func TestFiniteBufferRunCleanInvariants(t *testing.T) {
	o := obs.Full()
	r, err := RunFCT(FCTConfig{
		Protocol: ProtoDCQCN, LoadFactor: 0.9,
		Horizon: 0.02, Warmup: 0.004, Drain: 0.2, Seed: 3,
		SwitchQueueCap: 30000, Recovery: true,
		Observer: o,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.BufferDrops == 0 {
		t.Skip("no tail drops at this load; nothing to verify")
	}
	if err := o.Check.Err(); err != nil {
		t.Errorf("invariants violated with finite buffers: %v", err)
	}
	if o.Trace.Count(obs.BufDrop) != r.BufferDrops {
		t.Errorf("trace buf drops %d, result reports %d",
			o.Trace.Count(obs.BufDrop), r.BufferDrops)
	}
}

// Every runner that builds a packet network attaches Options.Observer to
// each network: observed by a registry, a checker and a probe set, each
// of the 22 records counters, breaks no invariant, exports the series it
// samples as probes under names no other series of the run shares, and
// still matches its pinned digest, so observing a run never changes what
// it reports (event counts included).
func TestEveryPacketRunnerObserved(t *testing.T) {
	if testing.Short() {
		t.Skip("packet-level runs take seconds each")
	}
	for _, id := range []string{
		"fig2", "fig5", "fig8", "fig9", "fig10", "fig12", "fig14", "fig15", "fig16", "fig17",
		"extmultihop", "extpfc", "extpi", "faultloss", "faultcnp", "auditloop",
		"closincast", "closshuffle", "closload", "crossval", "hybridwarm", "hybridbg",
	} {
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			o := &obs.NetObserver{Metrics: obs.NewRegistry(), Check: obs.NewChecker(), Probes: obs.NewProbeSet()}
			rep, err := mustRun(t, id, Options{Scale: Quick, Seed: 1, Observer: o})
			if err != nil {
				t.Fatal(err)
			}
			checkDigest(t, id, rep)
			counted := false
			for _, m := range o.Metrics.Snapshot() {
				counted = counted || m.Value > 0
			}
			if !counted {
				t.Error("the observer's registry counted nothing")
			}
			if err := o.Check.Err(); err != nil {
				t.Error(err)
			}
			// The export read back names one series per probe, each with a
			// sample: an empty probe exports no series, and probes sharing a
			// name export one.
			path := filepath.Join(t.TempDir(), "p.jsonl")
			var buf bytes.Buffer
			if err := o.Probes.WriteJSONL(&buf); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			series := 0
			if _, err := obs.ReadProbes(path, func(string, []obs.Sample, int64) { series++ }); err != nil {
				t.Fatal(err)
			}
			if n := len(o.Probes.Probes()); n == 0 || series != n {
				t.Errorf("%d probes export %d named series; want at least one, each non-empty under its own name", n, series)
			}
		})
	}
}

// goldenCfg is the fixed-seed scenario behind the golden trajectories: small
// enough to run in CI, long enough for the queue to shape up.
func goldenCfg(proto Protocol) FCTConfig {
	return FCTConfig{
		Protocol: proto, LoadFactor: 1.5, // overdriven so the queue builds
		Horizon: 0.01, Warmup: 0.002, Drain: 0.1, Seed: 42,
	}
}

// goldenProbeJSONL runs the golden scenario with a fresh observer and
// returns the canonical probe export.
func goldenProbeJSONL(t *testing.T, proto Protocol) []byte {
	t.Helper()
	o := &obs.NetObserver{Probes: obs.NewProbeSet()}
	cfg := goldenCfg(proto)
	// The golden files carry the same self-describing header the cmd
	// front-ends prepend, so a fixture names the run that produced it.
	o.Probes.SetHeader(obs.Header{Schema: "probe", Version: 1, Seed: cfg.Seed, Proto: proto.String()})
	cfg.Observer = o
	if _, err := RunFCT(cfg); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := o.Probes.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The probe trajectory of a fixed-seed run is a golden artifact: any drift
// in the simulator, the protocols, or the probe encoding shows up as a
// byte diff. Regenerate with: go test ./internal/exp -run Golden -update
func TestGoldenProbeTrajectories(t *testing.T) {
	for _, proto := range []Protocol{ProtoDCQCN, ProtoTimely} {
		t.Run(proto.String(), func(t *testing.T) {
			got := goldenProbeJSONL(t, proto)
			if len(got) == 0 {
				t.Fatal("probe export is empty")
			}
			path := filepath.Join("testdata", fmt.Sprintf("golden_probe_%s.jsonl", proto))
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("probe trajectory drifted from %s (%d vs %d bytes); regenerate with -update only if the change is intended",
					path, len(got), len(want))
			}
			// And a second run in the same process is byte-identical.
			if again := goldenProbeJSONL(t, proto); !bytes.Equal(got, again) {
				t.Error("same-seed rerun produced a different trajectory")
			}
		})
	}
}

// Two DCQCN experiments sharing one registry, as ecnbench runs
// them: each job's port and endpoint counters land under its own job
// prefix, so one -metrics file keeps the experiments apart instead of
// summing their networks' node-for-node counters.
func TestCountersCarryJobPrefix(t *testing.T) {
	shared := &obs.NetObserver{Metrics: obs.NewRegistry()}
	ids := []string{"fig5", "fig17"}
	jobs, _, err := SweepJobs(ids, Options{Scale: Quick, Observer: shared}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sweep.Run(sweep.Config{Workers: 2}, jobs, &sweep.MemorySink{}); err != nil {
		t.Fatal(err)
	}
	cnps := map[string]int64{}
	ports := map[string]int{}
	for _, m := range shared.Metrics.Snapshot() {
		job, name, _ := strings.Cut(m.Name, ".")
		if job != ids[0] && job != ids[1] {
			t.Fatalf("counter %q carries no job prefix", m.Name)
		}
		if strings.HasPrefix(name, "dcqcn.n") && strings.HasSuffix(name, ".cnp_rx") {
			cnps[job] += m.Value
		}
		if strings.HasPrefix(name, "port.n") {
			ports[job]++
		}
	}
	for _, id := range ids {
		if cnps[id] == 0 || ports[id] == 0 {
			t.Errorf("%s: %d CNPs received and %d port counters under its prefix, want both > 0",
				id, cnps[id], ports[id])
		}
	}
}

// One shared observer — invariant checker included — across concurrent
// sweep jobs whose networks all use identical node ids: each job runs on
// its own ForJob copy, as SweepJobs does, whose checker owns the job's
// books, and run tags keep the per-port books apart, so a healthy parallel
// sweep reports zero violations for any worker count. Each job also runs
// two FCT configs back to back against the same copy, covering sequential
// network reuse inside one job (the fig14/15/16 pattern).
func TestSharedCheckerAcrossSweepWorkers(t *testing.T) {
	shared := obs.Full()
	protos := []Protocol{ProtoDCQCN, ProtoTimely}
	jobs := make([]sweep.Job, len(protos))
	for i, proto := range protos {
		proto := proto
		jobs[i] = sweep.Job{
			ID: proto.String(),
			Run: func(int64) (map[string]float64, error) {
				jo := shared.ForJob(proto.String())
				for run := 0; run < 2; run++ {
					cfg := goldenCfg(proto)
					cfg.Seed += int64(run)
					cfg.Observer = jo
					cfg.ProbeName = fmt.Sprintf("queue_bytes.run%d", run)
					if _, err := RunFCT(cfg); err != nil {
						return nil, err
					}
				}
				return map[string]float64{"ok": 1}, nil
			},
		}
	}
	if _, err := sweep.Run(sweep.Config{Workers: 4}, jobs, &sweep.MemorySink{}); err != nil {
		t.Fatal(err)
	}
	if err := shared.Check.Err(); err != nil {
		t.Errorf("shared checker flagged a healthy parallel sweep: %v", err)
	}
}

// A shared ProbeSet exports byte-identically for any worker count once
// each job qualifies its probe names — the NetObserver.ForJob pattern
// SweepJobs and the cmd front-ends apply — because export order depends
// only on names, never on job scheduling.
func TestSharedProbeSetDeterministicAcrossWorkers(t *testing.T) {
	protos := []Protocol{ProtoDCQCN, ProtoTimely}
	runAll := func(workers int) []byte {
		shared := &obs.NetObserver{Probes: obs.NewProbeSet()}
		jobs := make([]sweep.Job, len(protos))
		for i, proto := range protos {
			proto := proto
			jobs[i] = sweep.Job{
				ID: proto.String(),
				Run: func(int64) (map[string]float64, error) {
					jo := *shared
					jo.ProbePrefix = proto.String() + "."
					cfg := goldenCfg(proto)
					cfg.Observer = &jo
					if _, err := RunFCT(cfg); err != nil {
						return nil, err
					}
					return map[string]float64{"ok": 1}, nil
				},
			}
		}
		if _, err := sweep.Run(sweep.Config{Workers: workers}, jobs, &sweep.MemorySink{}); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := shared.Probes.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	serial := runAll(1)
	parallel := runAll(4)
	if !bytes.Equal(serial, parallel) {
		t.Error("shared probe export differs between 1 and 4 sweep workers")
	}
	for _, proto := range protos {
		if !bytes.Contains(serial, []byte(fmt.Sprintf(`{"probe":"%s.queue_bytes"`, proto))) {
			t.Errorf("export is missing the %s-prefixed series", proto)
		}
	}
}

// The same trajectories through the sweep engine: each job owns a fresh
// observer, so the export is byte-identical whether jobs run on one worker
// or race across four.
func TestGoldenProbeAcrossSweepWorkers(t *testing.T) {
	protos := []Protocol{ProtoDCQCN, ProtoTimely}
	runAll := func(workers int) map[string][]byte {
		var mu sync.Mutex
		out := make(map[string][]byte)
		jobs := make([]sweep.Job, len(protos))
		for i, proto := range protos {
			proto := proto
			jobs[i] = sweep.Job{
				ID: proto.String(),
				Run: func(int64) (map[string]float64, error) {
					o := &obs.NetObserver{Probes: obs.NewProbeSet()}
					cfg := goldenCfg(proto)
					o.Probes.SetHeader(obs.Header{Schema: "probe", Version: 1, Seed: cfg.Seed, Proto: proto.String()})
					cfg.Observer = o
					if _, err := RunFCT(cfg); err != nil {
						return nil, err
					}
					var buf bytes.Buffer
					if err := o.Probes.WriteJSONL(&buf); err != nil {
						return nil, err
					}
					mu.Lock()
					out[proto.String()] = buf.Bytes()
					mu.Unlock()
					return map[string]float64{"ok": 1}, nil
				},
			}
		}
		if _, err := sweep.Run(sweep.Config{Workers: workers}, jobs, &sweep.MemorySink{}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	serial := runAll(1)
	parallel := runAll(4)
	for _, proto := range protos {
		if !bytes.Equal(serial[proto.String()], parallel[proto.String()]) {
			t.Errorf("%s: trajectory differs between 1 and 4 sweep workers", proto)
		}
		want, err := os.ReadFile(filepath.Join("testdata", fmt.Sprintf("golden_probe_%s.jsonl", proto)))
		if err != nil {
			t.Fatalf("%v (regenerate with -update)", err)
		}
		if !bytes.Equal(serial[proto.String()], want) {
			t.Errorf("%s: sweep-engine trajectory differs from the golden file", proto)
		}
	}
}
