package exp

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"ecndelay/internal/des"
	"ecndelay/internal/netsim"
	"ecndelay/internal/obs"
	"ecndelay/internal/sweep"
	"ecndelay/internal/workload"
)

// closGoldenCfg is the fixed-seed fabric scenario behind the Clos golden
// trajectory: an 8:1 incast on the smallest 3-tier fat tree, small enough
// for CI but deep enough that the burst must cross the ECMP core and the
// probe sees the aggregator's queue build and drain.
func closGoldenCfg(proto Protocol) (closRunConfig, error) {
	flows, err := workload.Incast(workload.IncastConfig{
		Fanin: 8, Size: 64e3, Start: 2e-4, Rounds: 2, Interval: 2e-3,
	})
	if err != nil {
		return closRunConfig{}, err
	}
	return closRunConfig{
		Protocol:  proto,
		Fabric:    closIncastFabric(closLink, 42),
		Flows:     flows,
		RecvOf:    func(workload.Flow) int { return 15 },
		Horizon:   2e-4 + 2*2e-3,
		Drain:     0.05,
		Seed:      42,
		ProbeHost: 15,
	}, nil
}

func closGoldenProbeJSONL(t *testing.T, proto Protocol) []byte {
	t.Helper()
	o := &obs.NetObserver{Probes: obs.NewProbeSet(), ProbeEvery: 100 * des.Microsecond}
	cfg, err := closGoldenCfg(proto)
	if err != nil {
		t.Fatal(err)
	}
	// Same self-describing header the cmd front-ends prepend.
	o.Probes.SetHeader(obs.Header{Schema: "probe", Version: 1, Seed: cfg.Seed, Proto: proto.String()})
	cfg.Observer = o
	if _, err := runClos(cfg); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := o.Probes.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The fixed-seed Clos incast trajectory is a golden artifact exactly like
// the dumbbell ones: any drift in the topology generator, ECMP hashing, or
// the protocols on a multipath fabric shows as a byte diff. Regenerate with:
// go test ./internal/exp -run GoldenClos -update
func TestGoldenClosProbeTrajectory(t *testing.T) {
	for _, proto := range []Protocol{ProtoDCQCN, ProtoTimely} {
		t.Run(proto.String(), func(t *testing.T) {
			got := closGoldenProbeJSONL(t, proto)
			if len(got) == 0 {
				t.Fatal("probe export is empty")
			}
			path := filepath.Join("testdata", fmt.Sprintf("golden_probe_closincast_%s.jsonl", proto))
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("Clos probe trajectory drifted from %s (%d vs %d bytes); regenerate with -update only if the change is intended",
					path, len(got), len(want))
			}
			if again := closGoldenProbeJSONL(t, proto); !bytes.Equal(got, again) {
				t.Error("same-seed rerun produced a different trajectory")
			}
		})
	}
}

// The same trajectories through the sweep engine: byte-identical whether
// the two protocol jobs share one worker or race across four, and equal to
// the golden files — the fabric runs compose with parallel sweeps exactly
// like the dumbbell ones.
func TestGoldenClosAcrossSweepWorkers(t *testing.T) {
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
					got := closGoldenProbeJSONL(t, proto)
					mu.Lock()
					out[proto.String()] = got
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
			t.Errorf("%s: Clos trajectory differs between 1 and 4 sweep workers", proto)
		}
		want, err := os.ReadFile(filepath.Join("testdata", fmt.Sprintf("golden_probe_closincast_%s.jsonl", proto)))
		if err != nil {
			t.Fatalf("%v (regenerate with -update)", err)
		}
		if !bytes.Equal(serial[proto.String()], want) {
			t.Errorf("%s: sweep-engine Clos trajectory differs from the golden file", proto)
		}
	}
}

// A full-observer Clos incast run — counters, tracing, histograms, and the
// invariant checker — stays clean: conservation holds through every fabric
// queue while PFC pauses climb tiers, and the run actually paused.
func TestClosIncastRunCleanInvariants(t *testing.T) {
	for _, proto := range []Protocol{ProtoDCQCN, ProtoTimely} {
		t.Run(proto.String(), func(t *testing.T) {
			o := obs.Full()
			cfg, err := closGoldenCfg(proto)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Observer = o
			r, err := runClos(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if r.Completed != r.Generated {
				t.Errorf("only %d of %d incast flows finished", r.Completed, r.Generated)
			}
			if o.Trace.Count(obs.Pause) == 0 {
				t.Error("incast at these PFC thresholds never paused; scenario too weak")
			}
			if err := o.Check.Err(); err != nil {
				t.Errorf("invariants violated on the Clos incast: %v", err)
			}
		})
	}
}

// The three registered fabric experiments run end to end at Quick scale and
// report their headline metrics.
func TestClosRunnersQuick(t *testing.T) {
	wantMetrics := map[string][]string{
		"closincast":  {"p99_ms_DCQCN_N8", "pause_ms_TIMELY_N15"},
		"closshuffle": {"jain_uplinks_DCQCN", "shuffle_ms_TIMELY"},
		"closload":    {"peak_inflight_DCQCN", "p99_ms_TIMELY"},
	}
	for id, keys := range wantMetrics {
		t.Run(id, func(t *testing.T) {
			r, ok := Get(id)
			if !ok {
				t.Fatalf("experiment %q not registered", id)
			}
			rep, err := r.Run(Options{Scale: Quick, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			checkDigest(t, id, rep)
			for _, k := range keys {
				if _, ok := rep.Metrics[k]; !ok {
					t.Errorf("report is missing metric %q (have %d metrics)", k, len(rep.Metrics))
				}
			}
			if len(rep.Tables) == 0 || len(rep.Tables[0].Rows) == 0 {
				t.Error("report has no table rows")
			}
		})
	}
}

// The streaming arrival path generates exactly the flows Generate would,
// and peak in-flight stays well under the total — the laziness is real.
func TestClosLoadStreamingBounded(t *testing.T) {
	rep, err := runClosLoad(Options{Scale: Quick, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, proto := range []Protocol{ProtoDCQCN, ProtoTimely} {
		flows := rep.Metrics["flows_"+proto.String()]
		peak := rep.Metrics["peak_inflight_"+proto.String()]
		if flows < 10 {
			t.Fatalf("%s: only %g flows generated; scenario too weak", proto, flows)
		}
		if peak >= flows {
			t.Errorf("%s: peak in-flight %g not below generated %g; stream not lazy", proto, peak, flows)
		}
	}
}

// A stream flow that fails to start ends the run with its error, and the
// stream pulls no further arrival.
func TestFlowRunStreamError(t *testing.T) {
	nw := netsim.New(1)
	d := netsim.NewDumbbell(nw, netsim.DumbbellConfig{Senders: 2, Receivers: 2, Link: closLink})
	hosts := append(append([]*netsim.Host(nil), d.Senders...), d.Receivers...)
	fr, err := newFlowRun(nw, nil, hosts, ProtoDCQCN, false, false,
		func(f workload.Flow) int { return 2 + f.Recv }, "")
	if err != nil {
		t.Fatal(err)
	}
	refused := errors.New("flow refused")
	fr.newFlow = func(workload.Flow) (*netsim.Sender, error) { return nil, refused }
	stream, err := workload.NewPoissonStream(workload.Config{
		Load: 1e9, Sizes: workload.WebSearch(), Senders: 2, Receivers: 2, Horizon: 0.01, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	fr.stream(stream, 1)
	if err := fr.run(0.01); !errors.Is(err, refused) {
		t.Fatalf("run returned %v, want the refused flow's error", err)
	}
	if fr.generated != 1 {
		t.Errorf("the stream went on to %d arrivals after a refused flow", fr.generated)
	}
}
