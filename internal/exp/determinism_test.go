package exp_test

// Determinism is the contract the sweep engine relies on: a runner at a
// fixed seed must produce identical metrics on every invocation, and a
// parallel sweep over runners must therefore be byte-identical to a
// serial one once rows are sorted by job ID.

import (
	"bytes"
	"reflect"
	"testing"

	"ecndelay/internal/exp"
	"ecndelay/internal/sweep"
)

// cheapRunners are the analytic Quick-scale experiments, fast enough to
// run several times in the default test suite. The simulation-heavy
// runners share the same deterministic substrate (seeded netsim RNG)
// and are covered once each by TestQuickSimulationRunners.
var cheapRunners = []string{"fig3", "fig11", "eq14", "thm2", "params", "fig21"}

// packetRunners are the packet-level runs whose tie order is the most
// intricate: closincast (an ECMP fat tree with PFC and the pause watchdog)
// and auditloop (an audited DCQCN incast with CNP loss). They take seconds
// each, so the pair skips under -short.
var packetRunners = []string{"closincast", "auditloop"}

func TestQuickRunnersDeterministic(t *testing.T) {
	for _, id := range cheapRunners {
		id := id
		t.Run(id, func(t *testing.T) { requireDeterministic(t, id) })
	}
}

func TestPacketRunnersDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("packet-level runs take seconds each")
	}
	for _, id := range packetRunners {
		id := id
		t.Run(id, func(t *testing.T) { requireDeterministic(t, id) })
	}
}

// requireDeterministic runs one registered experiment twice at Quick
// scale, seed 11, and requires identical Report.Metrics.
func requireDeterministic(t *testing.T, id string) {
	t.Helper()
	r, ok := exp.Get(id)
	if !ok {
		t.Fatalf("runner %q not registered", id)
	}
	o := exp.Options{Scale: exp.Quick, Seed: 11}
	first, err := r.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	second, err := r.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	// params and fig21 are pure tables with no headline metrics.
	if len(first.Metrics) == 0 && id != "params" && id != "fig21" {
		t.Fatalf("runner %q reports no metrics", id)
	}
	if len(first.Metrics) != len(second.Metrics) {
		t.Fatalf("metric counts differ: %d vs %d", len(first.Metrics), len(second.Metrics))
	}
	for k, v := range first.Metrics {
		if w, ok := second.Metrics[k]; !ok || w != v {
			t.Errorf("metric %q differs across runs: %v vs %v", k, v, w)
		}
	}
}

// The same job grid through the sweep engine with 1 and N workers must
// produce byte-identical sorted JSONL.
func TestSweepOverRunnersDeterministic(t *testing.T) {
	var jobs []sweep.Job
	for _, id := range cheapRunners {
		r, ok := exp.Get(id)
		if !ok {
			t.Fatalf("runner %q not registered", id)
		}
		for _, seed := range []int64{1, 2, 3} {
			r, seed := r, seed
			jobs = append(jobs, sweep.Job{
				ID:   r.ID + "/" + string(rune('0'+seed)),
				Meta: map[string]string{"exp": r.ID},
				Run: func(int64) (map[string]float64, error) {
					rep, err := r.Run(exp.Options{Scale: exp.Quick, Seed: seed})
					if err != nil {
						return nil, err
					}
					return rep.Metrics, nil
				},
			})
		}
	}
	if len(jobs) < 16 {
		t.Fatalf("grid has %d jobs, want >= 16", len(jobs))
	}
	run := func(workers int) []byte {
		sink := &sweep.MemorySink{}
		sum, err := sweep.Run(sweep.Config{Workers: workers, BaseSeed: 5}, jobs, sink)
		if err != nil {
			t.Fatal(err)
		}
		if sum.Failed != 0 || sum.Executed != len(jobs) {
			t.Fatalf("workers=%d summary %+v", workers, sum)
		}
		b, err := sweep.MarshalResults(sink.Results())
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	serial := run(1)
	if parallel := run(4); !bytes.Equal(serial, parallel) {
		t.Errorf("parallel sweep output differs from serial:\n%s\nvs\n%s", parallel, serial)
	}
}

// Every registered experiment, sharded across a 4-worker sweep pool so
// that runners execute concurrently in one process, must report exactly
// what a direct serial call reports: metrics and rendered tables alike.
// This is the property `sweep -workers` relies on — no runner may leak
// state into another through package globals (packet pools, id counters,
// RNGs). The matrix runs every simulation, so it skips under -short.
func TestShardedMetricsMatchSerialEverywhere(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment matrix")
	}
	runners := exp.Runners()
	o := exp.Options{Scale: exp.Quick, Seed: 42}
	sharded := make([]*exp.Report, len(runners))
	jobs := make([]sweep.Job, len(runners))
	for i, r := range runners {
		i, r := i, r
		jobs[i] = sweep.Job{
			ID: r.ID,
			Run: func(int64) (map[string]float64, error) {
				rep, err := r.Run(o)
				if err != nil {
					return nil, err
				}
				sharded[i] = rep
				return rep.Metrics, nil
			},
		}
	}
	sink := &sweep.MemorySink{}
	if _, err := sweep.Run(sweep.Config{Workers: 4}, jobs, sink); err != nil {
		t.Fatal(err)
	}
	errs := map[string]string{}
	for _, res := range sink.Results() {
		errs[res.JobID] = res.Err
	}
	for i, r := range runners {
		i, r := i, r
		t.Run(r.ID, func(t *testing.T) {
			if e := errs[r.ID]; e != "" {
				t.Fatalf("sharded: %s", e)
			}
			serial, err := r.Run(o)
			if err != nil {
				t.Fatalf("serial: %v", err)
			}
			if !reflect.DeepEqual(serial.Metrics, sharded[i].Metrics) {
				t.Errorf("metrics diverge:\nserial : %v\nsharded: %v", serial.Metrics, sharded[i].Metrics)
			}
			if !reflect.DeepEqual(serial.Tables, sharded[i].Tables) {
				t.Errorf("rendered tables diverge:\nserial : %+v\nsharded: %+v", serial.Tables, sharded[i].Tables)
			}
		})
	}
}
