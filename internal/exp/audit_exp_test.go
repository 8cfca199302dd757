package exp

import (
	"bytes"
	"testing"

	"ecndelay/internal/obs"
	"ecndelay/internal/sweep"
)

// The auditloop experiment is the tentpole's acceptance check: fault-free,
// every DCQCN rate cut is attributed to exactly one mark episode; under
// total CNP loss the episodes orphan because no sender ever hears about
// them.
func TestAuditLoopAttribution(t *testing.T) {
	rep, err := runAuditLoop(Options{Scale: Quick, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkDigest(t, "auditloop", rep)
	m := rep.Metrics
	if m["cuts_loss0"] == 0 {
		t.Fatal("fault-free run produced no rate cuts; scenario broken")
	}
	if m["attr_frac_loss0"] != 1 {
		t.Errorf("fault-free attribution fraction %g, want 1", m["attr_frac_loss0"])
	}
	if m["episodes_loss0"] < 2 {
		t.Errorf("fault-free run saw %g mark episodes, want several (queue should oscillate through Kmin)", m["episodes_loss0"])
	}
	if m["orphans_loss0"] != 0 {
		t.Errorf("fault-free run orphaned %g episodes, want 0", m["orphans_loss0"])
	}
	if m["markcut_p50_us_loss0"] <= 0 {
		t.Error("fault-free run measured no mark→cut latency")
	}
	// 85µs of injected feedback delay bounds the loop latency from below.
	if p50 := m["markcut_p50_us_loss0"]; p50 < 85 || p50 > 500 {
		t.Errorf("mark→cut p50 %.1fµs implausible for an 85µs feedback-delay loop", p50)
	}
	// Total CNP loss: congestion is flagged but never heard — the orphan
	// signature.
	if m["cuts_loss1"] != 0 {
		t.Errorf("run with all CNPs dropped still cut %g times", m["cuts_loss1"])
	}
	if m["orphans_loss1"] < 1 {
		t.Errorf("run with all CNPs dropped orphaned %g episodes, want at least 1", m["orphans_loss1"])
	}
}

// One shared AuditJSONLSink across concurrent sweep jobs — the ecnbench
// -audit wiring — serialises to identical bytes for any worker count:
// the sink sorts by record content, so scheduling interleave is invisible.
func TestSharedAuditSinkDeterministicAcrossWorkers(t *testing.T) {
	protos := []Protocol{ProtoDCQCN, ProtoTimely}
	runAll := func(workers int) []byte {
		var buf bytes.Buffer
		sink := obs.NewAuditJSONLSink(&buf, 0)
		sink.SetHeader(obs.Header{Schema: "audit", Version: 1, Seed: 42})
		shared := &obs.NetObserver{Audit: obs.NewAuditTrail(sink), Hists: obs.NewHistSet()}
		jobs := make([]sweep.Job, len(protos))
		for i, proto := range protos {
			proto := proto
			jobs[i] = sweep.Job{
				ID: proto.String(),
				Run: func(int64) (map[string]float64, error) {
					cfg := goldenCfg(proto)
					cfg.Observer = shared
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
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	serial := runAll(1)
	parallel := runAll(4)
	if !bytes.Equal(serial, parallel) {
		t.Error("shared audit export differs between 1 and 4 sweep workers")
	}
	for _, frag := range []string{`"dec":"cut"`, `"dec":"rtt"`, `"dec":"epopen"`} {
		if !bytes.Contains(serial, []byte(frag)) {
			t.Errorf("audit export is missing %s records", frag)
		}
	}
}
