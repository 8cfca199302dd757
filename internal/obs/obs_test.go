package obs

import "testing"

func TestForJob(t *testing.T) {
	var none *NetObserver
	if none.ForJob("fig14") != nil {
		t.Error("ForJob on a nil observer must stay nil")
	}
	base := Full()
	base.Audit = NewAuditTrail()
	jo := base.ForJob("fig14/seed1")
	if jo == base {
		t.Fatal("ForJob must return a copy, not the original")
	}
	if jo.Metrics != base.Metrics || jo.Trace != base.Trace ||
		jo.Probes != base.Probes || jo.Hists != base.Hists || jo.Audit != base.Audit {
		t.Error("the copy must share every facility but the checker with the original")
	}
	// The copy's checker owns its own books but reports to the original:
	// a violation found through it counts on both.
	if jo.Check == base.Check || jo.Check.root != base.Check {
		t.Error("the copy must carry a child of the original's checker")
	}
	jo.Check.Feed(Event{Type: Enqueue, Size: 1000, QLen: 1, QBytes: 500})
	if base.Check.Count(InvConservation) != 1 || jo.Check.Total() != 1 {
		t.Errorf("child violation counts: root %d, child %d, want 1 and 1",
			base.Check.Count(InvConservation), jo.Check.Total())
	}
	if len(base.Check.ports) != 0 || len(jo.Check.ports) != 1 {
		t.Errorf("books: root holds %d, child %d, want 0 and 1",
			len(base.Check.ports), len(jo.Check.ports))
	}
	if jo.ForJob("run2").Check.root != base.Check {
		t.Error("a nested copy's checker must report to the first root")
	}
	if got := jo.ProbeName("queue_bytes"); got != "fig14/seed1.queue_bytes" {
		t.Errorf("qualified probe name %q", got)
	}
	// Prefixes compose, so nested orchestration keeps names unique.
	if got := jo.ForJob("run2").ProbeName("queue_bytes"); got != "fig14/seed1.run2.queue_bytes" {
		t.Errorf("composed probe name %q", got)
	}
	if base.ProbePrefix != "" {
		t.Error("ForJob mutated the shared observer")
	}
}
