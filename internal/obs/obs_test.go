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
	if jo.Metrics != base.Metrics || jo.Trace != base.Trace || jo.Check != base.Check ||
		jo.Probes != base.Probes || jo.Hists != base.Hists || jo.Audit != base.Audit {
		t.Error("the copy must share every facility with the original")
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

	// PerJob sees the job id and the copy; only the copy changes.
	private := NewTracer()
	var gotID string
	base.PerJob = func(jobID string, job *NetObserver) {
		gotID = jobID
		job.Trace = private
	}
	pj := base.ForJob("fig5/seed2")
	if gotID != "fig5/seed2" {
		t.Errorf("PerJob called with %q, want fig5/seed2", gotID)
	}
	if pj.Trace != private {
		t.Error("PerJob's tracer is not installed on the job copy")
	}
	if base.Trace == private {
		t.Error("PerJob reached the shared observer")
	}
}
