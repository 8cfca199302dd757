// Package obs is the observability layer of the simulator: hierarchical
// counters, fixed-cadence time-series probes backed by preallocated ring
// buffers, streaming latency histograms, two record streams with
// pluggable sinks — the event trace and the control-loop decision audit
// — and a runtime invariant checker fed by the event stream.
//
// Every export runs through one buffered record writer (record.go). Each
// JSONL export — trace, probe, audit and histogram — starts with a Header
// naming its schema, seed, protocol, flags and operating point when the
// invoking command sets one; ReadAudit, ReadHists and ReadProbes return
// it, and runreport prints one header line per file it reads.
//
// The package deliberately knows nothing about the network simulator: every
// hook carries plain integers (node ids, byte counts, packet kinds as raw
// bytes), so internal/netsim and the protocol endpoints can import obs
// without a dependency cycle. Instrumentation follows the nil-hook pattern
// of internal/fault: a network without an observer attached executes
// exactly the pre-observability code (one nil pointer check per hook site),
// keeping fault-free, observer-free runs bit-identical and the hot path at
// zero allocations. With an observer attached, each facility costs only
// what it records: counters are atomic adds; each port resolves its
// checker book once, when the observer is attached, and updates it with
// no lookup and no lock, because a job owns its books (concurrent runs
// share a checker through NetObserver.ForJob copies); trace records are
// value types built only when a tracer is attached and encoded into
// reused buffers; and a histogram allocates one page of buckets per
// octave, the first time a value lands in it — so an observed run is also
// allocation-free after warm-up.
package obs

import "ecndelay/internal/des"

// NetObserver bundles the observability facilities a simulation run may
// attach: any field may be nil, and a nil *NetObserver disables everything.
// Concurrent runs (the sweep engine) share one observer through ForJob
// copies, one per job: counters are atomic, the tracer, probe and
// histogram sets serialise internally, and each copy's checker owns the
// books of its job's networks, keyed per network instance (Event.Run), so
// runs with identical node ids never corrupt each other's invariant
// state. Two goroutines must not run networks on the same copy, nor on the
// original.
type NetObserver struct {
	// Metrics receives hierarchical counters registered by ports, hosts
	// and protocol endpoints at attach/creation time, their names
	// qualified through ProbeName like probe series.
	Metrics *Registry
	// Trace receives one Event per instrumented simulator action; with
	// no tracer attached, no record is built.
	Trace *Tracer
	// Check runs the runtime invariant checker. Ports bind their books
	// (Checker.Port) when the observer is attached and report queue and
	// PFC actions through them; Emit feeds it the portless records. A
	// ForJob copy carries a child of the original's checker.
	Check *Checker
	// Probes collects time-series probes: a packet run records each
	// series it samples here, from its own sampling ticker.
	Probes *ProbeSet
	// Hists collects streaming latency histograms: per-hop queueing
	// delay, per-flow RTT, pacing/CNP inter-arrival gaps, flow
	// completion times. Instruments are get-or-create by name, so
	// concurrent runs sharing one set merge their distributions; names
	// are qualified through ProbeName like probe series.
	Hists *HistSet
	// ProbePrefix qualifies every auto-registered name (via ProbeName):
	// probe series, histograms and port and endpoint counter sets. Job
	// orchestrators give each job a shallow copy of a shared observer
	// with a distinct prefix, so a shared ProbeSet, HistSet and Registry
	// hold each job's instruments apart and export in an order
	// independent of job scheduling.
	ProbePrefix string
	// Audit receives one Decision per congestion-control action: DCQCN
	// alpha updates, rate cuts and FR/AI/HAI increases; TIMELY RTT
	// samples, gradients and rate actions; switch mark-episode
	// open/close. Nil disables the control-loop audit entirely (the
	// usual state): endpoints and marking ports keep a nil trail pointer
	// and skip every audit site with one check.
	Audit *AuditTrail
}

// ForJob returns a shallow copy of o with jobID appended to its
// ProbePrefix, so per-job probe series, histograms and counters
// registered on a shared set stay distinguishable and export
// deterministically. A nil observer stays nil. The copy shares every
// facility with the original but the checker: it gets a child checker
// that owns the job's invariant books and reports to the original's
// counts and violations.
func (o *NetObserver) ForJob(jobID string) *NetObserver {
	if o == nil {
		return nil
	}
	jo := *o
	jo.ProbePrefix += jobID + "."
	if o.Check != nil {
		jo.Check = o.Check.child()
	}
	return &jo
}

// Emit routes one event to the tracer and the invariant checker. The
// simulator uses it for the rare records with no bound port book (double
// frees, endpoint retransmits); port actions go to the checker through
// their books. Callers guard the observer itself for nil; Emit guards its
// facilities.
func (o *NetObserver) Emit(e Event) {
	if o.Trace != nil {
		o.Trace.Emit(e)
	}
	if o.Check != nil {
		o.Check.Feed(e)
	}
}

// ProbeCadence is the cadence of a probe that is driven on its own
// ticker rather than recorded by a run's sampler: 100 µs, the cadence
// of the experiments' queue series.
func (o *NetObserver) ProbeCadence() des.Duration { return 100 * des.Microsecond }

// ProbeName qualifies an auto-registered probe, histogram or counter
// name with the observer's ProbePrefix.
func (o *NetObserver) ProbeName(name string) string {
	if o.ProbePrefix == "" {
		return name
	}
	return o.ProbePrefix + name
}

// Hist returns the named histogram from the observer's set, with the
// name qualified by ProbePrefix like a probe series. It returns nil when
// the observer or its HistSet is absent, so binding sites can keep a nil
// pointer and skip recording with one check.
func (o *NetObserver) Hist(name string) *Hist {
	if o == nil || o.Hists == nil {
		return nil
	}
	return o.Hists.Hist(o.ProbeName(name))
}

// Full returns an observer with every facility enabled: a fresh registry,
// a tracer with no sinks (its counts still accumulate), a checker, a
// probe set and a histogram set. Convenient for tests that want
// everything on.
func Full() *NetObserver {
	return &NetObserver{
		Metrics: NewRegistry(),
		Trace:   NewTracer(),
		Check:   NewChecker(),
		Probes:  NewProbeSet(),
		Hists:   NewHistSet(),
	}
}
