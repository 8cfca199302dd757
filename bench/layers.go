package main

// modules are the layers a CPU sample can be attributed to: the
// repository packages the workloads reach, the benchmark itself, and the Go
// runtime (GC, scheduler, and anything with no repository frame).
var modules = []string{
	"des", "netsim", "topo", "workload", "dcqcn", "timely", "ode", "fluid",
	"fixedpoint", "stability", "convergence", "sweep", "obs", "runtime", "bench",
}

// layerMetrics derives the per-layer metrics of a traced run from its work
// counts, its spans and its CPU profile shares; plain is the untraced loop
// over the same seeds. Counts and times are per iteration unless the name
// says otherwise. A layer a workload does not use reports 0.
func layerMetrics(plain, traced *loopStats, agg map[string]spanAgg, shares map[string]float64) map[string]metric {
	c, n := traced.c, len(traced.ok)
	per := func(v int64) float64 { return float64(v) / float64(n) }
	total := func(names ...string) int64 {
		var t int64
		for _, name := range names {
			t += agg[name].Total
		}
		return t
	}
	perIterS := func(names ...string) float64 { return float64(total(names...)) / 1e9 / float64(n) }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	// meanUS is the mean duration of the named spans in microseconds.
	meanUS := func(name string) float64 { return ratio(float64(agg[name].Total)/1e3, float64(agg[name].Count)) }
	runNS := float64(total("netsim.RunUntil"))

	m := map[string]metric{
		"des.events":       {per(c.events), "count/iter"},
		"des.ns_per_event": {ratio(runNS, float64(c.events)), "ns/event"},
		"des.pending_peak": {float64(c.pendingPeak), "count"},

		"netsim.tx_pkts":    {per(c.txPkts), "count/iter"},
		"netsim.ns_per_pkt": {ratio(runNS, float64(c.txPkts)), "ns/pkt"},
		"netsim.tx_bytes":   {per(c.txBytes), "bytes/iter"},
		"netsim.marks":      {per(c.marks), "count/iter"},
		"netsim.pfc_pauses": {per(c.pauses), "count/iter"},
		"netsim.pool_size":  {per(c.poolSize), "count/iter"},

		"topo.build_s": {perIterS("topo.NewClos"), "s/iter"},
		"topo.nodes":   {per(c.nodes), "count/iter"},

		"workload.gen_s":      {perIterS("workload.Generate", "workload.Incast"), "s/iter"},
		"workload.flows":      {per(c.flows), "count/iter"},
		"workload.unfinished": {per(c.unfinished), "count/iter"},

		"dcqcn.setup_s":  {perIterS("dcqcn.NewEndpoint", "dcqcn.NewFlow"), "s/iter"},
		"dcqcn.cnp_tx":   {per(c.cnpTx), "count/iter"},
		"timely.setup_s": {perIterS("timely.NewEndpoint", "timely.NewFlow"), "s/iter"},

		"ode.rhs_evals":       {per(c.rhsEvals), "count/iter"},
		"ode.ns_per_rhs_eval": {ratio(float64(total("fluid.Run")), float64(c.rhsEvals)), "ns/eval"},
		"fluid.build_s":       {perIterS("fluid.NewDCQCN", "fluid.NewPatchedTimely"), "s/iter"},

		"fixedpoint.solves":       {per(int64(agg["fixedpoint.SolveDCQCN"].Count)), "count/iter"},
		"fixedpoint.us_per_solve": {meanUS("fixedpoint.SolveDCQCN"), "us/solve"},
		"stability.evals":         {per(int64(agg["stability.PhaseMargin"].Count)), "count/iter"},
		"stability.us_per_eval":   {meanUS("stability.PhaseMargin"), "us/eval"},
		"convergence.us_per_run":  {meanUS("convergence.Run"), "us/run"},

		"sweep.jobs":      {per(c.jobs), "count/iter"},
		"sweep.busy_frac": {ratio(float64(total("sweep.job")), float64(pmWorkers*total("sweep.Run"))), "frac"},
		"sweep.sink_s":    {perIterS("sweep.Sink.Write"), "s/iter"},

		"obs.audit_records": {per(c.auditRecords), "count/iter"},
		"obs.export_s":      {perIterS("obs.AuditJSONLSink.Close", "obs.ProbeSet.WriteJSONL", "obs.HistSet.WriteJSONL"), "s/iter"},
		"obs.export_bytes":  {per(c.exportBytes), "bytes/iter"},
		"obs.violations":    {float64(c.violations), "count"},

		"runtime.gc_cpu_frac": {plain.rt.gcFrac(), "frac"},
		"runtime.gc_cycles":   {float64(plain.rt.gcCycles) / float64(len(plain.ok)), "count/iter"},

		"bench.trace_overhead": {quantile(traced.iterS, 0.5)/quantile(plain.iterS, 0.5) - 1, "frac"},
	}
	for _, mod := range modules {
		m[mod+".cpu_share"] = metric{shares[mod], "frac"}
	}
	return m
}
