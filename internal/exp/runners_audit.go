package exp

// Control-loop audit scenario: the observability extension. The paper's
// lesson is that DCQCN behaviour is governed by the feedback loop — how
// fast a queue excursion becomes a CE mark, a CNP, and finally a rate
// cut. This runner attaches the control-loop audit trail to the Figure 5
// style incast and measures that chain end to end: every rate cut is
// attributed to the mark episode that caused it, and the mark→cut
// latency distribution is reported directly. The faultcnp variant drops
// CNPs on the reverse path, so mark episodes whose notifications all die
// show up as orphans — congestion the senders never heard about.

import (
	"fmt"

	"ecndelay/internal/des"
	"ecndelay/internal/fault"
	"ecndelay/internal/hybrid"
	"ecndelay/internal/netsim"
	"ecndelay/internal/obs"
	"ecndelay/internal/stats"
)

func init() {
	register(Runner{
		ID: "auditloop", Title: "Causal mark→CNP→rate-cut audit of the DCQCN control loop", Figure: "observability extension",
		Run: runAuditLoop,
	})
}

// runAuditLoop runs the 10-sender DCQCN incast with the audit trail
// attached, fault-free and with 90% CNP loss. Fault-free, every cut must
// be attributed to exactly one mark episode; under CNP loss the orphaned
// episodes are the audit-level signature of a broken feedback channel.
func runAuditLoop(o Options) (*Report, error) {
	rep := &Report{ID: "auditloop", Title: "DCQCN control-loop audit: episode attribution and feedback latency"}
	horizon := 0.05
	if o.Scale == Full {
		horizon = 0.2
	}
	tbl := Table{Cols: []string{"CNP loss", "cuts", "attributed", "episodes", "orphans", "mark→cut p50 µs", "p99 µs"}}
	// The Figure 5 operating point: 85 µs of extra feedback delay makes
	// the loop visibly oscillatory, and Kmin sits near the loop's
	// operating queue depth, so episodes open and close as the queue
	// oscillates through it — each excursion is one episode, not one
	// run-long one.
	sc := hybrid.NewDCQCNScenario(10, o.Seed)
	sc.ExtraDelay = 85 * des.Microsecond
	sc.Par.Kmin = 50
	for _, rate := range []float64{0, 0.9, 1} {
		mem := obs.NewMemorySink[obs.Decision](1 << 16)
		sinks := []obs.Sink[obs.Decision]{mem}
		var ob *obs.NetObserver
		if o.Observer != nil {
			cp := *o.Observer
			if cp.Audit != nil {
				// Keep the run-wide trail (e.g. ecnbench -audit) attached:
				// it chains as a sink behind the private in-memory view.
				sinks = append(sinks, cp.Audit)
			}
			cp.Audit = obs.NewAuditTrail(sinks...)
			ob = &cp
		} else {
			ob = &obs.NetObserver{Audit: obs.NewAuditTrail(sinks...), Hists: obs.NewHistSet()}
		}
		nw, star, _, err := sc.Star(ob, nil)
		if err != nil {
			return nil, err
		}
		if rate > 0 {
			(&fault.Plan{Seed: o.Seed + 7, Links: []fault.LinkFaults{{
				Port: star.Receiver.Port(),
				Loss: []fault.Loss{{Kinds: fault.SelCNP, Rate: rate}},
			}}}).Apply(nw)
		}
		// The report reads the audit, not the queue; the queue is sampled
		// for the probe export, which runreport -probe sets beside it.
		key := fmt.Sprintf("loss%g", rate)
		nw.Sample(100*des.Microsecond, netsim.QueueSignal("queue_bytes."+key, star.Bottleneck))
		nw.RunUntil(des.Time(des.DurationFromSeconds(horizon)))
		// The open→first-cut latency is the end-to-end feedback delay from
		// the switch flagging congestion to the first sender reacting.
		st := obs.Attribute(mem.Records())
		if rate == 0 && st.Attributed != st.Cuts {
			return nil, fmt.Errorf("auditloop: %d of %d fault-free rate cuts unattributed", st.Cuts-st.Attributed, st.Cuts)
		}
		attrFrac := 1.0
		if st.Cuts > 0 {
			attrFrac = float64(st.Attributed) / float64(st.Cuts)
		}
		var latP50, latP99 float64
		if len(st.OpenCut) > 0 {
			latP50, _ = stats.Percentile(st.OpenCut, 50) // errs only on an empty set
			latP99, _ = stats.Percentile(st.OpenCut, 99)
		}
		tbl.Rows = append(tbl.Rows, []string{
			eng(rate), fmt.Sprint(st.Cuts), fmt.Sprint(st.Attributed),
			fmt.Sprint(st.Episodes), fmt.Sprint(st.Orphans),
			f1(latP50 * 1e6), f1(latP99 * 1e6),
		})
		rep.AddMetric("cuts_"+key, float64(st.Cuts))
		rep.AddMetric("attr_frac_"+key, attrFrac)
		rep.AddMetric("episodes_"+key, float64(st.Episodes))
		rep.AddMetric("orphans_"+key, float64(st.Orphans))
		rep.AddMetric("markcut_p50_us_"+key, latP50*1e6)
		rep.AddMetric("markcut_p99_us_"+key, latP99*1e6)
	}
	rep.Tables = append(rep.Tables, tbl)
	rep.Notes = append(rep.Notes,
		"fault-free, every rate cut traces back to exactly one mark episode and the mark→cut latency is the loop's feedback delay; under CNP loss, orphaned episodes — congestion the switch flagged but no sender ever heard about — are the audit-level signature Figure 4's delay sensitivity predicts")
	return rep, nil
}
