package dcqcn

import (
	"ecndelay/internal/netsim"
	"ecndelay/internal/obs"
)

// Observability binding: the shared transport binds the endpoint's
// counters ("dcqcn.n<hostID>"), its pacing-gap histogram and the audit
// trail when the endpoint is created on a network that already has an
// observer attached (attach the observer first); DCQCN adds its own
// histograms here. Every hook site below is a nil check when
// observability is off, so unobserved runs are untouched.

// bindObs registers the CNP inter-arrival histogram under the
// protocol-wide name "dcqcn.cnp_gap_s" (all senders on a run feed one
// distribution, as the paper's per-protocol behaviour plots do), and with
// an audit trail the two feedback-latency legs.
func (e *Endpoint) bindObs() {
	o := e.Host().Net().Observer()
	if o == nil {
		return
	}
	e.cnpGapH = o.Hist("dcqcn.cnp_gap_s")
	if o.Audit != nil {
		e.markCnpH = o.Hist("ctl.mark_to_cnprx_s")
		e.cnpCutH = o.Hist("ctl.cnprx_to_cut_s")
	}
}

// audCut records a CNP-triggered rate cut: the cut decision attributed to
// the mark episode the CNP carries (0: unattributed — a CNP whose marked
// data packet predates audit attachment), the alpha feedback update that
// rides on the same CNP, and the last two feedback-latency legs
// (mark→CNP-receipt from the stamped mark time, CNP-receipt→cut measured
// here — zero in this model, where the RP reacts in the same instant).
func (s *Sender) audCut(pkt *netsim.Packet, oldRate, cutAlpha float64) {
	now := s.e.Host().Now()
	lat := 0.0
	if pkt.MarkEp != 0 {
		lat = now.Sub(pkt.MarkT).Seconds()
		if h := s.e.markCnpH; h != nil {
			h.Record(lat)
		}
	}
	if h := s.e.cnpCutH; h != nil {
		h.Record(0)
	}
	s.Audit(obs.Decision{
		Type: obs.DecRateCut, Episode: pkt.MarkEp,
		OldRate: oldRate, NewRate: s.rc, Target: s.rt, Alpha: cutAlpha,
		RTT: lat,
	})
	s.Audit(obs.Decision{Type: obs.DecAlphaFeedback, Alpha: s.alpha})
}

// obsCNPGap records the gap since this sender's previous CNP arrival into
// the CNP inter-arrival histogram.
func (s *Sender) obsCNPGap() {
	h := s.e.cnpGapH
	if h == nil {
		return
	}
	now := s.e.Host().Now()
	if s.obsSawCNP {
		h.Record(now.Sub(s.obsLastCNP).Seconds())
	}
	s.obsSawCNP = true
	s.obsLastCNP = now
}
