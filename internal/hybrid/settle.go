package hybrid

import (
	"ecndelay/internal/dcqcn"
	"ecndelay/internal/des"
	"ecndelay/internal/netsim"
	"ecndelay/internal/obs"
	"ecndelay/internal/stats"
	"ecndelay/internal/topo"
)

// Settle quantifies how quickly a queue trajectory reaches its steady
// state, in both simulated time and DES events — the cost a warm start is
// supposed to eliminate.
type Settle struct {
	// TailMean is the steady-state queue mean (bytes) over the last 40%
	// of the run; Band the relative envelope derived from the steady
	// oscillation amplitude around it.
	TailMean float64
	Band     float64
	// Time is the first instant from which the trajectory stays inside
	// the envelope for the rest of the run; Events the DES events
	// processed by then.
	Time   float64
	Events uint64
}

// settleBucket is the averaging window MeasureSettle smooths the queue
// trajectory with before comparing against the steady-state envelope: the
// DCQCN/TIMELY control loops oscillate at sub-millisecond periods, so 2 ms
// means average out the limit cycle while still resolving the cold-start
// transient (tens of ms).
const settleBucket = 2e-3

// MeasureSettle derives the steady-state envelope from the tail of the
// queue series qs and finds when the trajectory permanently enters it.
// evs must be sampled on the same grid, carrying cumulative processed-event
// counts. The trajectory is smoothed into 2 ms bucket means first; the
// envelope is 1.5× the tail buckets' own worst deviation (plus a 5%
// floor), so the measurement self-calibrates to however noisy the
// operating point is.
func MeasureSettle(qs, evs *stats.Series, horizon float64) Settle {
	s := Settle{}
	if len(qs.T) == 0 {
		return s
	}
	tail := horizon * 0.6
	s.TailMean = qs.WindowSummary(tail, horizon).Mean

	nb := int(horizon/settleBucket + 0.5)
	if nb < 1 {
		nb = 1
	}
	means := make([]float64, 0, nb)
	first := make([]int, 0, nb) // first sample index of each bucket
	for b := 0; b < nb; b++ {
		t0, t1 := float64(b)*settleBucket, float64(b+1)*settleBucket
		sum, cnt, fi := 0.0, 0, -1
		for i, t := range qs.T {
			if t < t0 || t >= t1 {
				continue
			}
			if fi < 0 {
				fi = i
			}
			sum += qs.V[i]
			cnt++
		}
		if cnt == 0 {
			continue
		}
		means = append(means, sum/float64(cnt))
		first = append(first, fi)
	}
	band := 0.0
	for b, m := range means {
		if qs.T[first[b]] >= tail {
			if d := relErr(m, s.TailMean); d > band {
				band = d
			}
		}
	}
	s.Band = band*1.5 + 0.05
	// Walk backwards: the settle bucket is just past the last excursion.
	idx := 0
	for b := len(means) - 1; b >= 0; b-- {
		if relErr(means[b], s.TailMean) > s.Band {
			idx = b + 1
			break
		}
	}
	if idx >= len(means) {
		idx = len(means) - 1
	}
	si := first[idx]
	s.Time = qs.T[si]
	if si < len(evs.V) {
		s.Events = uint64(evs.V[si])
	}
	return s
}

// ClosIncast builds the Clos realisation of the scenario: Par.N senders on
// a 2-tier leaf-spine fabric all sending to host 0, whose leaf→host port
// is the bottleneck — same capacity and RED profile as the star, so the
// same analytic fixed point applies. Attach wires hosts 1..N to host 0
// with DCQCN default endpoints, and gives each host outside the incast an
// endpoint too (a fabric with no senders), so every host's counters appear
// in a metrics export. A non-nil ob is attached before the fabric exists,
// as in Star.
func (sc DCQCNScenario) ClosIncast(ob *obs.NetObserver, warm *WarmStart) (*netsim.Network, *topo.Clos, []*dcqcn.Sender, error) {
	nw := netsim.New(sc.Seed)
	nw.SetObserver(ob)
	radix := 4
	for radix*radix/2 < sc.Par.N+1 {
		radix += 2
	}
	cl, err := topo.NewClos(nw, topo.ClosConfig{
		Radix:    radix,
		Tiers:    2,
		HostLink: netsim.LinkConfig{Bandwidth: sc.BwBytes(), PropDelay: des.Microsecond},
		Mark:     sc.Marker(nw),
		ECMPSeed: sc.Seed,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	p := dcqcn.DefaultParams()
	senders, err := sc.Attach(Fabric{cl.Hosts[1 : sc.Par.N+1], cl.Hosts[0], cl.HostPorts[0]}, p, warm)
	if err != nil {
		return nil, nil, nil, err
	}
	for _, h := range cl.Hosts[sc.Par.N+1:] {
		if _, err := sc.Attach(Fabric{Receiver: h}, p, nil); err != nil {
			return nil, nil, nil, err
		}
	}
	return nw, cl, senders, nil
}
