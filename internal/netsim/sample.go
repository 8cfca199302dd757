package netsim

import (
	"ecndelay/internal/des"
	"ecndelay/internal/obs"
	"ecndelay/internal/stats"
)

// Signal is one quantity a run samples: Read reports its current value,
// and Name names its series in the observer's probe export.
type Signal struct {
	Name string
	Read func() float64
}

// QueueSignal is the signal of p's egress queue occupancy, in bytes.
func QueueSignal(name string, p *Port) Signal {
	return Signal{name, func() float64 { return float64(p.Queue().Bytes()) }}
}

// Sample reads every signal every interval into one series per signal
// (time in seconds), returned in signal order. One ticker serves them
// all; its first tick is one interval in, and it runs for the life of the
// simulation. When the network's observer carries a probe set, each tick
// also records its points in one probe per signal, named after the signal
// and qualified by the observer's ProbeName, so the probe export holds
// exactly the series the run reads, at no extra event.
func (nw *Network) Sample(every des.Duration, signals ...Signal) []*stats.Series {
	series := make([]*stats.Series, len(signals))
	probes := make([]*obs.Probe, len(signals))
	for i, sg := range signals {
		series[i] = &stats.Series{}
		if o := nw.obs; o != nil && o.Probes != nil {
			probes[i] = o.Probes.NewProbe(o.ProbeName(sg.Name), 0)
		}
	}
	sim := nw.Sim
	sim.Every(sim.Now().Add(every), every, func() {
		t := sim.Now().Seconds()
		for i, sg := range signals {
			v := sg.Read()
			series[i].Add(t, v)
			if probes[i] != nil {
				probes[i].Record(t, v)
			}
		}
	})
	return series
}
