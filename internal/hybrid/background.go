package hybrid

import (
	"fmt"
	"math"

	"ecndelay/internal/des"
	"ecndelay/internal/fixedpoint"
	"ecndelay/internal/netsim"
)

// BackgroundConfig sizes a fluid background aggregate attached to one
// bottleneck port.
type BackgroundConfig struct {
	// Flows is the number of background DCQCN flows the aggregate stands
	// in for.
	Flows int
	// Par carries the Table 1 parameters in paper units (packets of MTU
	// bytes); Par.C must be the bottleneck capacity and Par.Kmin/Kmax/Pmax
	// must match the port's RED profile. Par.N is overridden with Flows.
	Par fixedpoint.DCQCNParams
	// ColdStart starts the aggregate at line rate with an empty fluid
	// queue (the DCQCN cold start). The default warm-starts it at its own
	// N=Flows fixed point, which is the right choice when the packet side
	// is warm-started too.
	ColdStart bool
}

// backgroundTick is the coupling cadence: each tick the aggregate reads the
// port's real occupancy and transmitted bytes, advances the ODE, and
// writes its occupancy back via SetVirtualBytes.
const backgroundTick = 10 * des.Microsecond

// BackgroundAggregate models a population of DCQCN background flows as a
// symmetric fluid ODE co-simulated with the packet network: every tick it
// measures the foreground's service share, integrates the Figure 1
// dynamics against the combined (real + fluid) queue, and superimposes its
// occupancy on the port's marking view. Foreground packets keep priority
// on the wire — the aggregate absorbs leftover capacity — but both layers
// see one marking probability, so the coupled system settles at the
// (foreground + background)-flow fixed point. See DESIGN.md ("Hybrid
// fluid↔packet coupling") for the contract and error bounds.
type BackgroundAggregate struct {
	cfg  BackgroundConfig
	port *netsim.Port
	sim  *des.Simulator

	// Symmetric per-flow state in paper units (packets, packets/s).
	alpha, rt, rc float64
	qBg           float64 // aggregate fluid queue, packets
	lineRate      float64 // per-flow clamp, packets/s
	rmin          float64

	lastTx int64 // port TxBytes at the previous tick

	// pHist delays the marking probability by τ* in tick-sized steps.
	pHist []float64
	pPos  int
}

// AttachBackground creates the aggregate and registers its coupling tick
// on the port's simulator. Call before running the network.
func AttachBackground(port *netsim.Port, cfg BackgroundConfig) (*BackgroundAggregate, error) {
	if cfg.Flows <= 0 {
		return nil, fmt.Errorf("hybrid: background flows must be positive, got %d", cfg.Flows)
	}
	cfg.Par.N = cfg.Flows
	if err := cfg.Par.Validate(); err != nil {
		return nil, err
	}
	b := &BackgroundAggregate{
		cfg:      cfg,
		port:     port,
		sim:      port.Sim(),
		lineRate: cfg.Par.C,
		rmin:     cfg.Par.C / 1000,
	}
	if cfg.ColdStart {
		b.alpha, b.rt, b.rc = 1, b.lineRate, b.lineRate
	} else {
		fp, err := fixedpoint.SolveDCQCN(cfg.Par)
		if err != nil {
			return nil, err
		}
		b.alpha, b.rt, b.rc = fp.Alpha, fp.RT, fp.RC
		b.qBg = fp.Q
		port.Queue().SetVirtualBytes(int(b.qBg * MTU))
	}
	lags := int(math.Ceil(cfg.Par.TauStar / backgroundTick.Seconds()))
	if lags < 1 {
		lags = 1
	}
	b.pHist = make([]float64, lags)
	p0 := b.markProb()
	for i := range b.pHist {
		b.pHist[i] = p0
	}
	b.sim.Every(b.sim.Now().Add(backgroundTick), backgroundTick, b.tick)
	return b, nil
}

// Rate reports the aggregate's current total offered rate in bytes/s.
func (b *BackgroundAggregate) Rate() float64 {
	return b.rc * float64(b.cfg.Flows) * MTU
}

// QueueBytes reports the aggregate's fluid queue occupancy in bytes.
func (b *BackgroundAggregate) QueueBytes() int { return int(b.qBg * MTU) }

// Alpha reports the aggregate's α.
func (b *BackgroundAggregate) Alpha() float64 { return b.alpha }

// markProb evaluates the extended RED profile on the combined occupancy.
func (b *BackgroundAggregate) markProb() float64 {
	pr := b.cfg.Par
	qTot := float64(b.port.Queue().Bytes())/MTU + b.qBg
	return fixedpoint.REDMarkExtended(qTot, pr.Kmin, pr.Kmax, pr.Pmax)
}

// tick advances the aggregate by one coupling interval.
func (b *BackgroundAggregate) tick() {
	pr := &b.cfg.Par
	dt := backgroundTick.Seconds()

	// Foreground service share over the last tick, in packets/s. The
	// aggregate drains with whatever the foreground left unused.
	tx := b.port.TxBytes
	fg := float64(tx-b.lastTx) / MTU / dt
	b.lastTx = tx
	avail := pr.C - fg
	if avail < 0 {
		avail = 0
	}

	// Delayed marking probability: overwrite the slot τ* old with the
	// current observation and consume the displaced value.
	pNow := b.markProb()
	pDel := b.pHist[b.pPos]
	b.pHist[b.pPos] = pNow
	b.pPos = (b.pPos + 1) % len(b.pHist)

	// Integrate the symmetric Figure 1 dynamics with the delayed p frozen
	// across the tick. Euler substeps keep the stiff α/rate terms stable
	// at the 10 µs coupling cadence.
	sub := int(dt/1e-6 + 0.5)
	if sub < 1 {
		sub = 1
	}
	h := dt / float64(sub)
	n := float64(b.cfg.Flows)
	eq := fixedpoint.NewEq12(*pr, pDel)
	for s := 0; s < sub; s++ {
		a, bb, c, d, e := eq.Terms(max(b.rc, b.rmin))
		dAlpha, dRT, dRC := pr.Eq57(a, bb, c, d, e, eq.AlphaTarget(b.rc), b.alpha, b.rt, b.rc, b.rc)
		dQ := n*b.rc - avail
		if b.qBg <= 0 && dQ < 0 {
			dQ = 0
		}
		b.alpha = clamp(b.alpha+h*dAlpha, 0, 1)
		b.rt = clamp(b.rt+h*dRT, b.rmin, b.lineRate)
		b.rc = clamp(b.rc+h*dRC, b.rmin, b.lineRate)
		b.qBg += h * dQ
		if b.qBg < 0 {
			b.qBg = 0
		}
	}
	b.port.Queue().SetVirtualBytes(int(b.qBg * MTU))
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
