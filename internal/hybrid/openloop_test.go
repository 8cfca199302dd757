package hybrid

import (
	"fmt"
	"math/rand"
	"testing"

	"ecndelay/internal/dcqcn"
	"ecndelay/internal/des"
	"ecndelay/internal/fixedpoint"
	"ecndelay/internal/netsim"
)

// constMarker marks each ECT data packet at dequeue with probability p,
// one draw per packet: the switch of an open loop, in which the marking
// probability no longer depends on the queue.
type constMarker struct {
	p   float64
	rng *rand.Rand
}

func (m *constMarker) AtEnqueue() bool { return false }

func (m *constMarker) Mark(_ *netsim.Queue, pkt *netsim.Packet) {
	if pkt.Kind == netsim.Data && pkt.ECT && !pkt.CE && m.rng.Float64() < m.p {
		pkt.CE = true
	}
}

// openLoopRatio runs one DCQCN sender (Table 1 endpoints) on a 40 Gb/s
// star whose switch marks at the constant probability p, and returns
// its mean rate over 0.1–0.3 s over the fair share C/n of an n-flow
// bottleneck. With the queue out of the loop, Eq. 5–7 settle at one rate
// R(p), and Theorem 1 puts R(p*) at exactly C/n.
func openLoopRatio(t *testing.T, n int, p float64, seed int64) float64 {
	t.Helper()
	sc := NewDCQCNScenario(n, seed)
	nw := netsim.New(seed)
	star := netsim.NewStar(nw, netsim.StarConfig{
		Senders: 1,
		Link:    netsim.LinkConfig{Bandwidth: sc.BwBytes(), PropDelay: des.Microsecond},
		Mark:    func() netsim.Marker { return &constMarker{p, nw.Rng} },
	})
	senders, err := sc.Attach(Fabric{star.Senders, star.Receiver, star.Bottleneck}, dcqcn.DefaultParams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	rate := nw.Sample(100*des.Microsecond, netsim.Signal{Name: "rate0", Read: senders[0].Rate})[0]
	nw.RunUntil(des.Time(300 * des.Millisecond))
	return rate.WindowSummary(0.1, 0.3).Mean / (sc.BwBytes() / float64(n))
}

// TestOpenLoopRateAtFixedMarking pins the packet DCQCN rate law at a
// constant marking probability: the ratio of the sender's mean rate to
// C/N at Theorem 1's p* and at Eq. 14's p (DCQCNPStarApprox), averaged
// over seeds 1–3 (seed 1 alone under -short). The fluid model holds C/N
// exactly at p*; the packet sender runs about 20% fast there, and Eq.
// 14's larger p (it over-estimates p* more as N grows) pulls it back
// toward, and at N = 64 below, C/N. The 3-seed means were
//
//	N    at p*   at Eq. 14's p
//	2    1.197   1.055
//	8    1.220   0.997
//	64   1.234   0.829
//
// Each bound is the table's value ± a width that covers every single
// seed, so -short passes too. Single seeds at p* ranged over 1.160–1.219
// (N = 2), 1.207–1.242 (N = 8) and 1.209–1.280 (N = 64), and at Eq. 14's
// p over 1.019–1.085, 0.995–0.999 and 0.804–0.842. The widest deviation
// from the mean is 0.037 at N = 2, 0.022 at N = 8 and 0.046 at N = 64, so
// the widths are 0.05, 0.04 and 0.06. At p* every lower bound stays above
// 1.14, so a change that closes the gap, or moves it, fails here.
func TestOpenLoopRateAtFixedMarking(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, c := range []struct {
		n               int
		atPStar, atEq14 float64 // 3-seed means
		width           float64 // covers the single-seed spread
	}{
		{2, 1.197, 1.055, 0.05},
		{8, 1.220, 0.997, 0.04},
		{64, 1.234, 0.829, 0.06},
	} {
		t.Run(fmt.Sprintf("N%d", c.n), func(t *testing.T) {
			par := NewDCQCNScenario(c.n, 1).Par
			fp, err := fixedpoint.SolveDCQCN(par)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range []struct {
				name string
				p    float64
				want float64
			}{
				{"p*", fp.P, c.atPStar},
				{"Eq. 14's p", fixedpoint.DCQCNPStarApprox(par), c.atEq14},
			} {
				sum := 0.0
				for _, seed := range seeds {
					r := openLoopRatio(t, c.n, m.p, seed)
					t.Logf("at %s, seed %d: %.4f", m.name, seed, r)
					sum += r
				}
				got := sum / float64(len(seeds))
				if got < m.want-c.width || got > m.want+c.width {
					t.Errorf("at %s = %.3g: rate / (C/N) = %.3f over %d seeds, want %.3f ± %.2f",
						m.name, m.p, got, len(seeds), m.want, c.width)
				}
			}
		})
	}
}
