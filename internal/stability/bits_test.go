package stability

import (
	"fmt"
	"math"
	"testing"

	"ecndelay/internal/fluid"
)

// bitsCell is one pinned operating point of TestPhaseMarginBits and
// TestQuietOmegaSkipCounts.
type bitsCell struct {
	model  string // "dcqcn", "ingress" (NewDCQCNIngressLoop) or "patched"
	n      int
	tau    float64 // τ*, seconds (DCQCN only)
	pm, wc uint64  // Float64bits of PhaseMarginDeg, CrossoverRadPerSec
	skip   int     // stage-1 points at or above ω_q (see quietOmega)
}

// bitsCells are the Fig. 3 and Fig. 11 operating points, plus the edges
// the benchmark's phase-margin grid reaches: τ* = 1 µs at N = 1 and 64,
// and patched TIMELY at N = 1 (-0.637°).
var bitsCells = []bitsCell{
	{"dcqcn", 1, 1e-6, 0x403b7db914e72e80, 0x40b53f0231b21577, 861},
	{"dcqcn", 1, 4e-6, 0x403a8f2403195f20, 0x40b53f5a3ca1891c, 861},
	{"dcqcn", 1, 85e-6, 0x3ff4fd436c5fba00, 0x40b5496971dd6b4a, 861},
	{"dcqcn", 1, 120e-6, 0xc0234cedcaabb960, 0x40b54dec9d3baa46, 861},
	{"dcqcn", 2, 4e-6, 0x403368a0ddd07748, 0x40b03b85d6da39ce, 900},
	{"dcqcn", 2, 85e-6, 0x3fc14fb5882ea400, 0x40b045bba1f7eef4, 900},
	{"dcqcn", 2, 120e-6, 0xc0207ee8583a1810, 0x40b04a3e3cf53014, 900},
	{"dcqcn", 10, 4e-6, 0x40214fb0e5559e40, 0x40a42de50b4b22f1, 983},
	{"dcqcn", 10, 85e-6, 0xc00b0602beb750c0, 0x40a44fa7c19769b2, 983},
	{"dcqcn", 10, 120e-6, 0xc021597c3d686190, 0x40a45e690c53dc63, 983},
	{"dcqcn", 64, 1e-6, 0x4038496c10959d38, 0x4097e665cbe930fb, 1049},
	{"dcqcn", 64, 4e-6, 0x40380ac1320b5930, 0x4097eb206817c864, 1049},
	{"dcqcn", 64, 85e-6, 0x40311eb98f05c0f8, 0x409872d087b3f468, 1049},
	{"dcqcn", 64, 120e-6, 0x402bd8d8eaadfe70, 0x4098b25adb7b9ca0, 1049},
	{"ingress", 10, 85e-6, 0xc01c1fd9492467a0, 0x40a44fa7c19769b2, 983},
	{"patched", 1, 0, 0xbfe462cfe7fc9300, 0x409f6dff63a0cdbc, 967},
	{"patched", 2, 0, 0x401c141e2d913280, 0x409c3545273b3c14, 988},
	{"patched", 10, 0, 0x4046a31ad0ee38b0, 0x40a00ad31f6c3004, 1093},
	{"patched", 40, 0, 0xc0536c83d16ba2d4, 0x40a9c8acaf1f560b, 1122},
	{"patched", 64, 0, 0xc060d0f7a9517e3e, 0x40a8633fee460d02, 1126},
}

func (c bitsCell) String() string { return fmt.Sprintf("%s N=%d τ*=%g", c.model, c.n, c.tau) }

// loop builds the cell's loop model.
func (c bitsCell) loop(t *testing.T) LoopModel {
	t.Helper()
	var loop LoopModel
	var err error
	p := fluid.DefaultDCQCNParams(c.n)
	p.TauStar = c.tau
	switch c.model {
	case "dcqcn":
		loop, err = fluid.NewDCQCNLoop(p)
	case "ingress":
		loop, err = fluid.NewDCQCNIngressLoop(p)
	case "patched":
		loop, err = fluid.NewPatchedTimelyLoop(fluid.DefaultPatchedTimelyConfig(c.n))
	}
	if err != nil {
		t.Fatalf("%v: %v", c, err)
	}
	return loop
}

// TestPhaseMarginBits pins PhaseMargin to the bit at the Fig. 3 and
// Fig. 11 operating points. The crossval goldens print three decimals, so
// a rewrite of the frequency-response path that moves a rounding anywhere
// would pass them; it fails here instead. The bits were recorded on
// linux/amd64; architectures that fuse multiply-adds may round differently.
func TestPhaseMarginBits(t *testing.T) {
	for _, c := range bitsCells {
		res, err := PhaseMargin(c.loop(t))
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		if pm, wc := math.Float64bits(res.PhaseMarginDeg), math.Float64bits(res.CrossoverRadPerSec); pm != c.pm || wc != c.wc {
			t.Errorf("%v: PM %v (%#x), crossover %v (%#x); want %v (%#x), %v (%#x)",
				c, res.PhaseMarginDeg, pm, res.CrossoverRadPerSec, wc,
				math.Float64frombits(c.pm), c.pm, math.Float64frombits(c.wc), c.wc)
		}
	}
}
