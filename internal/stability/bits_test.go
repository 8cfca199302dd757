package stability

import (
	"math"
	"testing"

	"ecndelay/internal/fluid"
)

// TestPhaseMarginBits pins PhaseMargin to the bit at the Fig. 3 and
// Fig. 11 operating points. The crossval goldens print three decimals, so
// a rewrite of the frequency-response path that moves a rounding anywhere
// would pass them; it fails here instead. The bits were recorded on
// linux/amd64; architectures that fuse multiply-adds may round differently.
func TestPhaseMarginBits(t *testing.T) {
	for _, c := range []struct {
		model  string // "dcqcn", "ingress" (NewDCQCNIngressLoop) or "patched"
		n      int
		tau    float64 // τ*, seconds (DCQCN only)
		pm, wc uint64  // Float64bits of PhaseMarginDeg, CrossoverRadPerSec
	}{
		{"dcqcn", 1, 4e-6, 0x403a8f2403195f20, 0x40b53f5a3ca1891c},
		{"dcqcn", 1, 85e-6, 0x3ff4fd436c5fba00, 0x40b5496971dd6b4a},
		{"dcqcn", 1, 120e-6, 0xc0234cedcaabb960, 0x40b54dec9d3baa46},
		{"dcqcn", 2, 4e-6, 0x403368a0ddd07748, 0x40b03b85d6da39ce},
		{"dcqcn", 2, 85e-6, 0x3fc14fb5882ea400, 0x40b045bba1f7eef4},
		{"dcqcn", 2, 120e-6, 0xc0207ee8583a1810, 0x40b04a3e3cf53014},
		{"dcqcn", 10, 4e-6, 0x40214fb0e5559e40, 0x40a42de50b4b22f1},
		{"dcqcn", 10, 85e-6, 0xc00b0602beb750c0, 0x40a44fa7c19769b2},
		{"dcqcn", 10, 120e-6, 0xc021597c3d686190, 0x40a45e690c53dc63},
		{"dcqcn", 64, 4e-6, 0x40380ac1320b5930, 0x4097eb206817c864},
		{"dcqcn", 64, 85e-6, 0x40311eb98f05c0f8, 0x409872d087b3f468},
		{"dcqcn", 64, 120e-6, 0x402bd8d8eaadfe70, 0x4098b25adb7b9ca0},
		{"ingress", 10, 85e-6, 0xc01c1fd9492467a0, 0x40a44fa7c19769b2},
		{"patched", 2, 0, 0x401c141e2d913280, 0x409c3545273b3c14},
		{"patched", 10, 0, 0x4046a31ad0ee38b0, 0x40a00ad31f6c3004},
		{"patched", 40, 0, 0xc0536c83d16ba2d4, 0x40a9c8acaf1f560b},
		{"patched", 64, 0, 0xc060d0f7a9517e3e, 0x40a8633fee460d02},
	} {
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
			t.Fatalf("%s N=%d τ*=%g: %v", c.model, c.n, c.tau, err)
		}
		res, err := PhaseMargin(loop)
		if err != nil {
			t.Fatalf("%s N=%d τ*=%g: %v", c.model, c.n, c.tau, err)
		}
		if pm, wc := math.Float64bits(res.PhaseMarginDeg), math.Float64bits(res.CrossoverRadPerSec); pm != c.pm || wc != c.wc {
			t.Errorf("%s N=%d τ*=%g: PM %v (%#x), crossover %v (%#x); want %v (%#x), %v (%#x)",
				c.model, c.n, c.tau, res.PhaseMarginDeg, pm, res.CrossoverRadPerSec, wc,
				math.Float64frombits(c.pm), c.pm, math.Float64frombits(c.wc), c.wc)
		}
	}
}
