package fluid

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
)

// trajectoryDigest integrates m for 2 ms at h = 1 µs and hashes the bits of
// every recorded time and state component.
func trajectoryDigest(m Model) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, s := range Run(m, 1e-6, 2e-3, 1e-6) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(s.T))
		h.Write(buf[:])
		for _, v := range s.Y {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

// TestDCQCNTrajectoryBits pins the DCQCN fluid trajectories (Fig. 4 at
// N = 10, τ* = 85 µs, unequal starts) to the bit, with each model option
// and with PI marking, so a rewrite of the Eq. 5-7/12 right-hand side that
// moves a rounding fails here. The digests were recorded on linux/amd64;
// architectures that fuse multiply-adds may round differently.
func TestDCQCNTrajectoryBits(t *testing.T) {
	base := func() DCQCNConfig {
		p := DefaultDCQCNParams(10)
		p.TauStar = 85e-6
		rates := make([]float64, p.N)
		for i := range rates {
			rates[i] = p.C * float64(i+1) / float64(p.N)
		}
		return DCQCNConfig{Params: p, InitialRC: rates}
	}
	for _, c := range []struct {
		name  string
		build func() (Model, error)
		want  uint64
	}{
		{"dcqcn", func() (Model, error) { return NewDCQCN(base()) }, 0x665b4d2be15ae223},
		{"strict_red", func() (Model, error) {
			cfg := base()
			cfg.StrictRED = true
			return NewDCQCN(cfg)
		}, 0x5b66a8b7200ec17e},
		{"ingress", func() (Model, error) {
			cfg := base()
			cfg.IngressMarking = true
			return NewDCQCN(cfg)
		}, 0x6d906df12694e06d},
		{"jitter", func() (Model, error) {
			cfg := base()
			cfg.JitterMax = 20e-6
			cfg.Seed = 7
			return NewDCQCN(cfg)
		}, 0x2b3741a8743386c7},
		{"pi", func() (Model, error) { return NewDCQCNPI(DCQCNPIConfig{DCQCN: base()}) }, 0x882ec1296487e0e},
	} {
		m, err := c.build()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := trajectoryDigest(m); got != c.want {
			t.Errorf("%s: trajectory digest %#x, want %#x", c.name, got, c.want)
		}
	}
}
