package fixedpoint

import (
	"math"
	"testing"
)

// TestSolveDCQCNBits pins every field of the Theorem 1 fixed point to the
// bit, so a rewrite of the Eq. 11/12 arithmetic that moves a rounding
// fails here. The bits were recorded on linux/amd64; architectures that
// fuse multiply-adds may round differently.
func TestSolveDCQCNBits(t *testing.T) {
	for _, c := range []struct {
		n                   int
		p, q, alpha, rc, rt uint64
	}{
		{2, 0x3f4975da627cc6d8, 0x403426ba2d8bf0f5, 0x3fb9f301628eb0cf, 0x414312d000000000, 0x414348085db094d4},
		{10, 0x3f78b4f6a6d2eeec, 0x405ea7e14fad2cbc, 0x3fc39e906b92bdb6, 0x411e848000000000, 0x411f4e481fbc9b0a},
		{64, 0x3fae3c45972fcf80, 0x4092122e09b05ba3, 0x3fcd753bf695b2fe, 0x40f312d000000000, 0x40f446fa9db25784},
	} {
		fp, err := SolveDCQCN(defaultParams(c.n))
		if err != nil {
			t.Fatalf("N=%d: %v", c.n, err)
		}
		for _, f := range []struct {
			name string
			got  float64
			want uint64
		}{
			{"P", fp.P, c.p}, {"Q", fp.Q, c.q}, {"Alpha", fp.Alpha, c.alpha},
			{"RC", fp.RC, c.rc}, {"RT", fp.RT, c.rt},
		} {
			if bits := math.Float64bits(f.got); bits != f.want {
				t.Errorf("N=%d: %s = %v (%#x), want %v (%#x)",
					c.n, f.name, f.got, bits, math.Float64frombits(f.want), f.want)
			}
		}
	}
}
