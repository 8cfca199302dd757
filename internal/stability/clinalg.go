package stability

import (
	"fmt"
	"math/cmplx"
)

// solveComplex solves the dense complex linear system M x = b in place via
// Gaussian elimination with partial pivoting. M is row-major n×n and is
// destroyed. Back substitution stops at row first: row r reads only the
// solved rows after it, so b[first:] holds x[first:] with the bits a full
// solve (first = 0) gives, and b[:first] is left eliminated but unsolved.
// The matrices here are the 2×2 or 3×3 linearised rate subsystems, so no
// fancier factorisation is warranted.
func solveComplex(n int, m, b []complex128, first int) error {
	if len(m) != n*n || len(b) != n || first < 0 || first >= n {
		return fmt.Errorf("stability: bad system shape n=%d len(m)=%d len(b)=%d first=%d", n, len(m), len(b), first)
	}
	for col := 0; col < n; col++ {
		// Partial pivot: the first row of largest cmplx.Abs.
		pivot := col
		for r := col + 1; r < n; r++ {
			if absGreater(m[r*n+col], m[pivot*n+col]) {
				pivot = r
			}
		}
		if m[pivot*n+col] == 0 {
			return fmt.Errorf("stability: singular matrix at column %d", col)
		}
		if pivot != col {
			for k := col; k < n; k++ {
				m[col*n+k], m[pivot*n+k] = m[pivot*n+k], m[col*n+k]
			}
			b[col], b[pivot] = b[pivot], b[col]
		}
		if col == n-1 {
			break // no row below to eliminate, so no reciprocal to take
		}
		inv := 1 / m[col*n+col]
		for r := col + 1; r < n; r++ {
			f := m[r*n+col] * inv
			if f == 0 {
				continue
			}
			m[r*n+col] = 0
			for k := col + 1; k < n; k++ {
				m[r*n+k] -= f * m[col*n+k]
			}
			b[r] -= f * b[col]
		}
	}
	// Back substitution.
	for r := n - 1; r >= first; r-- {
		sum := b[r]
		for k := r + 1; k < n; k++ {
			sum -= m[r*n+k] * b[k]
		}
		b[r] = sum / m[r*n+r]
	}
	return nil
}

// Squared magnitudes decide a comparison the way the hypots they stand for
// would when both lie in [sqLo, sqHi] and differ by a relative gap above
// tieGap. In that range no part's square overflows, and a part whose
// square underflows moves the sum by under 2⁻¹⁷⁵ of it, so each squared
// magnitude is within a few ulps of exact; math.Hypot is within two ulps
// of exact. A 1e-9 gap in the squares is a 5e-10 gap in the magnitudes,
// about 10⁵ times both errors together, so the two orders agree.
const (
	sqLo   = 0x1p-900
	sqHi   = 0x1p900
	tieGap = 1e-9
)

// sqAbs returns re(z)² + im(z)².
func sqAbs(z complex128) float64 { return real(z)*real(z) + imag(z)*imag(z) }

// sqInRange reports whether a squared magnitude lies in [sqLo, sqHi]
// (never for zero, infinity or NaN).
func sqInRange(s float64) bool { return s >= sqLo && s <= sqHi }

// absGreater reports cmplx.Abs(a) > cmplx.Abs(b). An exactly zero a never
// wins (the structural zeros of the rate subsystems take this exit).
// Otherwise it compares squared magnitudes when they decide it (see sqLo),
// and the two hypots for the rest: near-ties, a zero b, tiny or huge
// values, infinities and NaNs.
func absGreater(a, b complex128) bool {
	if a == 0 {
		return false
	}
	if sa, sb := sqAbs(a), sqAbs(b); sqInRange(sa) && sqInRange(sb) {
		if sa > sb*(1+tieGap) {
			return true
		}
		if sb > sa*(1+tieGap) {
			return false
		}
	}
	return cmplx.Abs(a) > cmplx.Abs(b)
}
