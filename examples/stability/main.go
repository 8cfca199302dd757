// Stability: the control-theoretic heart of the paper.
//
// The program linearises the DCQCN fluid model around its Theorem 1 fixed
// point and prints the Bode phase-margin map over flow counts and feedback
// delays — making DCQCN's strange non-monotonic stability (Figure 3a)
// visible as a valley of negative margins in the middle of the N axis.
// It then does the same for patched TIMELY (Figure 11), where the margin
// collapses at large N because the Eq. 31 queue drags the feedback delay
// up with it — the structural ECN-vs-delay difference of §5.2.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"ecndelay"
)

func main() {
	log.SetFlags(0)
	if err := run(os.Stdout, false); err != nil {
		log.Fatal(err)
	}
}

// run prints the phase-margin tables. Everything here is analytical
// (linearisation plus a frequency sweep), so quick and full runs are the
// same computation; the flag exists for symmetry with the other examples.
func run(w io.Writer, quick bool) error {
	_ = quick

	fmt.Fprintln(w, "DCQCN phase margin (degrees) — negative = unstable")
	fmt.Fprintln(w)
	delays := []float64{1e-6, 25e-6, 50e-6, 85e-6, 100e-6}
	fmt.Fprintf(w, "%6s", "N")
	for _, d := range delays {
		fmt.Fprintf(w, "%10.0fµs", d*1e6)
	}
	fmt.Fprintln(w)
	for _, n := range []int{1, 2, 4, 8, 10, 16, 32, 64} {
		fmt.Fprintf(w, "%6d", n)
		for _, d := range delays {
			p := ecndelay.DefaultDCQCNParams(n)
			p.TauStar = d
			loop, err := ecndelay.NewDCQCNLoop(p)
			if err != nil {
				return err
			}
			res, err := ecndelay.PhaseMargin(loop)
			if err != nil {
				return err
			}
			marker := " "
			if !res.Stable {
				marker = "*"
			}
			fmt.Fprintf(w, "%11s", fmt.Sprintf("%.1f%s", res.PhaseMarginDeg, marker))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "\n(*) unstable: note the dip around N≈8-16 at high delay, recovering for many flows —")
	fmt.Fprintln(w, "the non-monotonic behaviour §3.2 derives. Tuning R_AI down or K_max up lifts the valley:")

	for _, tune := range []struct {
		name string
		mod  func(*ecndelay.DCQCNParams)
	}{
		{"default (R_AI=40Mb/s, K_max=200KB)", func(*ecndelay.DCQCNParams) {}},
		{"R_AI=5Mb/s", func(p *ecndelay.DCQCNParams) { p.RAI = 5e6 / 8 / 1000 }},
		{"K_max=1600KB", func(p *ecndelay.DCQCNParams) { p.Kmax = 1600 }},
	} {
		p := ecndelay.DefaultDCQCNParams(10)
		p.TauStar = 85e-6
		tune.mod(&p)
		loop, err := ecndelay.NewDCQCNLoop(p)
		if err != nil {
			return err
		}
		res, err := ecndelay.PhaseMargin(loop)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  N=10, τ*=85µs, %-36s → %+6.1f°\n", tune.name, res.PhaseMarginDeg)
	}

	fmt.Fprintln(w, "\nPatched TIMELY phase margin vs N (Figure 11)")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%6s %14s %14s\n", "N", "q* (KB, Eq.31)", "margin (deg)")
	for _, n := range []int{2, 5, 10, 20, 30, 40, 50, 64} {
		cfg := ecndelay.DefaultPatchedTimelyFluidConfig(n)
		loop, err := ecndelay.NewPatchedTimelyLoop(cfg)
		if err != nil {
			return err
		}
		res, err := ecndelay.PhaseMargin(loop)
		if err != nil {
			return err
		}
		_, qStar, err := loop.Equilibrium()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%6d %14.1f %14.1f\n", n, qStar/1000, res.PhaseMarginDeg)
	}
	fmt.Fprintln(w, "\nDelay-based control cannot escape this: the queue IS the signal, so more flows mean")
	fmt.Fprintln(w, "more queue, more feedback lag, less margin. ECN marked on egress never couples the two.")
	return nil
}
