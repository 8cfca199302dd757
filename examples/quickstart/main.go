// Quickstart: two DCQCN flows sharing a 40 Gb/s bottleneck.
//
// The program computes the Theorem 1 fixed point analytically, integrates
// the Figure 1 fluid model toward it, and then runs the same scenario on
// the packet-level simulator — the three views of the system this library
// provides. Expected output: all three agree that each flow settles at
// 20 Gb/s with ~20 KB of standing queue.
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

// run prints the three views of the quickstart scenario. quick shortens
// the packet-level leg so tests finish fast; the full run lets the
// simulator settle into the analytical fixed point.
func run(w io.Writer, quick bool) error {
	// 1. The analytical fixed point (Theorem 1, Eq. 9-11).
	params := ecndelay.DefaultDCQCNParams(2)
	fp, err := ecndelay.SolveDCQCNFixedPoint(params)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Theorem 1 fixed point:")
	fmt.Fprintf(w, "  marking probability p* = %.4g\n", fp.P)
	fmt.Fprintf(w, "  queue q*               = %.1f KB\n", fp.Q) // packets of 1 KB
	fmt.Fprintf(w, "  per-flow rate          = %.1f Gb/s\n", fp.RC*1000*8/1e9)

	// 2. The fluid model (Figure 1) integrated for 100 ms.
	sys, err := ecndelay.NewDCQCNFluid(ecndelay.DCQCNFluidConfig{Params: params})
	if err != nil {
		return err
	}
	trajectory := ecndelay.RunFluid(sys, 1e-6, 0.1, 1e-4)
	last := trajectory[len(trajectory)-1]
	fmt.Fprintln(w, "\nFluid model after 100 ms:")
	fmt.Fprintf(w, "  queue  = %.1f KB\n", last.Y[sys.QIndex()])
	fmt.Fprintf(w, "  flow 1 = %.1f Gb/s, flow 2 = %.1f Gb/s\n",
		last.Y[sys.RCIndex(0)]*1000*8/1e9, last.Y[sys.RCIndex(1)]*1000*8/1e9)

	// 3. The packet-level simulator: same scenario, real packets, RED/ECN
	// marking on egress, CNPs on the reverse path.
	horizon, from, to := 50*ecndelay.Millisecond, 0.03, 0.05
	if quick {
		horizon, from, to = 10*ecndelay.Millisecond, 0.006, 0.01
	}
	nw := ecndelay.NewNetwork(1)
	star := ecndelay.NewStar(nw, ecndelay.StarConfig{
		Senders: 2,
		Link:    ecndelay.LinkConfig{Bandwidth: 5e9, PropDelay: ecndelay.Microsecond},
		// Table 1's Kmin = 5 KB, Kmax = 200 KB and Pmax = 1%, in bytes: the
		// profile hybrid.DCQCNScenario.Marker builds from the same
		// parameters. It is typed out here because the public facade does
		// not export internal/hybrid.
		Mark: func() ecndelay.Marker {
			return &ecndelay.REDMarker{Kmin: 5000, Kmax: 200000, Pmax: 0.01, Rng: nw.Rng}
		},
	})
	if _, err := ecndelay.NewDCQCNEndpoint(star.Receiver, ecndelay.DefaultDCQCNProtoParams()); err != nil {
		return err
	}
	var senders []*ecndelay.DCQCNSender
	for i, h := range star.Senders {
		ep, err := ecndelay.NewDCQCNEndpoint(h, ecndelay.DefaultDCQCNProtoParams())
		if err != nil {
			return err
		}
		s, err := ep.NewFlow(i, star.Receiver.ID(), -1, 0)
		if err != nil {
			return err
		}
		senders = append(senders, s)
	}
	queue := ecndelay.MonitorQueueBytes(nw, star.Bottleneck, 100*ecndelay.Microsecond)
	nw.Sim.RunUntil(ecndelay.Time(horizon))

	q := queue.WindowSummary(from, to)
	fmt.Fprintf(w, "\nPacket-level simulator after %s:\n", horizon)
	fmt.Fprintf(w, "  queue  = %.1f KB (sd %.1f)\n", q.Mean/1000, q.Stddev/1000)
	fmt.Fprintf(w, "  flow 1 = %.1f Gb/s, flow 2 = %.1f Gb/s\n",
		senders[0].Rate()*8/1e9, senders[1].Rate()*8/1e9)
	fmt.Fprintf(w, "  events simulated: %d\n", nw.Sim.Processed())
	return nil
}
