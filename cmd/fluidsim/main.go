// Command fluidsim integrates one of the paper's fluid models and writes
// the trajectory as TSV (time, queue, per-flow rates) for plotting.
//
//	fluidsim -model dcqcn -n 10 -delay 85e-6 -horizon 0.2 > dcqcn.tsv
//	fluidsim -model patched -n 2 -rates 875e6,375e6
//	fluidsim -model timelypi -n 2 -stagger 0.1
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"ecndelay/internal/fluid"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fluidsim: ")
	var (
		model   = flag.String("model", "dcqcn", "dcqcn | timely | patched | dcqcnpi | timelypi")
		n       = flag.Int("n", 2, "number of flows")
		delay   = flag.Float64("delay", 4e-6, "DCQCN feedback delay τ* (seconds)")
		jitter  = flag.Float64("jitter", 0, "uniform feedback jitter bound (seconds)")
		horizon = flag.Float64("horizon", 0.1, "simulated seconds")
		step    = flag.Float64("step", 1e-6, "integration step (seconds)")
		sample  = flag.Float64("sample", 1e-4, "output sampling interval (seconds)")
		rates   = flag.String("rates", "", "comma-separated initial rates (model units)")
		stagger = flag.Float64("stagger", 0, "start time of the last flow (seconds)")
		seed    = flag.Int64("seed", 1, "jitter seed")
	)
	flag.Parse()

	var initial []float64
	if *rates != "" {
		for _, f := range strings.Split(*rates, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				log.Fatalf("bad -rates: %v", err)
			}
			initial = append(initial, v)
		}
		if len(initial) != *n {
			log.Fatalf("-rates has %d entries, -n is %d", len(initial), *n)
		}
	}
	var starts []float64
	if *stagger > 0 {
		starts = make([]float64, *n)
		starts[*n-1] = *stagger
	}

	var (
		sys    fluid.Model
		labels []string
		err    error
	)
	switch *model {
	case "dcqcn":
		p := fluid.DefaultDCQCNParams(*n)
		p.TauStar = *delay
		m, e := fluid.NewDCQCN(fluid.DCQCNConfig{
			Params: p, InitialRC: initial, JitterMax: *jitter, Seed: *seed,
		})
		sys, err = m, e
		labels = dcqcnLabels(m, *n)
	case "timely", "patched":
		cfg := fluid.DefaultTimelyConfig(*n)
		if *model == "patched" {
			cfg = fluid.DefaultPatchedTimelyConfig(*n)
		}
		cfg.InitialRates = initial
		cfg.StartTimes = starts
		cfg.JitterMax = *jitter
		cfg.Seed = *seed
		if *model == "patched" {
			m, e := fluid.NewPatchedTimely(cfg)
			sys, err = m, e
			labels = timelyLabels(*n)
		} else {
			m, e := fluid.NewTimely(cfg)
			sys, err = m, e
			labels = timelyLabels(*n)
		}
	case "dcqcnpi":
		p := fluid.DefaultDCQCNParams(*n)
		p.TauStar = *delay
		m, e := fluid.NewDCQCNPI(fluid.DCQCNPIConfig{
			DCQCN: fluid.DCQCNConfig{Params: p, InitialRC: initial, JitterMax: *jitter, Seed: *seed},
		})
		sys, err = m, e
		labels = dcqcnPILabels(*n)
	case "timelypi":
		cfg := fluid.DefaultPatchedTimelyConfig(*n)
		cfg.InitialRates = initial
		cfg.StartTimes = starts
		m, e := fluid.NewTimelyPI(fluid.TimelyPIConfig{Timely: cfg})
		sys, err = m, e
		labels = timelyPILabels(*n)
	default:
		log.Fatalf("unknown -model %q", *model)
	}
	if err != nil {
		log.Fatal(err)
	}

	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	fmt.Fprintln(out, "# "+strings.Join(labels, "\t"))
	for _, s := range fluid.Run(sys, *step, *horizon, *sample) {
		fmt.Fprintf(out, "%.6f", s.T)
		for _, v := range s.Y {
			fmt.Fprintf(out, "\t%.6g", v)
		}
		fmt.Fprintln(out)
	}
}

func dcqcnLabels(m *fluid.DCQCNSystem, n int) []string {
	labels := []string{"t", "q_pkts"}
	for i := 0; i < n; i++ {
		labels = append(labels, fmt.Sprintf("alpha%d", i), fmt.Sprintf("rt%d", i), fmt.Sprintf("rc%d", i))
	}
	_ = m
	return labels
}

func dcqcnPILabels(n int) []string {
	labels := []string{"t", "q_pkts", "p"}
	for i := 0; i < n; i++ {
		labels = append(labels, fmt.Sprintf("alpha%d", i), fmt.Sprintf("rt%d", i), fmt.Sprintf("rc%d", i))
	}
	return labels
}

func timelyLabels(n int) []string {
	labels := []string{"t", "q_bytes"}
	for i := 0; i < n; i++ {
		labels = append(labels, fmt.Sprintf("rate%d", i), fmt.Sprintf("grad%d", i))
	}
	return labels
}

func timelyPILabels(n int) []string {
	labels := []string{"t", "q_bytes"}
	for i := 0; i < n; i++ {
		labels = append(labels, fmt.Sprintf("rate%d", i), fmt.Sprintf("grad%d", i), fmt.Sprintf("p%d", i))
	}
	return labels
}
