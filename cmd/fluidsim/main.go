// Command fluidsim integrates one of the paper's fluid models and writes
// the trajectory as TSV (time, queue, per-flow rates) for plotting.
//
//	fluidsim -model dcqcn -n 10 -delay 85e-6 -horizon 0.2 > dcqcn.tsv
//	fluidsim -model patched -n 2 -rates 875e6,375e6
//	fluidsim -model timelypi -n 2 -stagger 0.1
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"

	"ecndelay/internal/cli"
	"ecndelay/internal/fluid"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// Run budgets. fluid.Walk takes round(horizon/step) RK4 steps and keeps a
// history ring of min(ceil(MaxDelay/step)+4, steps+1) states of Dim()
// values, so a tiny -step or a huge -n can ask for more steps or memory
// than any host has, or for counts past the int range. run refuses a flag
// set past either budget before it builds the per-flow column labels or
// integrates:
//   - maxSteps: 1e9 steps is 1000 simulated seconds at the default 1 µs
//     step, a thousand times the longest fluid run of any experiment in
//     this module (1 s), and tens of CPU minutes even at N = 10.
//   - maxRingValues: 2^27 float64 values is 1 GiB of ring. The longest
//     lag any model asks for is TIMELY's, about 0.14 s: at the default
//     step and N = 64 that is 27 M values.
const (
	maxSteps      = 1e9
	maxRingValues = 1 << 27
)

// unused names, per model, the flags that model has no input for.
var unused = map[string][]string{
	"dcqcn":    {"stagger"},
	"dcqcnpi":  {"stagger"},
	"timely":   {"delay"},
	"patched":  {"delay"},
	"timelypi": {"delay"},
}

// run is the whole command. It exits 2 on a refused flag value or
// combination, 1 when the trajectory cannot be written, and 0 otherwise.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fluidsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		model   = fs.String("model", "dcqcn", "dcqcn | timely | patched | dcqcnpi | timelypi")
		n       = fs.Int("n", 2, "number of flows")
		delay   = fs.Float64("delay", 4e-6, "DCQCN feedback delay τ* (seconds)")
		jitter  = fs.Float64("jitter", 0, "uniform feedback jitter bound (seconds)")
		horizon = fs.Float64("horizon", 0.1, "simulated seconds")
		step    = fs.Float64("step", 1e-6, "integration step (seconds)")
		sample  = fs.Float64("sample", 1e-4, "output sampling interval (seconds)")
		rates   = fs.String("rates", "", "comma-separated initial rates (model units)")
		stagger = fs.Float64("stagger", 0, "start time of the last flow (seconds)")
		seed    = fs.Int64("seed", 1, "jitter seed")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(code int, format string, a ...any) int {
		fmt.Fprintf(stderr, "fluidsim: "+format+"\n", a...)
		return code
	}

	// Refuse every bad value and combination before integrating, so a
	// mistyped flag ends in one line naming it rather than a panic or a
	// silently ignored value.
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	switch {
	case fs.NArg() > 0:
		return fail(2, "unexpected argument %q", fs.Arg(0))
	case *n < 1:
		return fail(2, "-n must be >= 1, got %d", *n)
	case !finite(*step) || *step <= 0:
		return fail(2, "-step must be finite and positive, got %g", *step)
	case !finite(*sample) || *sample <= 0:
		return fail(2, "-sample must be finite and positive, got %g", *sample)
	case !finite(*horizon) || *horizon <= 0:
		return fail(2, "-horizon must be finite and positive, got %g", *horizon)
	case !finite(*jitter) || *jitter < 0:
		return fail(2, "-jitter must be finite and >= 0, got %g", *jitter)
	case !finite(*stagger) || *stagger < 0:
		return fail(2, "-stagger must be finite and >= 0, got %g", *stagger)
	}
	skip, ok := unused[*model]
	if !ok {
		return fail(2, "unknown -model %q", *model)
	}
	refused := ""
	fs.Visit(func(f *flag.Flag) {
		if refused == "" && slices.Contains(skip, f.Name) {
			refused = f.Name
		}
	})
	if refused != "" {
		return fail(2, "-%s does not apply to -model %s", refused, *model)
	}

	var initial []float64
	if *rates != "" {
		var err error
		if initial, err = cli.ParseFloats(*rates); err != nil {
			return fail(2, "bad -rates: %v", err)
		}
		if len(initial) != *n {
			return fail(2, "-rates has %d entries, -n is %d", len(initial), *n)
		}
	}
	var starts []float64
	if *stagger > 0 {
		starts = make([]float64, *n)
		starts[*n-1] = *stagger
	}

	var (
		sys     fluid.Model
		shared  []string // the TSV columns before the per-flow ones
		perFlow []string
		err     error
	)
	switch *model {
	case "dcqcn":
		p := fluid.DefaultDCQCNParams(*n)
		p.TauStar = *delay
		sys, err = fluid.NewDCQCN(fluid.DCQCNConfig{
			Params: p, InitialRC: initial, JitterMax: *jitter, Seed: *seed,
		})
		shared, perFlow = []string{"t", "q_pkts"}, []string{"alpha", "rt", "rc"}
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
			sys, err = fluid.NewPatchedTimely(cfg)
		} else {
			sys, err = fluid.NewTimely(cfg)
		}
		shared, perFlow = []string{"t", "q_bytes"}, []string{"rate", "grad"}
	case "dcqcnpi":
		p := fluid.DefaultDCQCNParams(*n)
		p.TauStar = *delay
		sys, err = fluid.NewDCQCNPI(fluid.DCQCNPIConfig{
			DCQCN: fluid.DCQCNConfig{Params: p, InitialRC: initial, JitterMax: *jitter, Seed: *seed},
		})
		shared, perFlow = []string{"t", "q_pkts", "p"}, []string{"alpha", "rt", "rc"}
	case "timelypi":
		cfg := fluid.DefaultPatchedTimelyConfig(*n)
		cfg.InitialRates = initial
		cfg.StartTimes = starts
		cfg.JitterMax = *jitter
		cfg.Seed = *seed
		sys, err = fluid.NewTimelyPI(fluid.TimelyPIConfig{Timely: cfg})
		shared, perFlow = []string{"t", "q_bytes"}, []string{"rate", "grad", "p"}
	}
	if err != nil {
		return fail(2, "-model %s: %v", *model, err)
	}
	steps := math.Round(*horizon / *step)
	ring := min(math.Ceil(sys.MaxDelay() / *step)+4, steps+1) * float64(sys.Dim())
	if steps > maxSteps || ring > maxRingValues {
		return fail(2, "-step %g over -horizon %g with -n %d takes %.3g steps and a history ring of %.3g values; the budget is %.3g steps and %.3g values",
			*step, *horizon, *n, steps, ring, float64(maxSteps), float64(maxRingValues))
	}

	// Each row is written as the walk reaches it, so memory holds the
	// history ring and the output buffer, never the trajectory.
	out := bufio.NewWriter(stdout)
	fmt.Fprintln(out, "# "+strings.Join(header(*n, shared, perFlow...), "\t"))
	fluid.Walk(sys, *step, *horizon, *sample, func(t float64, y []float64) {
		fmt.Fprintf(out, "%.6f", t)
		for _, v := range y {
			fmt.Fprintf(out, "\t%.6g", v)
		}
		fmt.Fprintln(out)
	})
	if err := out.Flush(); err != nil {
		return fail(1, "%v", err)
	}
	return 0
}

// header builds the TSV column names: the shared columns, then the
// per-flow columns suffixed with each flow's index.
func header(n int, shared []string, perFlow ...string) []string {
	for i := 0; i < n; i++ {
		for _, c := range perFlow {
			shared = append(shared, fmt.Sprintf("%s%d", c, i))
		}
	}
	return shared
}
