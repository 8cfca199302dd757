// Command bench is the repository benchmark. It drives the simulator's
// layers from outside, through their public functions, on four fixed-count
// workloads, checks every iteration's output against a digest, and prints
// one JSON result line. See README.md for the workloads and metrics.
//
// Run it from the repository root:
//
//	bash bench/run.sh --workload fct_dumbbell --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --compare before.jsonl after.jsonl
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// spec is BENCHMARK.json: the workloads and the metrics the benchmark must
// print, with their units and regression bounds.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one line of a -record file: a result with the run that made it.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Result   result `json:"result"`
}

// golden holds the digests of the first iterations at -seed 1.
//
//go:embed testdata/golden.json
var goldenJSON []byte

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (see BENCHMARK.json)")
	seed := fs.Int64("seed", 1, "base seed; iteration i uses sweep.DeriveSeed(seed, i)")
	seconds := fs.Int("seconds", 0, "run length, fixing the iteration count (0: BENCHMARK.json run_seconds)")
	trace := fs.Int("trace", 0, "1: traced run printing the per-layer metrics")
	out := fs.String("out", ".bench_build/bench-out", "directory for temporary files, spans and the CPU profile")
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition")
	recordPath := fs.String("record", "", "also append the result, tagged with workload and seed, to this JSONL file")
	compare := fs.Bool("compare", false, "compare two -record files given as arguments: before after")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, err := readSpec(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two record files: before after")
			return 2
		}
		if err := compareFiles(sp, fs.Arg(0), fs.Arg(1), stdout); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		return 0
	}
	w, ok := findWorkload(*name)
	if !ok || !sp.hasWorkload(*name) {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "bench: -trace must be 0 or 1")
		return 2
	}
	s := *seconds
	if s <= 0 {
		s = sp.RunSeconds
	}
	n := max(1, int(w.perSecond*float64(s)+0.5))
	b, err := newBench(w, *seed, *out, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	var res result
	if *trace == 1 {
		res, err = b.traced(sp, n)
	} else {
		res, err = b.untraced(sp, n)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *recordPath != "" {
		if err := appendRecord(*recordPath, record{w.name, *seed, *trace, res}); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

func (s *spec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

func appendRecord(path string, r record) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// bench runs one workload at one base seed.
type bench struct {
	w      workloadDef
	seed   int64
	out    string
	golden []string // hex digests of the first iterations at seed 1
	log    io.Writer
}

// newBench prepares a run of w at base seed seed, with its temporary files
// under out and its diagnostics on log.
func newBench(w workloadDef, seed int64, out string, log io.Writer) (*bench, error) {
	var golden map[string][]string
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		return nil, fmt.Errorf("golden digests: %w", err)
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	return &bench{w: w, seed: seed, out: out, golden: golden[w.name], log: log}, nil
}

// checks marks iterations whose digests disagree with the untimed warm-up
// run of iteration 0 before the loop, a re-run of iteration 0 after it, or
// (at seed 1) the golden digests.
func (b *bench) checks(ls *loopStats, warm uint64) {
	again := b.once()
	if ls.digests[0] != warm || ls.digests[0] != again {
		fmt.Fprintf(b.log, "bench: iteration 0 digest %016x, warm-up %016x, re-run %016x\n", ls.digests[0], warm, again)
		ls.ok[0] = false
	}
	if b.seed != 1 {
		return
	}
	for i, g := range b.golden {
		if i < len(ls.digests) && fmt.Sprintf("%016x", ls.digests[i]) != g {
			fmt.Fprintf(b.log, "bench: iteration %d digest %016x, golden %s\n", i, ls.digests[i], g)
			ls.ok[i] = false
		}
	}
}

// once runs iteration 0 untimed and returns its digest (0 on error).
func (b *bench) once() uint64 {
	return b.loop(1, nil).digests[0]
}

func (b *bench) report(ls *loopStats) {
	var ds []string
	for i := 0; i < len(ls.digests) && i < 4; i++ {
		ds = append(ds, fmt.Sprintf("%016x", ls.digests[i]))
	}
	fmt.Fprintf(b.log, "bench: %s seed %d: %d iterations, first digests %v\n", b.w.name, b.seed, len(ls.digests), ds)
	fmt.Fprintf(b.log, "bench: reference kernel p50 %.3f ms (%.3f ms at the reference speed); times are scaled by the ratio\n",
		1e3*median(ls.refS), 1e3*refSeconds)
}

func failures(ok []bool) int {
	n := 0
	for _, v := range ok {
		if !v {
			n++
		}
	}
	return n
}

// untraced measures the end-to-end metrics over n timed iterations.
func (b *bench) untraced(sp *spec, n int) (result, error) {
	warm := b.once()
	runtime.GC()
	ls := b.loop(n, nil)
	rss, err := maxRSSBytes()
	if err != nil {
		return result{}, err
	}
	b.checks(ls, warm)
	b.report(ls)
	if len(ls.iterS) == 0 {
		return result{}, fmt.Errorf("%s: every iteration failed", b.w.name)
	}
	m := map[string]metric{
		"iter_s_p50":        {quantile(ls.iterS, 0.5), "s"},
		"iter_s_p90":        {quantile(ls.iterS, 0.9), "s"},
		"setup_s":           {quantile(ls.setupS, 0.5), "s"},
		"alloc_mb_per_iter": {quantile(ls.allocB, 0.5) / 1e6, "MB"},
		"max_rss_mb":        {rss / 1e6, "MB"},
	}
	return pick(sp.EndToEnd, m, len(ls.ok), failures(ls.ok))
}

// traced runs a quarter of the iterations twice on the same seeds: first
// without tracing, then with spans, 1 ms RunUntil slices, work counters and
// a CPU profile. It reports the per-layer metrics and writes the spans and
// the profile under -out.
func (b *bench) traced(sp *spec, n int) (result, error) {
	n = max(1, n/4)
	warm := b.once()
	runtime.GC()
	plain := b.loop(n, nil)

	runtime.GC()
	tr := newTracer()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return result{}, err
	}
	ls := b.loop(n, tr)
	pprof.StopCPUProfile()

	for i := 0; i < len(ls.digests) && i < len(plain.digests); i++ {
		if ls.ok[i] && plain.ok[i] && ls.digests[i] != plain.digests[i] {
			fmt.Fprintf(b.log, "bench: iteration %d traced digest %016x, untraced %016x\n", i, ls.digests[i], plain.digests[i])
			ls.ok[i] = false
		}
	}
	b.checks(ls, warm)
	b.report(ls)
	if len(ls.iterS) == 0 || len(plain.iterS) == 0 {
		return result{}, fmt.Errorf("%s: every iteration failed", b.w.name)
	}
	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		return result{}, err
	}
	spans := tr.finish()
	if err := b.writeTrace(spans, prof.Bytes()); err != nil {
		return result{}, err
	}
	m := layerMetrics(plain, ls, aggregate(spans), shares)
	return pick(sp.PerLayer, m, len(plain.ok)+len(ls.ok), failures(plain.ok)+failures(ls.ok))
}

func (b *bench) writeTrace(spans []spanRec, prof []byte) error {
	base := filepath.Join(b.out, b.w.name+"-"+strconv.FormatInt(b.seed, 10))
	if err := os.WriteFile(base+".cpu.pprof", prof, 0o644); err != nil {
		return err
	}
	f, err := os.Create(base + ".spans.jsonl")
	if err != nil {
		return err
	}
	if err := writeSpans(f, spans); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(b.log, "bench: spans in %s.spans.jsonl, CPU profile in %s.cpu.pprof\n", base, base)
	agg := aggregate(spans)
	names := make([]string, 0, len(agg))
	for name := range agg {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return agg[names[i]].Self > agg[names[j]].Self })
	fmt.Fprintf(b.log, "%-28s %8s %12s %12s\n", "span", "count", "total ms", "self ms")
	for _, name := range names {
		a := agg[name]
		fmt.Fprintf(b.log, "%-28s %8d %12.3f %12.3f\n", name, a.Count, float64(a.Total)/1e6, float64(a.Self)/1e6)
	}
	return nil
}

// pick returns the listed metrics, in the units the spec states. A listed
// metric the benchmark does not compute, or computes in another unit, is
// an error: the spec and the code must agree.
func pick(list []specMetric, m map[string]metric, attempted, failed int) (result, error) {
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: make(map[string]metric, len(list))}
	for _, s := range list {
		v, ok := m[s.Name]
		if !ok {
			return result{}, fmt.Errorf("metric %s in the spec is not computed", s.Name)
		}
		if v.Unit != s.Unit {
			return result{}, fmt.Errorf("metric %s: spec unit %q, computed in %q", s.Name, s.Unit, v.Unit)
		}
		res.Metrics[s.Name] = v
	}
	return res, nil
}
