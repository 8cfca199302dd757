// Package sweep is a deterministic parallel job engine for experiment
// grids. Every result in this repository — phase-margin grids, FCT
// sweeps, the exp.Runner tables — is an embarrassingly parallel matrix
// of independent jobs; this package fans such a matrix out over a
// bounded worker pool while keeping the output bit-identical to a
// serial run:
//
//   - each job's seed is derived from the sweep base seed and the job's
//     stable index (DeriveSeed), never from scheduling order;
//   - jobs are fault-isolated: a panic fails that one job with a
//     recorded error instead of killing the sweep;
//   - results stream through a Sink; the JSONL sink checkpoints every
//     completed job so an interrupted sweep resumes where it stopped.
//
// The engine is generic: a Job is any func(seed) -> metrics. The glue
// that turns registered experiments or phase-margin grids into jobs
// lives in the callers (exp.SweepJobs, cmd/ecnbench, cmd/phasemargin).
package sweep

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Job is one unit of work in a sweep. ID must be unique within the
// sweep and stable across runs: it keys checkpoint/resume. Meta is
// copied verbatim into the job's Result row (grid coordinates, model
// names — anything a reader of the JSONL needs to pivot on).
type Job struct {
	ID   string
	Meta map[string]string
	// Run executes the job with the engine-derived seed. Deterministic
	// jobs that pin their own seed (e.g. an explicit -seeds grid axis)
	// may ignore it.
	Run func(seed int64) (map[string]float64, error)
}

// Config tunes one engine invocation. The zero value is usable: all
// CPUs, base seed 0.
type Config struct {
	// Workers bounds the pool; <= 0 means runtime.GOMAXPROCS(0).
	Workers int
	// BaseSeed is mixed with each job's index by DeriveSeed.
	BaseSeed int64
}

// Result is the outcome of one job. Its JSON encoding is deterministic
// (fixed field order, map keys sorted by encoding/json), so sorting a
// sweep's JSONL rows by job ID yields byte-identical output regardless
// of worker count. Wall-clock timing is deliberately excluded for the
// same reason.
type Result struct {
	JobID   string             `json:"job"`
	Index   int                `json:"index"`
	Seed    int64              `json:"seed"`
	Meta    map[string]string  `json:"meta,omitempty"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
	Err     string             `json:"err,omitempty"`
	// Attempts is always 1: the engine runs each job once. It stays in
	// the row so checkpoints keep the bytes earlier sweeps wrote.
	Attempts int `json:"attempts"`
}

// Summary aggregates one engine invocation.
type Summary struct {
	Executed int // jobs actually run (not resumed away)
	Skipped  int // jobs the sink reported already completed
	Failed   int // executed jobs that returned an error or panicked
}

// DeriveSeed maps (baseSeed, job index) to a well-mixed per-job seed
// using the splitmix64 finalizer, so neighbouring indices get
// statistically independent seeds and a parallel sweep seeds each job
// identically to a serial one.
func DeriveSeed(base int64, index int) int64 {
	z := uint64(base) + 0x9e3779b97f4a7c15*uint64(index+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// Run executes jobs over a bounded worker pool and streams results into
// sink (nil discards them). It refuses an invalid job list before
// running anything. Jobs whose ID the sink reports completed are
// skipped. Results are delivered to the sink from a single goroutine,
// so sinks need no internal locking for engine use. A sink write error
// stops the workers from starting further jobs and is returned after
// the jobs already running drain.
func Run(cfg Config, jobs []Job, sink Sink) (Summary, error) {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	seen := make(map[string]struct{}, len(jobs))
	for i, j := range jobs {
		if j.ID == "" {
			return Summary{}, fmt.Errorf("sweep: job %d has empty ID", i)
		}
		if j.Run == nil {
			return Summary{}, fmt.Errorf("sweep: job %q has nil Run", j.ID)
		}
		if _, dup := seen[j.ID]; dup {
			return Summary{}, fmt.Errorf("sweep: duplicate job ID %q", j.ID)
		}
		seen[j.ID] = struct{}{}
	}

	var pending []int
	for i, j := range jobs {
		if sink != nil && sink.Completed(j.ID) {
			continue
		}
		pending = append(pending, i)
	}
	sum := Summary{Skipped: len(jobs) - len(pending)}

	// Each worker claims the next pending job itself, and results has room
	// for every job, so no worker ever waits on a dispatcher or on the
	// sink: a pool that stalled on those handoffs ran the pm_sweep
	// benchmark about 8% slower on a 2-vCPU host.
	var aborted atomic.Bool
	var next atomic.Int64
	results := make(chan Result, len(pending))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !aborted.Load() {
				k := int(next.Add(1)) - 1
				if k >= len(pending) {
					return
				}
				i := pending[k]
				results <- execute(jobs[i], i, DeriveSeed(cfg.BaseSeed, i))
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	var sinkErr error
	for r := range results {
		sum.Executed++
		if r.Err != "" {
			sum.Failed++
		}
		if sink != nil && sinkErr == nil {
			if err := sink.Write(r); err != nil {
				sinkErr = fmt.Errorf("sweep: sink write for job %q: %w", r.JobID, err)
				aborted.Store(true)
			}
		}
	}
	return sum, sinkErr
}

// execute runs one job on the calling worker. A panic is recovered into
// the job's own failed row, so it never takes the sweep down with it.
func execute(job Job, index int, seed int64) (res Result) {
	res = Result{JobID: job.ID, Index: index, Seed: seed, Meta: job.Meta, Attempts: 1}
	defer func() {
		if r := recover(); r != nil {
			res.Err = fmt.Sprintf("sweep: job %q panicked: %v", job.ID, r)
		}
	}()
	m, err := job.Run(seed)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	res.Metrics = m
	return res
}
