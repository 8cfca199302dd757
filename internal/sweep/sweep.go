// Package sweep is a deterministic parallel job engine for experiment
// grids. Every result in this repository — phase-margin grids, FCT
// sweeps, the exp.Runner tables — is an embarrassingly parallel matrix
// of independent jobs; this package fans such a matrix out over a
// bounded worker pool while keeping the output bit-identical to a
// serial run:
//
//   - each job's seed is derived from the sweep base seed and the job's
//     stable index (DeriveSeed), never from scheduling order;
//   - jobs are fault-isolated: a panic or a hung integration fails that
//     one job with a recorded error instead of killing the sweep, and
//     transient failures can be retried a bounded number of times;
//   - results stream through a Sink; the JSONL sink checkpoints every
//     completed job so an interrupted sweep resumes where it stopped;
//   - progress (done/total, jobs/sec, ETA) is reported live on an
//     io.Writer, normally stderr.
//
// The engine is generic: a Job is any func(seed) -> metrics. The glue
// that turns registered experiments or phase-margin grids into jobs
// lives in the callers (the ecndelay facade and the cmd/ binaries).
package sweep

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
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
// CPUs, no timeout, no retries, base seed 0, silent.
type Config struct {
	// Workers bounds the pool; <= 0 means runtime.GOMAXPROCS(0).
	Workers int
	// Timeout fails any single job attempt that runs longer. 0 means
	// no limit. A timed-out attempt's goroutine is abandoned (Go
	// cannot kill it); its eventual result is discarded.
	Timeout time.Duration
	// Retries is the number of additional attempts after a failure.
	Retries int
	// BaseSeed is mixed with each job's index by DeriveSeed.
	BaseSeed int64
	// Progress, when non-nil, receives live done/total, jobs/sec and
	// ETA lines (normally os.Stderr) plus a final summary line.
	Progress io.Writer
	// ProgressEvery is the reporting period; <= 0 means 2s.
	ProgressEvery time.Duration
	// FailFast stops dispatching new jobs after the first job whose
	// retries are exhausted. In-flight jobs drain normally and their
	// rows are still delivered to the sink, so a poisoned grid keeps
	// every completed checkpoint row instead of burning the full budget.
	FailFast bool
}

// Result is the outcome of one job. Its JSON encoding is deterministic
// (fixed field order, map keys sorted by encoding/json), so sorting a
// sweep's JSONL rows by job ID yields byte-identical output regardless
// of worker count. Wall-clock timing is deliberately excluded for the
// same reason.
type Result struct {
	JobID    string             `json:"job"`
	Index    int                `json:"index"`
	Seed     int64              `json:"seed"`
	Meta     map[string]string  `json:"meta,omitempty"`
	Metrics  map[string]float64 `json:"metrics,omitempty"`
	Err      string             `json:"err,omitempty"`
	Attempts int                `json:"attempts"`
	// Retries is Attempts-1 — the attempts this job needed beyond its
	// first. Panics counts the attempts that ended in a recovered panic
	// (a subset of the failures). Both are zero on the happy path and
	// omitted from the JSONL so fault-free checkpoints are unchanged.
	Retries int `json:"retries,omitempty"`
	Panics  int `json:"panics,omitempty"`
}

// Summary aggregates one engine invocation.
type Summary struct {
	Total     int // jobs passed in
	Executed  int // jobs actually run (not resumed away)
	Skipped   int // jobs the sink reported already completed
	Failed    int // executed jobs whose final attempt errored
	Retried   int // attempts beyond the first, summed over executed jobs
	Panics    int // attempts that ended in a recovered panic
	Cancelled int // jobs never dispatched (FailFast or a sink error)
	Elapsed   time.Duration
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
// sink (nil discards them). It refuses a negative cfg.Retries and an
// invalid job list before running anything. Jobs whose ID the sink
// reports completed are skipped. Results are delivered to the sink from a single
// goroutine, so sinks need no internal locking for engine use. A sink
// write error aborts dispatch of not-yet-started jobs and is returned
// after in-flight jobs drain.
func Run(cfg Config, jobs []Job, sink Sink) (Summary, error) {
	start := time.Now()
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Retries < 0 {
		return Summary{}, fmt.Errorf("sweep: Retries must be >= 0, got %d", cfg.Retries)
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
	sum := Summary{Total: len(jobs), Skipped: len(jobs) - len(pending)}

	var aborted atomic.Bool
	work := make(chan int)
	results := make(chan Result)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				if aborted.Load() {
					continue
				}
				results <- execute(cfg, jobs[i], i)
			}
		}()
	}
	go func() {
		for _, i := range pending {
			if aborted.Load() {
				break
			}
			work <- i
		}
		close(work)
	}()
	go func() {
		wg.Wait()
		close(results)
	}()

	prog := newProgress(cfg.Progress, cfg.ProgressEvery, sum.Total, sum.Skipped)
	var sinkErr error
	for r := range results {
		sum.Executed++
		if r.Err != "" {
			sum.Failed++
			if cfg.FailFast {
				aborted.Store(true)
			}
		}
		sum.Retried += r.Retries
		sum.Panics += r.Panics
		prog.observe(r.Err != "")
		if sink != nil && sinkErr == nil {
			if err := sink.Write(r); err != nil {
				sinkErr = fmt.Errorf("sweep: sink write for job %q: %w", r.JobID, err)
				aborted.Store(true)
			}
		}
	}
	sum.Cancelled = sum.Total - sum.Skipped - sum.Executed
	sum.Elapsed = time.Since(start)
	prog.finish(sum)
	return sum, sinkErr
}

// execute runs one job to its final outcome: up to 1+Retries attempts,
// each panic-recovered and bounded by cfg.Timeout.
func execute(cfg Config, job Job, index int) Result {
	res := Result{
		JobID: job.ID,
		Index: index,
		Seed:  DeriveSeed(cfg.BaseSeed, index),
		Meta:  job.Meta,
	}
	var lastErr error
	for attempt := 1; attempt <= cfg.Retries+1; attempt++ {
		res.Attempts = attempt
		res.Retries = attempt - 1
		m, err := runAttempt(job, res.Seed, cfg.Timeout)
		if err == nil {
			res.Metrics = m
			return res
		}
		var pe *panicError
		if errors.As(err, &pe) {
			res.Panics++
		}
		lastErr = err
	}
	res.Err = lastErr.Error()
	return res
}

// panicError marks an attempt that died in a recovered panic, so the
// engine can count panics separately from ordinary job errors.
type panicError struct{ err error }

func (p *panicError) Error() string { return p.err.Error() }
func (p *panicError) Unwrap() error { return p.err }

// errTimeout marks an attempt that outran cfg.Timeout.
var errTimeout = errors.New("sweep: job timed out")

// runAttempt executes one attempt in its own goroutine so a panic is
// confined to the job and a timeout can abandon it.
func runAttempt(job Job, seed int64, timeout time.Duration) (map[string]float64, error) {
	type outcome struct {
		m   map[string]float64
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				ch <- outcome{err: &panicError{fmt.Errorf("sweep: job %q panicked: %v", job.ID, r)}}
			}
		}()
		m, err := job.Run(seed)
		ch <- outcome{m: m, err: err}
	}()
	if timeout <= 0 {
		o := <-ch
		return o.m, o.err
	}
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case o := <-ch:
		return o.m, o.err
	case <-t.C:
		return nil, fmt.Errorf("%w after %v", errTimeout, timeout)
	}
}
