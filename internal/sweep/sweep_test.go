package sweep

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// syntheticJobs builds n deterministic jobs whose metrics depend only
// on the engine-derived seed and the job's own coordinates.
func syntheticJobs(n int) []Job {
	jobs := make([]Job, n)
	for i := range jobs {
		i := i
		jobs[i] = Job{
			ID:   fmt.Sprintf("job%03d", i),
			Meta: map[string]string{"i": fmt.Sprint(i)},
			Run: func(seed int64) (map[string]float64, error) {
				return map[string]float64{
					"seed_low": float64(seed & 0xffff),
					"square":   float64(i * i),
				}, nil
			},
		}
	}
	return jobs
}

func TestDeriveSeedStableAndDistinct(t *testing.T) {
	if DeriveSeed(1, 0) != DeriveSeed(1, 0) {
		t.Fatal("DeriveSeed not stable")
	}
	seen := map[int64]int{}
	for i := 0; i < 1000; i++ {
		s := DeriveSeed(42, i)
		if prev, dup := seen[s]; dup {
			t.Fatalf("indices %d and %d collide on seed %d", prev, i, s)
		}
		seen[s] = i
	}
	if DeriveSeed(1, 5) == DeriveSeed(2, 5) {
		t.Error("base seed does not influence derived seed")
	}
}

// A sweep's sorted JSONL must be byte-identical for 1 and N workers.
func TestParallelMatchesSerial(t *testing.T) {
	jobs := syntheticJobs(24)
	run := func(workers int) []byte {
		sink := &MemorySink{}
		sum, err := Run(Config{Workers: workers, BaseSeed: 7}, jobs, sink)
		if err != nil {
			t.Fatal(err)
		}
		if sum.Executed != len(jobs) || sum.Failed != 0 {
			t.Fatalf("workers=%d: summary %+v", workers, sum)
		}
		b, err := MarshalResults(sink.Results())
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	serial := run(1)
	for _, w := range []int{2, 4, 8} {
		if par := run(w); !bytes.Equal(serial, par) {
			t.Fatalf("workers=%d output differs from serial:\n%s\nvs\n%s", w, par, serial)
		}
	}
}

// One panicking job fails alone; every other job completes.
func TestPanicIsolation(t *testing.T) {
	jobs := syntheticJobs(10)
	jobs[3].Run = func(int64) (map[string]float64, error) {
		panic("diverged ODE")
	}
	sink := &MemorySink{}
	sum, err := Run(Config{Workers: 4}, jobs, sink)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Failed != 1 || sum.Executed != 10 {
		t.Fatalf("summary %+v, want 1 failed of 10", sum)
	}
	for _, r := range sink.Results() {
		if r.Index == 3 {
			if !strings.Contains(r.Err, "panicked") || !strings.Contains(r.Err, "diverged ODE") {
				t.Errorf("panic job error = %q", r.Err)
			}
		} else if r.Err != "" {
			t.Errorf("job %s unexpectedly failed: %s", r.JobID, r.Err)
		}
	}
}

func TestTimeout(t *testing.T) {
	jobs := syntheticJobs(4)
	jobs[1].Run = func(int64) (map[string]float64, error) {
		time.Sleep(time.Second)
		return nil, nil
	}
	sink := &MemorySink{}
	sum, err := Run(Config{Workers: 2, Timeout: 20 * time.Millisecond}, jobs, sink)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Failed != 1 {
		t.Fatalf("summary %+v, want exactly the slow job failed", sum)
	}
	for _, r := range sink.Results() {
		if r.Index == 1 && !strings.Contains(r.Err, "timed out") {
			t.Errorf("slow job error = %q, want timeout", r.Err)
		}
	}
}

func TestRetryTransientFailure(t *testing.T) {
	var calls atomic.Int64
	jobs := []Job{{
		ID: "flaky",
		Run: func(int64) (map[string]float64, error) {
			if calls.Add(1) == 1 {
				return nil, fmt.Errorf("transient")
			}
			return map[string]float64{"ok": 1}, nil
		},
	}}
	sink := &MemorySink{}
	sum, err := Run(Config{Retries: 1}, jobs, sink)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Failed != 0 {
		t.Fatalf("summary %+v, want retry to succeed", sum)
	}
	r := sink.Results()[0]
	if r.Attempts != 2 || r.Metrics["ok"] != 1 {
		t.Errorf("result %+v, want 2 attempts and metrics", r)
	}
	// Without retries the same job stays failed.
	calls.Store(0)
	sum, err = Run(Config{}, jobs, &MemorySink{})
	if err != nil || sum.Failed != 1 {
		t.Fatalf("no-retry run: %+v, %v", sum, err)
	}
}

// Retry and panic counts must surface per job and in the summary: a job
// that panics once then succeeds reports one retry and one panic, and a
// job that panics every attempt reports them all.
func TestRetryAndPanicCounts(t *testing.T) {
	var calls atomic.Int64
	jobs := []Job{
		{ID: "clean", Run: func(int64) (map[string]float64, error) {
			return map[string]float64{"ok": 1}, nil
		}},
		{ID: "flaky", Run: func(int64) (map[string]float64, error) {
			if calls.Add(1) == 1 {
				panic("transient blow-up")
			}
			return map[string]float64{"ok": 1}, nil
		}},
		{ID: "doomed", Run: func(int64) (map[string]float64, error) {
			panic("always")
		}},
	}
	sink := &MemorySink{}
	sum, err := Run(Config{Workers: 1, Retries: 2}, jobs, sink)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Failed != 1 {
		t.Fatalf("summary %+v, want only the doomed job failed", sum)
	}
	// flaky: 1 retry, 1 panic; doomed: 3 attempts = 2 retries, 3 panics.
	if sum.Retried != 3 || sum.Panics != 4 {
		t.Errorf("summary retried=%d panics=%d, want 3 and 4", sum.Retried, sum.Panics)
	}
	byID := map[string]Result{}
	for _, r := range sink.Results() {
		byID[r.JobID] = r
	}
	if r := byID["clean"]; r.Retries != 0 || r.Panics != 0 {
		t.Errorf("clean job counted faults: %+v", r)
	}
	if r := byID["flaky"]; r.Retries != 1 || r.Panics != 1 || r.Err != "" {
		t.Errorf("flaky job %+v, want 1 retry, 1 panic, success", r)
	}
	if r := byID["doomed"]; r.Retries != 2 || r.Panics != 3 || r.Err == "" {
		t.Errorf("doomed job %+v, want 2 retries, 3 panics, failure", r)
	}

	// The counters ride the JSONL checkpoint records.
	b, err := MarshalResults(sink.Results())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"retries":2`) || !strings.Contains(string(b), `"panics":3`) {
		t.Errorf("JSONL missing fault counters:\n%s", b)
	}
	if strings.Contains(string(b), `"job":"clean","index":0,"seed"`) &&
		strings.Contains(string(b), `"clean"`) && strings.Contains(string(b), `"retries":0`) {
		t.Error("zero counters should be omitted from JSONL rows")
	}
}

func TestDuplicateAndInvalidJobsRejected(t *testing.T) {
	ok := func(int64) (map[string]float64, error) { return nil, nil }
	for _, c := range []struct {
		cfg  Config
		jobs []Job
	}{
		{Config{}, []Job{{ID: "a", Run: ok}, {ID: "a", Run: ok}}},
		{Config{}, []Job{{ID: "", Run: ok}}},
		{Config{}, []Job{{ID: "a"}}},
		// A negative retry count would skip every attempt.
		{Config{Retries: -2}, []Job{{ID: "a", Run: ok}}},
	} {
		if _, err := Run(c.cfg, c.jobs, nil); err == nil {
			t.Errorf("config %+v with jobs %+v accepted", c.cfg, c.jobs)
		}
	}
}

// Killing a sweep mid-run and reopening with resume executes only the
// remaining jobs and ends with every job checkpointed exactly once.
func TestJSONLResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	jobs := syntheticJobs(16)

	// First run: only the first 7 jobs complete (simulating a kill by
	// truncating the job list), plus a torn trailing line.
	sink, err := OpenJSONL(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(Config{Workers: 2, BaseSeed: 9}, jobs[:7], sink); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"job":"job009","ind`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Resume over the full grid: the 7 checkpointed jobs are skipped,
	// the torn line is ignored, the rest execute.
	var executed atomic.Int64
	resumed := make([]Job, len(jobs))
	copy(resumed, jobs)
	for i := range resumed {
		inner := resumed[i].Run
		resumed[i].Run = func(seed int64) (map[string]float64, error) {
			executed.Add(1)
			return inner(seed)
		}
	}
	sink2, err := OpenJSONL(path, true)
	if err != nil {
		t.Fatal(err)
	}
	if got := sink2.Resumed(); got != 7 {
		t.Fatalf("resumed %d jobs, want 7", got)
	}
	sum, err := Run(Config{Workers: 3, BaseSeed: 9}, resumed, sink2)
	if err != nil {
		t.Fatal(err)
	}
	sink2.Close()
	if sum.Skipped != 7 || sum.Executed != 9 || executed.Load() != 9 {
		t.Fatalf("summary %+v (executed %d), want 7 skipped / 9 run", sum, executed.Load())
	}

	// The final file holds one valid row per job with the same seeds a
	// fresh serial run derives.
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]int{}
	torn := 0
	for _, line := range bytes.Split(b, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var r Result
		if err := unmarshalRow(line, &r); err != nil {
			torn++
			continue
		}
		rows[r.JobID]++
		if want := DeriveSeed(9, r.Index); r.Seed != want {
			t.Errorf("job %s seed %d, want %d", r.JobID, r.Seed, want)
		}
	}
	if torn != 1 {
		t.Errorf("checkpoint has %d unparsable lines, want the 1 torn one", torn)
	}
	if len(rows) != 16 {
		t.Fatalf("checkpoint has %d unique jobs, want 16", len(rows))
	}
	for id, n := range rows {
		if n != 1 {
			t.Errorf("job %s appears %d times", id, n)
		}
	}
}

// Failed rows do not count as completed: a resume re-runs them.
func TestResumeRetriesFailedJobs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	fail := true
	jobs := []Job{{ID: "only", Run: func(int64) (map[string]float64, error) {
		if fail {
			return nil, fmt.Errorf("boom")
		}
		return map[string]float64{"v": 1}, nil
	}}}
	sink, _ := OpenJSONL(path, false)
	sum, err := Run(Config{}, jobs, sink)
	sink.Close()
	if err != nil || sum.Failed != 1 {
		t.Fatalf("first run: %+v, %v", sum, err)
	}
	fail = false
	sink2, err := OpenJSONL(path, true)
	if err != nil {
		t.Fatal(err)
	}
	if sink2.Completed("only") {
		t.Fatal("failed job marked completed on resume")
	}
	sum, err = Run(Config{}, jobs, sink2)
	sink2.Close()
	if err != nil || sum.Executed != 1 || sum.Failed != 0 {
		t.Fatalf("resume run: %+v, %v", sum, err)
	}
}

func TestProgressOutput(t *testing.T) {
	var buf syncBuffer
	jobs := syntheticJobs(30)
	if _, err := Run(Config{Workers: 4, Progress: &buf, ProgressEvery: time.Millisecond}, jobs, nil); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "30 jobs: 30 run, 0 skipped, 0 failed") {
		t.Errorf("missing summary line in progress output:\n%s", out)
	}
}

// A resumed sweep's rate and ETA count only the jobs run here: with 900
// of 1,000 jobs resumed and one job run in 10 s, the rate is 0.1 jobs/s
// and the 99 jobs left take about 16m30s.
func TestProgressRateExcludesResumedJobs(t *testing.T) {
	var buf syncBuffer
	p := newProgress(&buf, time.Hour, 1000, 900)
	p.mu.Lock()
	p.started = p.started.Add(-10 * time.Second)
	p.mu.Unlock()
	p.observe(false)
	p.print()
	p.finish(Summary{})
	line, _, _ := strings.Cut(buf.String(), "\n")
	if !strings.HasPrefix(line, "sweep: 901/1000 done (0 failed) 0.1 jobs/s ETA 16m3") {
		t.Errorf("progress line %q, want 901/1000 done at 0.1 jobs/s, ETA about 16m30s", line)
	}
}

func TestFailFastStopsDispatchKeepsCompletedRows(t *testing.T) {
	const n = 50
	jobs := syntheticJobs(n)
	jobs[0].Run = func(int64) (map[string]float64, error) {
		return nil, fmt.Errorf("poisoned cell")
	}
	sink := &MemorySink{}
	sum, err := Run(Config{Workers: 1, FailFast: true}, jobs, sink)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Failed != 1 {
		t.Fatalf("failed = %d, want 1: %+v", sum.Failed, sum)
	}
	// The failure lands on the first result; at most a job or two can
	// already be in flight per worker before dispatch stops.
	if sum.Executed > 5 {
		t.Errorf("fail-fast kept dispatching: %d jobs executed", sum.Executed)
	}
	if sum.Cancelled < n-5 {
		t.Errorf("cancelled only %d of %d jobs", sum.Cancelled, n)
	}
	// Every executed job — including the failure — is checkpointed.
	if got := len(sink.Results()); got != sum.Executed {
		t.Errorf("sink holds %d rows, summary says %d executed", got, sum.Executed)
	}
}

func TestFailFastOffRunsWholeGrid(t *testing.T) {
	const n = 10
	jobs := syntheticJobs(n)
	jobs[0].Run = func(int64) (map[string]float64, error) {
		return nil, fmt.Errorf("poisoned cell")
	}
	sum, err := Run(Config{Workers: 1}, jobs, &MemorySink{})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Executed != n || sum.Cancelled != 0 {
		t.Errorf("without FailFast the grid should drain fully: %+v", sum)
	}
}
