package sweep

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// progress reports live sweep throughput on a writer. The engine's
// collector goroutine calls observe; a ticker goroutine prints.
type progress struct {
	w       io.Writer
	total   int
	skipped int // resumed from the checkpoint, never run here

	mu       sync.Mutex
	executed int
	failed   int
	started  time.Time

	stop chan struct{}
	wg   sync.WaitGroup
}

func newProgress(w io.Writer, every time.Duration, total, skipped int) *progress {
	p := &progress{w: w, total: total, skipped: skipped, started: time.Now(), stop: make(chan struct{})}
	if w == nil {
		return p
	}
	if every <= 0 {
		every = 2 * time.Second
	}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				p.print()
			case <-p.stop:
				return
			}
		}
	}()
	return p
}

func (p *progress) observe(failed bool) {
	p.mu.Lock()
	p.executed++
	if failed {
		p.failed++
	}
	p.mu.Unlock()
}

func (p *progress) print() {
	p.mu.Lock()
	executed, failed := p.executed, p.failed
	elapsed := time.Since(p.started)
	p.mu.Unlock()
	// Resumed jobs took none of this run's time, so the rate and the ETA
	// count only the jobs executed here.
	rate := float64(executed) / elapsed.Seconds()
	eta := "?"
	if rate > 0 {
		left := p.total - p.skipped - executed
		eta = (time.Duration(float64(left)/rate*1e9) * time.Nanosecond).Round(time.Second).String()
	}
	fmt.Fprintf(p.w, "sweep: %d/%d done (%d failed) %.1f jobs/s ETA %s\n",
		p.skipped+executed, p.total, failed, rate, eta)
}

// finish stops the ticker and prints the summary line.
func (p *progress) finish(sum Summary) {
	close(p.stop)
	p.wg.Wait()
	if p.w == nil {
		return
	}
	rate := 0.0
	if sum.Elapsed > 0 {
		rate = float64(sum.Executed) / sum.Elapsed.Seconds()
	}
	cancelled := ""
	if sum.Cancelled > 0 {
		cancelled = fmt.Sprintf(", %d cancelled", sum.Cancelled)
	}
	fmt.Fprintf(p.w, "sweep: %d jobs: %d run, %d skipped, %d failed, %d retried, %d panicked%s in %s (%.1f jobs/s)\n",
		sum.Total, sum.Executed, sum.Skipped, sum.Failed, sum.Retried, sum.Panics, cancelled,
		sum.Elapsed.Round(time.Millisecond), rate)
}
