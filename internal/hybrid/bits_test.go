package hybrid

import (
	"math"
	"testing"

	"ecndelay/internal/des"
)

// TestBackgroundBits pins a cold-started background aggregate to the bit
// after a fixed coupled run of 2 packet and 6 fluid flows. The 10 ms run
// covers both Eq. 12 branches: the closed forms while the line-rate start
// builds a queue, the p → 0 limits once it has drained, then the closed
// forms again as it refills. The bits were recorded on linux/amd64;
// architectures that fuse multiply-adds may round differently.
func TestBackgroundBits(t *testing.T) {
	sc := NewDCQCNScenario(2, 1)
	nw, star, _, err := sc.Star(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	bg, err := AttachBackground(star.Bottleneck, BackgroundConfig{Flows: 6, Par: sc.Par, ColdStart: true})
	if err != nil {
		t.Fatal(err)
	}
	nw.RunUntil(des.Time(des.DurationFromSeconds(10e-3)))
	const (
		wantRate  uint64 = 0x41ec338ec52f2b00 // 3.785127465473999e9 bytes/s
		wantAlpha uint64 = 0x3fe0eac5aa4c147c // 0.5286587072483964
		wantQueue        = 61075              // bytes
	)
	if got := math.Float64bits(bg.Rate()); got != wantRate {
		t.Errorf("Rate() = %v (%#x), want %v (%#x)", bg.Rate(), got, math.Float64frombits(wantRate), wantRate)
	}
	if got := math.Float64bits(bg.Alpha()); got != wantAlpha {
		t.Errorf("Alpha() = %v (%#x), want %v (%#x)", bg.Alpha(), got, math.Float64frombits(wantAlpha), wantAlpha)
	}
	if got := bg.QueueBytes(); got != wantQueue {
		t.Errorf("QueueBytes() = %d, want %d", got, wantQueue)
	}
}
