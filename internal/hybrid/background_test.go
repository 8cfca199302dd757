package hybrid

import (
	"testing"

	"ecndelay/internal/des"
	"ecndelay/internal/netsim"
	"ecndelay/internal/stats"
)

func TestAttachBackgroundValidation(t *testing.T) {
	sc := NewDCQCNScenario(2, 1)
	_, star, _, err := sc.Star(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AttachBackground(star.Bottleneck, BackgroundConfig{Flows: 0, Par: sc.Par}); err == nil {
		t.Error("AttachBackground accepted zero flows")
	}
	bad := sc.Par
	bad.Tau = -1
	if _, err := AttachBackground(star.Bottleneck, BackgroundConfig{Flows: 4, Par: bad}); err == nil {
		t.Error("AttachBackground accepted invalid params")
	}
}

func TestBackgroundWarmInit(t *testing.T) {
	sc := NewDCQCNScenario(2, 1)
	_, star, _, err := sc.Star(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	bg, err := AttachBackground(star.Bottleneck, BackgroundConfig{Flows: 6, Par: sc.Par})
	if err != nil {
		t.Fatal(err)
	}
	// Warm default: the aggregate starts at its own 6-flow fixed point and
	// its fluid queue is already superimposed on the marking view.
	if bg.QueueBytes() <= 0 {
		t.Error("warm aggregate started with an empty fluid queue")
	}
	if got := star.Bottleneck.Queue().MarkBytes(); got != bg.QueueBytes() {
		t.Errorf("MarkBytes = %d, want the aggregate's %d", got, bg.QueueBytes())
	}
	if a := bg.Alpha(); a <= 0 || a >= 1 {
		t.Errorf("warm aggregate alpha = %v, want interior of (0,1)", a)
	}
	if bg.Rate() <= 0 {
		t.Error("warm aggregate has zero rate")
	}
}

// TestBackgroundCoupledFixedPoint runs 2 packet + 6 fluid flows and checks
// the coupled marking queue settles near the 8-flow analytic fixed point —
// the property that makes the aggregate a faithful stand-in.
func TestBackgroundCoupledFixedPoint(t *testing.T) {
	if testing.Short() {
		t.Skip("coupled background run takes a few seconds")
	}
	const horizon = 0.1
	sc := NewDCQCNScenario(2, 1)
	nw, star, _, err := sc.Star(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	bg, err := AttachBackground(star.Bottleneck, BackgroundConfig{
		Flows: 6, Par: sc.Par, ColdStart: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	mark := &stats.Series{}
	nw.Sim.Every(des.Time(100*des.Microsecond), 100*des.Microsecond, func() {
		mark.Add(nw.Sim.Now().Seconds(), float64(star.Bottleneck.Queue().MarkBytes()))
	})
	nw.RunUntil(des.Time(des.DurationFromSeconds(horizon)))

	eight := NewDCQCNScenario(8, 1)
	warm, err := DCQCNWarmStart(eight.Par)
	if err != nil {
		t.Fatal(err)
	}
	qStar := warm.FP.Q * MTU
	got := stats.Summarize(mark.Window(horizon*0.6, horizon)).Mean
	if d := relErr(got, qStar); d > 0.30 {
		t.Errorf("coupled marking queue %.0f vs 8-flow q* %.0f bytes, rel %.3f > 0.30", got, qStar, d)
	}
	// The aggregate must carry roughly its population's share of capacity.
	fair := sc.Par.C * MTU * 6 / 8
	if d := relErr(bg.Rate(), fair); d > 0.5 {
		t.Errorf("aggregate rate %.3g vs 6/8 share %.3g, rel %.3f > 0.5", bg.Rate(), fair, d)
	}
}

// TestVirtualBytesDefaultZero pins the nil-by-default contract of the
// netsim hook: without an aggregate, the marking view equals the real
// queue, so every existing run is bit-identical.
func TestVirtualBytesDefaultZero(t *testing.T) {
	nw := netsim.New(1)
	star := netsim.NewStar(nw, netsim.StarConfig{
		Senders: 1,
		Link:    netsim.LinkConfig{Bandwidth: 1.25e9, PropDelay: des.Microsecond},
	})
	q := star.Bottleneck.Queue()
	if q.VirtualBytes() != 0 || q.MarkBytes() != q.Bytes() {
		t.Errorf("fresh queue: virtual=%d mark=%d real=%d", q.VirtualBytes(), q.MarkBytes(), q.Bytes())
	}
	q.SetVirtualBytes(5000)
	if q.MarkBytes() != q.Bytes()+5000 {
		t.Errorf("MarkBytes = %d, want real+5000", q.MarkBytes())
	}
	q.SetVirtualBytes(-1)
	if q.VirtualBytes() != 0 {
		t.Errorf("negative SetVirtualBytes clamped to %d, want 0", q.VirtualBytes())
	}
}

func TestMeasureSettleEmptySeries(t *testing.T) {
	s := MeasureSettle(&stats.Series{}, &stats.Series{}, 0.1)
	if s.TailMean != 0 || s.Events != 0 {
		t.Errorf("empty series settle = %+v, want zero value", s)
	}
}
