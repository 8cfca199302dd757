package timely

// Arithmetic-level tests of Algorithm 1 and Algorithm 2: a sender is driven
// with hand-crafted ACKs whose EchoT encodes an exact RTT, and the
// resulting rate updates are checked against the algorithm lines.

import (
	"math"
	"testing"
	"testing/quick"

	"ecndelay/internal/des"
	"ecndelay/internal/netsim"
)

// algoHarness wires a sender whose data packets go to a sink, so the test
// fully controls the completion events it sees.
type algoHarness struct {
	nw     *netsim.Network
	host   *netsim.Host
	sender *Sender
}

func newAlgoHarness(t *testing.T, p Params, startRate float64) *algoHarness {
	t.Helper()
	nw := netsim.New(1)
	sink := nw.NewHost() // no transport: swallows data packets
	host := nw.NewHost()
	host.Connect(sink, 1.25e9, des.Microsecond, nil)
	sink.Connect(host, 1.25e9, des.Microsecond, nil)
	ep, err := NewEndpoint(host, p)
	if err != nil {
		t.Fatal(err)
	}
	s, err := ep.NewFlow(1, sink.ID(), -1, 0, startRate)
	if err != nil {
		t.Fatal(err)
	}
	nw.Sim.RunUntil(1) // start the flow
	return &algoHarness{nw: nw, host: host, sender: s}
}

// ack advances simulated time past the MinRTT gate and delivers a
// completion event whose sample is exactly rtt.
func (h *algoHarness) ack(rtt des.Duration) {
	h.nw.Sim.RunUntil(h.nw.Sim.Now() + des.Time(25*des.Microsecond))
	now := h.nw.Sim.Now()
	h.host.Receive(&netsim.Packet{Kind: netsim.Ack, Flow: 1, EchoT: now - des.Time(rtt)})
}

func TestFirstSampleOnlyPrimes(t *testing.T) {
	h := newAlgoHarness(t, DefaultParams(), 1e8)
	r0 := h.sender.Rate()
	h.ack(100 * des.Microsecond)
	if h.sender.Rate() != r0 {
		t.Errorf("rate changed on the first RTT sample: %v -> %v", r0, h.sender.Rate())
	}
}

func TestLowRTTAdditiveIncrease(t *testing.T) {
	p := DefaultParams()
	h := newAlgoHarness(t, p, 1e8)
	h.ack(30 * des.Microsecond) // prime
	r := h.sender.Rate()
	h.ack(30 * des.Microsecond) // < TLow=50µs → rate += δ
	want := r + p.Delta
	if math.Abs(h.sender.Rate()-want) > 1e-6 {
		t.Errorf("rate = %v, want %v (additive increase)", h.sender.Rate(), want)
	}
}

func TestHighRTTMultiplicativeDecrease(t *testing.T) {
	p := DefaultParams()
	h := newAlgoHarness(t, p, 1e9)
	h.ack(400 * des.Microsecond) // prime
	r := h.sender.Rate()
	rtt := 1000 * des.Microsecond // > THigh=500µs
	h.ack(rtt)
	want := r * (1 - p.Beta*(1-p.THigh.Seconds()/rtt.Seconds()))
	if math.Abs(h.sender.Rate()-want)/want > 1e-9 {
		t.Errorf("rate = %v, want %v (THigh branch)", h.sender.Rate(), want)
	}
}

func TestBetaHighOverridesTHighBranch(t *testing.T) {
	p := DefaultParams()
	p.Beta = 0.008
	p.BetaHigh = 0.8
	h := newAlgoHarness(t, p, 1e9)
	h.ack(400 * des.Microsecond)
	r := h.sender.Rate()
	rtt := 1000 * des.Microsecond
	h.ack(rtt)
	want := r * (1 - 0.8*(1-p.THigh.Seconds()/rtt.Seconds()))
	if math.Abs(h.sender.Rate()-want)/want > 1e-9 {
		t.Errorf("rate = %v, want %v (BetaHigh brake)", h.sender.Rate(), want)
	}
}

func TestGradientDecreaseMatchesAlgorithm1(t *testing.T) {
	p := DefaultParams()
	h := newAlgoHarness(t, p, 1e9)
	h.ack(100 * des.Microsecond) // prime: prevRTT=100µs
	r := h.sender.Rate()
	// Next sample 140µs: newDiff=40µs; rttDiff = 0.875·40µs = 35µs;
	// gradient = 35/20 = 1.75; in band (50..500µs) → rate *= 1-β·1.75.
	h.ack(140 * des.Microsecond)
	gradient := 0.875 * 40e-6 / 20e-6
	want := r * (1 - p.Beta*gradient)
	if want < p.MinRate {
		want = p.MinRate
	}
	if math.Abs(h.sender.Rate()-want)/want > 1e-9 {
		t.Errorf("rate = %v, want %v (gradient branch)", h.sender.Rate(), want)
	}
	if g := h.sender.Gradient(); math.Abs(g-gradient) > 1e-9 {
		t.Errorf("Gradient() = %v, want %v", g, gradient)
	}
}

// Algorithm 1 applies the gradient unbounded: a violent +200 µs jump gives
// a normalised gradient of 8.75, the multiplier 1-β·g goes negative, and
// only the MinRate floor catches the rate.
func TestUnclampedGradientFloorsAtMinRate(t *testing.T) {
	p := DefaultParams()
	h := newAlgoHarness(t, p, 1e9)
	h.ack(100 * des.Microsecond)
	h.ack(300 * des.Microsecond)
	if h.sender.Rate() != p.MinRate {
		t.Errorf("rate = %v, want the MinRate floor %v", h.sender.Rate(), p.MinRate)
	}
}

func TestNegativeGradientIncreases(t *testing.T) {
	p := DefaultParams()
	h := newAlgoHarness(t, p, 1e8)
	h.ack(200 * des.Microsecond)
	r := h.sender.Rate()
	h.ack(150 * des.Microsecond) // falling RTT, in band → additive increase
	want := r + p.Delta
	if math.Abs(h.sender.Rate()-want) > 1e-6 {
		t.Errorf("rate = %v, want %v (negative gradient → AI)", h.sender.Rate(), want)
	}
}

func TestPatchedAlgorithm2Arithmetic(t *testing.T) {
	p := DefaultPatchedParams() // β=0.008, RTTRef=60µs
	h := newAlgoHarness(t, p, 1e9)
	h.ack(100 * des.Microsecond) // prime
	r := h.sender.Rate()
	// Sample 120µs: newDiff=20µs, rttDiff=17.5µs, gradient=0.875 → w=1;
	// error=(120-60)/60=1 → rate = δ(1-1) + rate(1-β·1·1).
	h.ack(120 * des.Microsecond)
	want := r * (1 - 0.008)
	if math.Abs(h.sender.Rate()-want)/want > 1e-9 {
		t.Errorf("rate = %v, want %v (Algorithm 2 line 12)", h.sender.Rate(), want)
	}
}

func TestPatchedWeightBlendsIncreaseAndDecrease(t *testing.T) {
	p := DefaultPatchedParams()
	h := newAlgoHarness(t, p, 1e9)
	h.ack(100 * des.Microsecond)
	r := h.sender.Rate()
	// Flat RTT: newDiff=0, gradient=0 → w=1/2;
	// error=(100-60)/60=2/3 → rate = δ/2 + rate(1-β/2·2/3).
	h.ack(100 * des.Microsecond)
	want := p.Delta*0.5 + r*(1-0.008*0.5*(2.0/3.0))
	if math.Abs(h.sender.Rate()-want)/want > 1e-9 {
		t.Errorf("rate = %v, want %v (blended update)", h.sender.Rate(), want)
	}
}

// patchedStep primes a patched sender at 100 µs and returns its rate
// before and after a second sample rtt, whose gradient is
// 0.875·(rtt−100 µs)/20 µs.
func patchedStep(t *testing.T, p Params, rtt des.Duration) (before, after float64) {
	t.Helper()
	h := newAlgoHarness(t, p, 1e9)
	h.ack(100 * des.Microsecond)
	before = h.sender.Rate()
	h.ack(rtt)
	return before, h.sender.Rate()
}

// Algorithm 2 weighs its update with Eq. 30: w = 0 at gradients up to
// −1/4, 2g + 1/2 between, and 1 from 1/4 on, on both sides of each break.
func TestWeight(t *testing.T) {
	p := DefaultPatchedParams()
	cases := []struct {
		rtt des.Duration
		w   float64
	}{
		{80 * des.Microsecond, 0},      // g = −0.875
		{94 * des.Microsecond, 0},      // g = −0.2625
		{95 * des.Microsecond, 0.0625}, // g = −0.21875
		{98 * des.Microsecond, 0.325},  // g = −0.0875
		{100 * des.Microsecond, 0.5},
		{102 * des.Microsecond, 0.675},  // g = 0.0875
		{105 * des.Microsecond, 0.9375}, // g = 0.21875
		{106 * des.Microsecond, 1},      // g = 0.2625
		{120 * des.Microsecond, 1},      // g = 0.875
	}
	for _, c := range cases {
		r, got := patchedStep(t, p, c.rtt)
		errTerm := (c.rtt - p.RTTRef).Seconds() / p.RTTRef.Seconds()
		want := p.Delta*(1-c.w) + r*(1-p.Beta*c.w*errTerm)
		if math.Abs(got-want)/want > 1e-9 {
			t.Errorf("rtt %v: rate = %v, want %v (w = %v)", c.rtt, got, want, c.w)
		}
	}
}

// Property: above the reference RTT, Algorithm 2's update stays between
// its w = 0 and w = 1 ends (the weight is bounded in [0,1]) and falls as
// the sample rises (the weight is monotone in the gradient).
func TestPropertyWeightMonotoneBounded(t *testing.T) {
	p := DefaultPatchedParams()
	f := func(a, b int16) bool {
		// Samples within ±32.8 µs of 100 µs: gradients within ±1.44, all
		// in [T_low, T_high] and above RTTRef = 60 µs.
		rtt1 := 100*des.Microsecond + des.Duration(a)*des.Nanosecond
		rtt2 := 100*des.Microsecond + des.Duration(b)*des.Nanosecond
		if rtt1 > rtt2 {
			rtt1, rtt2 = rtt2, rtt1
		}
		rates := [2]float64{}
		for i, rtt := range []des.Duration{rtt1, rtt2} {
			r, got := patchedStep(t, p, rtt)
			errTerm := (rtt - p.RTTRef).Seconds() / p.RTTRef.Seconds()
			if got > p.Delta+r || got < r*(1-p.Beta*errTerm) {
				return false
			}
			rates[i] = got
		}
		return rates[0] >= rates[1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestUpdateGateSwallowsFastAcks(t *testing.T) {
	p := DefaultParams()
	h := newAlgoHarness(t, p, 1e8)
	h.ack(30 * des.Microsecond) // prime
	r := h.sender.Rate()
	// Deliver a second ACK immediately (within MinRTT of the first): the
	// gate must ignore it.
	h.host.Receive(&netsim.Packet{Kind: netsim.Ack, Flow: 1, EchoT: h.nw.Sim.Now() - des.Time(30*des.Microsecond)})
	if h.sender.Rate() != r {
		t.Errorf("gated ACK changed the rate: %v -> %v", r, h.sender.Rate())
	}
}

func TestRateNeverExceedsLineRate(t *testing.T) {
	p := DefaultParams()
	h := newAlgoHarness(t, p, 1.25e9) // already at line rate
	h.ack(30 * des.Microsecond)
	for i := 0; i < 10; i++ {
		h.ack(30 * des.Microsecond) // additive increases
	}
	if h.sender.Rate() > 1.25e9 {
		t.Errorf("rate %v above line rate", h.sender.Rate())
	}
}
