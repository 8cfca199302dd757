package hybrid

import (
	"testing"

	"ecndelay/internal/des"
	"ecndelay/internal/fluid"
	"ecndelay/internal/netsim"
	"ecndelay/internal/obs"
)

// The marker is Par's RED ramp scaled to bytes, or the PI controller
// converted from paper units; every conversion is exact.
func TestDCQCNMarkerFromPar(t *testing.T) {
	sc := NewDCQCNScenario(2, 1)
	nw := netsim.New(1)
	red, ok := sc.Marker(nw)().(*netsim.REDMarker)
	if !ok {
		t.Fatal("default scenario does not mark with RED")
	}
	if red.Kmin != 5000 || red.Kmax != 200000 || red.Pmax != 0.01 || red.Ingress || red.Rng != nw.Rng {
		t.Errorf("RED marker %+v, want Kmin 5000 Kmax 200000 Pmax 0.01 at egress on nw's rng", red)
	}

	sc.Ingress, sc.MistuneKmax = true, 4
	red = sc.Marker(nw)().(*netsim.REDMarker)
	if red.Kmax != 800000 || !red.Ingress {
		t.Errorf("mistuned ingress marker %+v, want Kmax 800000 at ingress", red)
	}

	sc.PI = &fluid.PIConfig{K1: 2e-5, K2: 1e-3, QRef: 50, PMax: 0.02}
	pi, ok := sc.Marker(nw)().(*netsim.PIMarker)
	if !ok {
		t.Fatal("scenario with PI set does not mark with PI")
	}
	if pi.K1 != 2e-8 || pi.K2 != 1e-6 || pi.QRef != 50000 || pi.PMax != 0.02 {
		t.Errorf("PI marker %+v, want K1 2e-8 K2 1e-6 QRef 50000 PMax 0.02", pi)
	}
	if _, err := sc.Fluid(nil); err == nil {
		t.Error("Fluid built a RED system for a PI scenario")
	}
}

// Star attaches the observer before any port exists and carries the
// scenario's feedback delay; Fluid carries its marking point.
func TestDCQCNStarObserverAndIngress(t *testing.T) {
	sc := NewDCQCNScenario(2, 1)
	sc.ExtraDelay = 85 * des.Microsecond
	ob := &obs.NetObserver{Metrics: obs.NewRegistry()}
	nw, star, _, err := sc.Star(ob, nil)
	if err != nil {
		t.Fatal(err)
	}
	if nw.Observer() != ob {
		t.Error("Star did not attach the observer")
	}
	for i := range star.Senders {
		if d := star.Switch.Port(i).CtrlExtraDelay; d != sc.ExtraDelay {
			t.Errorf("sender port %d feedback delay %v, want %v", i, d, sc.ExtraDelay)
		}
	}

	egress, err := sc.Fluid(nil)
	if err != nil {
		t.Fatal(err)
	}
	sc.Ingress = true
	ingress, err := sc.Fluid(nil)
	if err != nil {
		t.Fatal(err)
	}
	if ingress.MaxDelay() <= egress.MaxDelay() {
		t.Error("ingress scenario built an egress-marking fluid system")
	}
}

// TimelyScenario.Star starts flow i at Cfg.StartTimes[i] with rate
// Cfg.InitialRates[i].
func TestTimelyStarStartTimesAndRates(t *testing.T) {
	sc := NewTimelyScenario(2, 1)
	sc.Cfg.InitialRates = []float64{7e9 / 8, 3e9 / 8}
	sc.Cfg.StartTimes = []float64{0, 1e-3}
	nw, _, senders, err := sc.Star(nil)
	if err != nil {
		t.Fatal(err)
	}
	nw.RunUntil(des.Time(des.Microsecond))
	if got := senders[0].Rate(); got != 7e9/8 {
		t.Errorf("flow 0 rate %v at 1 µs, want its start rate %v", got, 7e9/8)
	}
	if got := senders[1].Rate(); got != 0 {
		t.Errorf("flow 1 rate %v before its 1 ms start, want 0", got)
	}
	nw.RunUntil(des.Time(1001 * des.Microsecond))
	if got := senders[1].Rate(); got != 3e9/8 {
		t.Errorf("flow 1 rate %v just after its start, want %v", got, 3e9/8)
	}
}
