package fault

import (
	"testing"

	"ecndelay/internal/des"
	"ecndelay/internal/netsim"
)

// FuzzPlanValidateApply drives Plan construction with arbitrary parameters.
// The contract under test: Validate classifies every input as ok or error
// without panicking, Apply succeeds on everything Validate accepts (and a
// short simulation survives the installed hooks), and Apply panics — by
// documented contract — on exactly what Validate rejects.
//
// Run the seed corpus with go test; explore with:
//
//	go test ./internal/fault -fuzz FuzzPlanValidateApply -fuzztime 30s
func FuzzPlanValidateApply(f *testing.F) {
	// Valid i.i.d. rule.
	f.Add(uint8(SelData), 0.01, int64(0), int64(0), true, int64(1))
	// Valid certain loss of every feedback packet.
	f.Add(uint8(SelCtrl), 1.0, int64(0), int64(0), true, int64(7))
	// Valid flap (down 1µs, up 2µs).
	f.Add(uint8(SelAll), 0.0, int64(1000), int64(2000), true, int64(3))
	// Empty selector: must be rejected.
	f.Add(uint8(0), 0.5, int64(0), int64(0), true, int64(1))
	// Rate outside [0,1]: must be rejected.
	f.Add(uint8(SelData), 1.5, int64(0), int64(0), true, int64(1))
	f.Add(uint8(SelData), -0.1, int64(0), int64(0), true, int64(1))
	// Valid flap that never comes back up.
	f.Add(uint8(SelData), 0.0, int64(1000), int64(0), true, int64(1))
	// Backwards flap (up before down): must be rejected.
	f.Add(uint8(SelData), 0.01, int64(2000), int64(1000), true, int64(1))
	// Missing port: must be rejected.
	f.Add(uint8(SelData), 0.01, int64(0), int64(0), false, int64(1))
	// Negative flap times: must be rejected.
	f.Add(uint8(SelPFC), 1.0, int64(-5), int64(-1), true, int64(-1))

	f.Fuzz(func(t *testing.T, sel uint8, rate float64, downAt, upAt int64, withPort bool, seed int64) {
		nw := netsim.New(1)
		rx := nw.NewHost()
		tx := nw.NewHost()
		port := tx.Connect(rx, 1.25e8, des.Microsecond, nil)
		rx.Connect(tx, 1.25e8, des.Microsecond, nil)
		rx.Transport = netsim.TransportFunc(func(h *netsim.Host, pkt *netsim.Packet) {})

		lf := LinkFaults{Loss: []Loss{{Kinds: Selector(sel), Rate: rate}}}
		if withPort {
			lf.Port = port
		}
		if downAt != 0 || upAt != 0 {
			lf.Flaps = []Flap{{DownAt: des.Time(downAt), UpAt: des.Time(upAt)}}
		}
		plan := &Plan{Seed: seed, Links: []LinkFaults{lf}}

		err := plan.Validate() // must classify, never panic
		defer func() {
			r := recover()
			if err == nil && r != nil {
				t.Fatalf("Apply panicked on a plan Validate accepted: %v", r)
			}
			if err != nil && r == nil {
				t.Fatalf("Apply did not panic on a plan Validate rejected: %v", err)
			}
		}()
		a := plan.Apply(nw)
		// The installed hooks must survive real traffic.
		for i := 0; i < 20; i++ {
			tx.Send(&netsim.Packet{Dst: rx.ID(), Size: netsim.DataMTU, Kind: netsim.Data})
		}
		nw.Sim.RunUntil(des.Time(5 * des.Millisecond))
		_ = a.Drops()
	})
}

// FuzzSelectorMatches pins that Matches is total over arbitrary selector
// bytes and every wire kind — no combination may panic or report a kind
// outside the selector's bit set.
func FuzzSelectorMatches(f *testing.F) {
	f.Add(uint8(SelData))
	f.Add(uint8(SelCtrl))
	f.Add(uint8(SelAll))
	f.Add(uint8(0))
	f.Add(uint8(0xFF))
	kinds := []netsim.Kind{netsim.Data, netsim.Ack, netsim.CNP, netsim.Pause, netsim.Resume, netsim.Nack}
	f.Fuzz(func(t *testing.T, raw uint8) {
		s := Selector(raw)
		any := false
		for _, k := range kinds {
			if s.Matches(k) {
				any = true
			}
		}
		if s&SelAll != 0 && !any {
			t.Errorf("selector %08b covers wire kinds but matched none", raw)
		}
		if s&SelAll == 0 && any {
			t.Errorf("selector %08b covers no wire kinds but matched one", raw)
		}
	})
}
