package workload

import (
	"math/rand"
	"strings"
	"testing"
)

func TestCapacityValidation(t *testing.T) {
	ws := WebSearch()
	base := Config{Load: 1.2e9, Sizes: ws, Senders: 4, Receivers: 4, Horizon: 1, Seed: 1}

	over := base
	over.Capacity = 1e9
	if _, err := Generate(over); err == nil {
		t.Fatal("Generate accepted a load 20% past the bottleneck capacity")
	} else {
		for _, want := range []string{"1.2e+09", "1e+09", "1.20"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("capacity error %q does not name %s", err, want)
			}
		}
	}

	at := base
	at.Load, at.Capacity = 1e9, 1e9
	if _, err := Generate(at); err != nil {
		t.Errorf("load exactly at capacity rejected: %v", err)
	}

	unchecked := base // Capacity zero: the overload regime stays reachable
	if _, err := Generate(unchecked); err != nil {
		t.Errorf("capacity check applied without a Capacity: %v", err)
	}
}

// Draining a PoissonStream reproduces Generate bit-for-bit: the lazy path
// and the slice path are the same process.
func TestStreamMatchesGenerate(t *testing.T) {
	cfg := Config{Load: 1e9, Sizes: WebSearch(), Senders: 8, Receivers: 8, Horizon: 5, Seed: 42}
	flows, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewPoissonStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for i := 0; ; i++ {
		f, ok := s.Next(rng)
		if !ok {
			if i != len(flows) {
				t.Fatalf("stream ended after %d flows, Generate made %d", i, len(flows))
			}
			break
		}
		if i >= len(flows) {
			t.Fatalf("stream produced more than Generate's %d flows", len(flows))
		}
		if f != flows[i] {
			t.Fatalf("flow %d differs: stream %+v, Generate %+v", i, f, flows[i])
		}
	}
	if _, ok := s.Next(rng); ok {
		t.Error("stream yielded a flow after exhaustion")
	}
	if _, err := NewPoissonStream(Config{Load: 2, Capacity: 1, Sizes: WebSearch(), Senders: 1, Receivers: 1, Horizon: 1}); err == nil {
		t.Error("stream constructor skipped capacity validation")
	}
}

func TestIncast(t *testing.T) {
	flows, err := Incast(IncastConfig{Fanin: 16, Size: 64e3, Start: 0.001, Rounds: 3, Interval: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if len(flows) != 48 {
		t.Fatalf("%d flows, want 16×3", len(flows))
	}
	for i, f := range flows {
		round, s := i/16, i%16
		want := Flow{ID: i, Start: 0.001 + float64(round)*0.01, Size: 64e3, Sender: s, Recv: 0}
		if f != want {
			t.Fatalf("flow %d = %+v, want %+v", i, f, want)
		}
	}
	bad := []IncastConfig{
		{Fanin: 0, Size: 1},
		{Fanin: 1, Size: 0},
		{Fanin: 1, Size: 1, Start: -1},
		{Fanin: 1, Size: 1, Rounds: 2}, // no interval
	}
	for i, cfg := range bad {
		if _, err := Incast(cfg); err == nil {
			t.Errorf("incast config %d accepted", i)
		}
	}
}

func TestShuffle(t *testing.T) {
	flows, err := Shuffle(ShuffleConfig{Hosts: 6, Size: 1e6, Start: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(flows) != 30 {
		t.Fatalf("%d flows, want 6×5", len(flows))
	}
	seen := map[[2]int]bool{}
	for _, f := range flows {
		if f.Sender == f.Recv {
			t.Fatalf("self-flow: %+v", f)
		}
		if f.Start != 0.5 || f.Size != 1e6 {
			t.Fatalf("flow not uniform: %+v", f)
		}
		pair := [2]int{f.Sender, f.Recv}
		if seen[pair] {
			t.Fatalf("pair %v appears twice", pair)
		}
		seen[pair] = true
	}
	if _, err := Shuffle(ShuffleConfig{Hosts: 1, Size: 1}); err == nil {
		t.Error("single-host shuffle accepted")
	}
}
