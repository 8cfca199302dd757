package obs

import (
	"fmt"
	"strings"
	"testing"
)

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("port.n0-n1.tx_bytes")
	c1.Add(10)
	c2 := r.Counter("port.n0-n1.tx_bytes")
	if c1 != c2 {
		t.Fatal("second lookup returned a different counter")
	}
	c2.Inc()
	if got := c1.Value(); got != 11 {
		t.Fatalf("counter value %d, want 11", got)
	}
}

func TestRegistrySnapshotSorted(t *testing.T) {
	r := NewRegistry()
	r.Counter("z.last").Add(3)
	r.Counter("a.first").Add(1)
	r.Counter("m.middle").Add(2)
	snap := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot has %d entries, want 3", len(snap))
	}
	for i := 1; i < len(snap); i++ {
		if snap[i-1].Name >= snap[i].Name {
			t.Fatalf("snapshot not sorted: %q before %q", snap[i-1].Name, snap[i].Name)
		}
	}
	if snap[0].Name != "a.first" || snap[0].Value != 1 {
		t.Errorf("first entry %+v", snap[0])
	}
	if snap[1].Name != "m.middle" || snap[1].Value != 2 {
		t.Errorf("middle entry %+v", snap[1])
	}
}

func TestRegistryWriteTSV(t *testing.T) {
	r := NewRegistry()
	r.Counter("b").Add(2)
	r.Counter("a").Add(1)
	var sb strings.Builder
	if err := r.WriteTSV(&sb); err != nil {
		t.Fatal(err)
	}
	want := "a\t1\nb\t2\n"
	if sb.String() != want {
		t.Fatalf("TSV = %q, want %q", sb.String(), want)
	}
}

// The counter export is buffered: a registry the size of a radix-8 Clos
// run's reaches the file in 4 KB writes, not one per counter, as the same
// name\tvalue lines.
func TestRegistryWriteTSVBuffered(t *testing.T) {
	r := NewRegistry()
	var want strings.Builder
	for i := 0; i < 5000; i++ {
		r.Counter(fmt.Sprintf("port.n%04d-n0.tx_bytes", i)).Add(int64(i) * 1500)
		fmt.Fprintf(&want, "port.n%04d-n0.tx_bytes\t%d\n", i, int64(i)*1500)
	}
	var w countingWriter
	if err := r.WriteTSV(&w); err != nil {
		t.Fatal(err)
	}
	if w.String() != want.String() {
		t.Error("buffered TSV differs from one fmt line per counter")
	}
	if max := w.Len()/4096 + 1; w.writes > max {
		t.Errorf("%d counters took %d writes, want at most %d", 5000, w.writes, max)
	}
}

// countingWriter keeps what it is given and counts the Write calls.
type countingWriter struct {
	strings.Builder
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.Builder.Write(p)
}

func TestPortAndEndpointCounterNames(t *testing.T) {
	r := NewRegistry()
	pc := r.PortCounters("port.n0-n1")
	pc.TxBytes.Add(1000)
	pc.Marks.Inc()
	ec := r.EndpointCounters("dcqcn.n2")
	ec.CNPTx.Inc()
	ec.RetxBytes.Add(512)

	wantNames := []string{
		"dcqcn.n2.acks_tx", "dcqcn.n2.cnp_rx", "dcqcn.n2.cnp_tx",
		"dcqcn.n2.nacks_tx", "dcqcn.n2.retx_bytes", "dcqcn.n2.retx_pkts",
		"dcqcn.n2.rtos", "dcqcn.n2.rx_bytes",
		"port.n0-n1.buf_drops", "port.n0-n1.marks", "port.n0-n1.pauses",
		"port.n0-n1.resumes", "port.n0-n1.tx_bytes", "port.n0-n1.tx_pkts",
		"port.n0-n1.wire_drops",
	}
	snap := r.Snapshot()
	if len(snap) != len(wantNames) {
		t.Fatalf("snapshot has %d entries, want %d", len(snap), len(wantNames))
	}
	for i, m := range snap {
		if m.Name != wantNames[i] {
			t.Errorf("entry %d: name %q, want %q", i, m.Name, wantNames[i])
		}
	}
	if r.Counter("port.n0-n1.tx_bytes").Value() != 1000 {
		t.Error("PortCounters did not bind the shared registry counter")
	}
	if r.Counter("dcqcn.n2.retx_bytes").Value() != 512 {
		t.Error("EndpointCounters did not bind the shared registry counter")
	}
}

func TestCounterAllocFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hot")
	if n := testing.AllocsPerRun(1000, func() {
		c.Add(3)
		c.Inc()
	}); n != 0 {
		t.Fatalf("counter hot path allocates %.1f per op, want 0", n)
	}
}
