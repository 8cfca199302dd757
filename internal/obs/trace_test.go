package obs

import (
	"encoding/json"
	"strings"
	"testing"

	"ecndelay/internal/des"
)

func TestTracerCountsAndFanout(t *testing.T) {
	m1, m2 := NewMemorySink[Event](8), NewMemorySink[Event](8)
	tr := NewTracer(m1, m2)
	tr.Emit(Event{Type: Enqueue, Size: 100})
	tr.Emit(Event{Type: Enqueue, Size: 200})
	tr.Emit(Event{Type: Mark})
	if got := tr.Count(Enqueue); got != 2 {
		t.Errorf("Count(Enqueue) = %d, want 2", got)
	}
	if got := tr.Count(Mark); got != 1 {
		t.Errorf("Count(Mark) = %d, want 1", got)
	}
	if got := tr.Total(); got != 3 {
		t.Errorf("Total = %d, want 3", got)
	}
	if len(m1.Records()) != 3 || len(m2.Records()) != 3 {
		t.Fatalf("sink lengths %d/%d, want 3/3", len(m1.Records()), len(m2.Records()))
	}
	if m1.Records()[1].Size != 200 {
		t.Errorf("event not delivered in order: %+v", m1.Records()[1])
	}
}

func TestEventTypeAndKindNames(t *testing.T) {
	want := map[EventType]string{
		Enqueue: "enq", Dequeue: "deq", Mark: "mark", Pause: "pause",
		Resume: "resume", WireDrop: "wiredrop", BufDrop: "bufdrop",
		Deliver: "deliver", Retx: "retx", DoubleFree: "dfree",
	}
	for typ, name := range want {
		if typ.String() != name {
			t.Errorf("EventType(%d).String() = %q, want %q", typ, typ.String(), name)
		}
	}
	if EventType(200).String() != "?" {
		t.Error("out-of-range event type should render as ?")
	}
	if KindName(0) != "data" || KindName(200) != "?" {
		t.Error("KindName mapping broken")
	}
	// Packet-less records (PFC pause/resume) carry KindNone and must not
	// render as data packets.
	if KindName(KindNone) != "-" {
		t.Errorf("KindName(KindNone) = %q, want %q", KindName(KindNone), "-")
	}
}

func TestJSONLSinkSchema(t *testing.T) {
	var sb strings.Builder
	s := NewJSONLSink(&sb, nil)
	s.Record(Event{
		T: des.Time(1500), Type: Enqueue, Kind: 0, Node: 4, Peer: 0,
		Flow: 2, Size: 1000, QLen: 3, QBytes: 3000, Pkt: 77, Seq: 9000,
	})
	s.Record(Event{T: des.Time(2000), Type: DoubleFree, Node: -1, Peer: -1, Pkt: 5})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	want := `{"t_ns":1500,"type":"enq","node":4,"peer":0,"flow":2,"kind":"data","pkt":77,"size":1000,"seq":9000,"qbytes":3000,"qlen":3}`
	if lines[0] != want {
		t.Errorf("line 0:\n%s\nwant:\n%s", lines[0], want)
	}
	// Every line must be valid JSON with the full field set.
	for i, line := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("line %d is not valid JSON: %v", i, err)
		}
		for _, field := range []string{"t_ns", "type", "node", "peer", "flow", "kind", "pkt", "size", "seq", "qbytes", "qlen"} {
			if _, ok := m[field]; !ok {
				t.Errorf("line %d missing field %q", i, field)
			}
		}
	}
}

func TestJSONLSinkAllocFree(t *testing.T) {
	var sb strings.Builder
	sb.Grow(1 << 20)
	s := NewJSONLSink(&sb, nil)
	e := Event{T: des.Time(123456789), Type: Dequeue, Node: 1, Peer: 2, Flow: 3, Size: 1000, Pkt: 42}
	// Warm the scratch buffer and the bufio writer.
	for i := 0; i < 100; i++ {
		s.Record(e)
	}
	if n := testing.AllocsPerRun(1000, func() { s.Record(e) }); n > 0.1 {
		t.Fatalf("JSONL encoding allocates %.2f per event after warm-up, want ~0", n)
	}
}

func TestTracerEmitAllocFree(t *testing.T) {
	// Room for every emitted event: the sink never grows.
	tr := NewTracer(NewMemorySink[Event](2048))
	e := Event{Type: Enqueue, Size: 100}
	for i := 0; i < 100; i++ {
		tr.Emit(e)
	}
	if n := testing.AllocsPerRun(1000, func() { tr.Emit(e) }); n != 0 {
		t.Fatalf("Emit allocates %.2f per event after warm-up, want 0", n)
	}
}
