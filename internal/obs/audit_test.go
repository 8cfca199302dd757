package obs

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"ecndelay/internal/des"
)

func TestAuditTrailCounts(t *testing.T) {
	mem := NewAuditMemorySink(0)
	a := NewAuditTrail(mem)
	a.Emit(Decision{Type: DecMarkOpen})
	a.Emit(Decision{Type: DecRateCut})
	a.Emit(Decision{Type: DecRateCut})
	a.Emit(Decision{Type: DecRTTSample})
	if got := a.Count(DecRateCut); got != 2 {
		t.Errorf("Count(DecRateCut) = %d, want 2", got)
	}
	if got := a.Count(DecMarkClose); got != 0 {
		t.Errorf("Count(DecMarkClose) = %d, want 0", got)
	}
	if got := a.Total(); got != 4 {
		t.Errorf("Total() = %d, want 4", got)
	}
	if got := len(mem.Decisions()); got != 4 {
		t.Errorf("memory sink retained %d records, want 4", got)
	}
}

func TestAuditMemorySinkLimit(t *testing.T) {
	m := NewAuditMemorySink(4)
	m.Limit = 3
	for i := 0; i < 10; i++ {
		m.Decision(Decision{Seq: uint64(i)})
	}
	if got := len(m.Decisions()); got != 3 {
		t.Errorf("retained %d records past Limit 3", got)
	}
	if got := m.Dropped(); got != 7 {
		t.Errorf("Dropped() = %d, want 7", got)
	}
}

// A trail is itself a DecisionSink, so one trail can chain into another
// — the auditloop runner keeps a run-wide CLI trail attached behind its
// private in-memory view this way.
func TestAuditTrailChains(t *testing.T) {
	parentMem := NewAuditMemorySink(0)
	parent := NewAuditTrail(parentMem)
	childMem := NewAuditMemorySink(0)
	child := NewAuditTrail(childMem, parent)
	child.Emit(Decision{Type: DecRateCut})
	if len(childMem.Decisions()) != 1 || len(parentMem.Decisions()) != 1 {
		t.Errorf("child retained %d, parent retained %d; want 1 and 1",
			len(childMem.Decisions()), len(parentMem.Decisions()))
	}
	if parent.Count(DecRateCut) != 1 {
		t.Error("chained emission did not reach the parent's counters")
	}
}

// auditTestRecords is a deterministic shuffled workload with duplicate
// timestamps across distinct emitters, exercising every sort key.
func auditTestRecords() []Decision {
	rng := rand.New(rand.NewSource(7))
	var decs []Decision
	for i := 0; i < 500; i++ {
		decs = append(decs, Decision{
			T:       des.Time(rng.Intn(50) * 1000),
			Type:    DecisionType(rng.Intn(int(numDecisionTypes))),
			Node:    int32(rng.Intn(4)),
			Peer:    int32(rng.Intn(4)) - 1,
			Flow:    int32(rng.Intn(3)) - 1,
			Seq:     uint64(i),
			Episode: uint64(rng.Intn(3)),
			OldRate: float64(rng.Intn(10)) * 1e8,
			NewRate: float64(rng.Intn(10)) * 1e8,
			RTT:     float64(rng.Intn(5)) * 1e-6,
			QBytes:  int64(rng.Intn(2) * 1000),
		})
	}
	return decs
}

// The JSONL sink's output depends only on the record multiset, never on
// emission order: sorting is by content, so permuted arrivals (sweep
// workers) serialise to identical bytes.
func TestAuditJSONLSinkOrderIndependent(t *testing.T) {
	decs := auditTestRecords()
	encode := func(order []Decision) []byte {
		var buf bytes.Buffer
		s := NewAuditJSONLSink(&buf, len(order))
		s.SetHeader(Header{Schema: "audit", Version: 1, Seed: 7, Proto: "dcqcn"})
		for _, d := range order {
			s.Decision(d)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	forward := encode(decs)
	reversed := make([]Decision, len(decs))
	for i, d := range decs {
		reversed[len(decs)-1-i] = d
	}
	if !bytes.Equal(forward, encode(reversed)) {
		t.Error("reversed emission order changed the serialised bytes")
	}
	shuffled := append([]Decision(nil), decs...)
	rand.New(rand.NewSource(99)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	if !bytes.Equal(forward, encode(shuffled)) {
		t.Error("shuffled emission order changed the serialised bytes")
	}

	lines := strings.Split(strings.TrimSuffix(string(forward), "\n"), "\n")
	if want := len(decs) + 1; len(lines) != want {
		t.Fatalf("export has %d lines, want %d (header + records)", len(lines), want)
	}
	var hdr map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &hdr); err != nil {
		t.Fatalf("header is not valid JSON: %v", err)
	}
	if hdr["schema"] != "audit" {
		t.Errorf("header schema = %v, want audit", hdr["schema"])
	}
	for i, line := range lines[1:] {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("record line %d is not valid JSON: %v", i, err)
		}
		for _, field := range []string{"t_ns", "dec", "node", "peer", "flow", "seq", "ep", "old", "new", "tgt", "alpha", "rtt", "grad", "qbytes"} {
			if _, ok := m[field]; !ok {
				t.Errorf("record line %d missing field %q", i, field)
			}
		}
	}
}

// decisionLess must be a strict weak ordering: irreflexive, asymmetric,
// and total over distinct record contents — sort.SliceStable's contract,
// and the reason ties are only ever between interchangeable records.
func TestDecisionLessStrictWeakOrder(t *testing.T) {
	decs := auditTestRecords()
	for i := range decs {
		if decisionLess(decs[i], decs[i]) {
			t.Fatalf("decisionLess is not irreflexive at record %d", i)
		}
	}
	sorted := append([]Decision(nil), decs...)
	sort.SliceStable(sorted, func(i, j int) bool { return decisionLess(sorted[i], sorted[j]) })
	for i := 1; i < len(sorted); i++ {
		if decisionLess(sorted[i], sorted[i-1]) {
			t.Fatalf("sorted order violated at %d", i)
		}
		if !decisionLess(sorted[i-1], sorted[i]) && sorted[i-1] != sorted[i] {
			t.Fatalf("distinct records compare equal at %d: %+v vs %+v", i, sorted[i-1], sorted[i])
		}
	}
}

func TestAuditHeaderEncoding(t *testing.T) {
	h := Header{Schema: "audit", Version: 1, Seed: -3, Proto: "dcqcn", Flags: `n=4 trace="x"`}
	got := string(h.appendJSONL(nil))
	want := `{"schema":"audit","v":1,"seed":-3,"proto":"dcqcn","flags":"n=4 trace=\"x\""}` + "\n"
	if got != want {
		t.Errorf("header encoded as %q, want %q", got, want)
	}
}

func TestAuditJSONLSinkDiscardsAfterClose(t *testing.T) {
	var buf bytes.Buffer
	s := NewAuditJSONLSink(&buf, 0)
	s.Decision(Decision{Type: DecRateCut})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	n := buf.Len()
	s.Decision(Decision{Type: DecRateCut})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != n || s.Len() != 1 {
		t.Error("decisions after Close were not discarded")
	}
}

// Steady-state emission through a trail into both sink kinds is
// allocation-free once buffers are warm: Decision is a flat value and
// both sinks append into preallocated storage.
func TestAuditEmitAllocFree(t *testing.T) {
	mem := NewAuditMemorySink(4096)
	mem.Limit = 2048
	var sb strings.Builder
	sb.Grow(1 << 20)
	jsonl := NewAuditJSONLSink(&sb, 4096)
	a := NewAuditTrail(mem, jsonl)
	d := Decision{T: des.Time(123456), Type: DecRateCut, Node: 1, Peer: 2, Flow: 3,
		Seq: 9, Episode: 77, OldRate: 1e9, NewRate: 5e8, Target: 1e9, Alpha: 0.5}
	for i := 0; i < 100; i++ {
		a.Emit(d)
	}
	if n := testing.AllocsPerRun(1000, func() { a.Emit(d) }); n != 0 {
		t.Fatalf("Emit allocates %.2f per decision after warm-up, want 0", n)
	}
}
