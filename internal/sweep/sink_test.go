package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// unmarshalRow decodes one JSONL row strictly.
func unmarshalRow(line []byte, r *Result) error { return json.Unmarshal(line, r) }

// syncBuffer is a goroutine-safe bytes.Buffer for capturing progress.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestMarshalResultsSortsByJobID(t *testing.T) {
	rs := []Result{
		{JobID: "b", Index: 1, Attempts: 1},
		{JobID: "a", Index: 0, Attempts: 1, Metrics: map[string]float64{"z": 1, "a": 2}},
	}
	b, err := MarshalResults(rs)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) != 2 || !strings.Contains(lines[0], `"job":"a"`) {
		t.Fatalf("rows not sorted by job ID:\n%s", b)
	}
	// Metric keys are emitted sorted, so encoding is deterministic.
	if i, j := strings.Index(lines[0], `"a":2`), strings.Index(lines[0], `"z":1`); i < 0 || j < 0 || i > j {
		t.Errorf("metric keys not sorted: %s", lines[0])
	}
}

func TestMemorySinkOrdersByIndex(t *testing.T) {
	s := &MemorySink{}
	for _, i := range []int{3, 0, 2, 1} {
		if err := s.Write(Result{JobID: "x", Index: i}); err != nil {
			t.Fatal(err)
		}
	}
	for want, r := range s.Results() {
		if r.Index != want {
			t.Fatalf("results not sorted by index: %+v", s.Results())
		}
	}
}

// TestJSONLSinkCrashConsistency simulates a kill mid-write: the final
// checkpoint row is truncated at every byte offset, and resume must
// (a) recover exactly the rows whose lines survived intact, (b) leave
// at most one torn line in the healed file, and (c) append fresh rows
// cleanly after the tear — the contract sink.go promises.
func TestJSONLSinkCrashConsistency(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ck.jsonl")
	s, err := OpenJSONL(path, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		r := Result{
			JobID:    fmt.Sprintf("job%d", i),
			Index:    i,
			Seed:     int64(1000 + i),
			Meta:     map[string]string{"cell": fmt.Sprint(i)},
			Metrics:  map[string]float64{"v": float64(i) * 1.5},
			Attempts: 1,
		}
		if err := s.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lastStart := bytes.LastIndexByte(bytes.TrimRight(full, "\n"), '\n') + 1

	for off := lastStart; off <= len(full); off++ {
		p := filepath.Join(dir, fmt.Sprintf("trunc%d.jsonl", off))
		if err := os.WriteFile(p, full[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		// Is the surviving fragment of the final row a complete line?
		frag := bytes.TrimSpace(full[lastStart:off])
		var fragRow Result
		lastIntact := len(frag) > 0 && unmarshalRow(frag, &fragRow) == nil
		wantDone := 2
		if lastIntact {
			wantDone = 3
		}

		sink, err := OpenJSONL(p, true)
		if err != nil {
			t.Fatalf("offset %d: resume failed: %v", off, err)
		}
		if got := sink.Resumed(); got != wantDone {
			t.Fatalf("offset %d: resumed %d jobs, want %d", off, got, wantDone)
		}
		if err := sink.Write(Result{JobID: "fresh", Index: 3, Attempts: 1}); err != nil {
			t.Fatal(err)
		}
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}

		healed, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		torn, parsed := 0, 0
		for _, line := range bytes.Split(healed, []byte("\n")) {
			if len(bytes.TrimSpace(line)) == 0 {
				continue
			}
			var r Result
			if unmarshalRow(line, &r) != nil {
				torn++
			} else {
				parsed++
			}
		}
		if torn > 1 {
			t.Fatalf("offset %d: %d torn lines after resume, want at most 1", off, torn)
		}
		if parsed != wantDone+1 {
			t.Fatalf("offset %d: %d parsed rows after append, want %d", off, parsed, wantDone+1)
		}
		// A second resume sees every intact job, including the fresh one.
		again, err := OpenJSONL(p, true)
		if err != nil {
			t.Fatal(err)
		}
		if !again.Completed("fresh") || again.Resumed() != wantDone+1 {
			t.Fatalf("offset %d: second resume lost rows (resumed %d)", off, again.Resumed())
		}
		if err := again.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestReadResultsKeepsLastRowPerJob(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "rows.jsonl")
	body := `{"job":"a","index":0,"seed":1,"err":"first try failed","attempts":1}
{"job":"b","index":1,"seed":2,"attempts":1}
{"job":"a","index":0,"seed":1,"attempts":2}
{"job":"torn","index":9,"se`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	rows, err := ReadResults(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2: %+v", len(rows), rows)
	}
	if rows[0].JobID != "a" || rows[0].Err != "" || rows[0].Attempts != 2 {
		t.Errorf("row a not the last-written version: %+v", rows[0])
	}
	if rows[1].JobID != "b" {
		t.Errorf("unexpected second row: %+v", rows[1])
	}
	if none, err := ReadResults(filepath.Join(dir, "missing.jsonl")); err != nil || none != nil {
		t.Errorf("missing file should yield no rows, nil error (got %v, %v)", none, err)
	}
}
