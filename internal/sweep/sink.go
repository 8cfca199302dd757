package sweep

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
)

// Sink receives completed job results. The engine calls Write from a
// single goroutine; Completed is called once per job before dispatch.
type Sink interface {
	// Completed reports whether a job already has a checkpointed
	// success, in which case the engine skips it.
	Completed(id string) bool
	// Write records one result.
	Write(r Result) error
}

// JSONLSink checkpoints results as one JSON object per line. Each row
// is written with a single syscall, so a killed sweep leaves at most
// one torn trailing line, which resume tolerates. On resume, rows with
// an empty err field mark their job as completed; failed jobs run
// again (their old rows remain — readers should keep the last row per
// job ID).
type JSONLSink struct {
	mu   sync.Mutex
	f    *os.File
	done map[string]struct{}
}

// OpenJSONL opens (resume=true) or truncates (resume=false) the sweep
// checkpoint file at path.
func OpenJSONL(path string, resume bool) (*JSONLSink, error) {
	s := &JSONLSink{done: make(map[string]struct{})}
	if resume {
		b, err := os.ReadFile(path)
		if err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("sweep: reading checkpoint %s: %w", path, err)
		}
		for _, line := range bytes.Split(b, []byte("\n")) {
			if len(bytes.TrimSpace(line)) == 0 {
				continue
			}
			var r Result
			// A torn final line from a killed run fails to parse;
			// its job simply runs again.
			if json.Unmarshal(line, &r) != nil {
				continue
			}
			if r.JobID != "" && r.Err == "" {
				s.done[r.JobID] = struct{}{}
			}
		}
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		// Terminate a torn trailing line (kill mid-write) so the next
		// row starts clean.
		if len(b) > 0 && b[len(b)-1] != '\n' {
			if _, err := f.WriteString("\n"); err != nil {
				f.Close()
				return nil, err
			}
		}
		s.f = f
		return s, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	s.f = f
	return s, nil
}

// Completed reports whether id has a checkpointed success.
func (s *JSONLSink) Completed(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.done[id]
	return ok
}

// Resumed is the number of completed jobs loaded from the checkpoint.
func (s *JSONLSink) Resumed() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.done)
}

// Write appends one result row.
func (s *JSONLSink) Write(r Result) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.f.Write(append(b, '\n')); err != nil {
		return err
	}
	if r.Err == "" {
		s.done[r.JobID] = struct{}{}
	}
	return nil
}

// Close closes the checkpoint file.
func (s *JSONLSink) Close() error { return s.f.Close() }

// ReadResults parses a JSONL checkpoint file, returning the
// last row per job ID in first-seen job order. Blank and torn lines
// (a kill mid-write leaves at most one) are skipped, mirroring
// OpenJSONL's resume tolerance. A missing file yields no rows.
func ReadResults(path string) ([]Result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, fmt.Errorf("sweep: reading checkpoint %s: %w", path, err)
	}
	byID := make(map[string]int)
	var out []Result
	for _, line := range bytes.Split(b, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var r Result
		if json.Unmarshal(line, &r) != nil || r.JobID == "" {
			continue
		}
		if i, ok := byID[r.JobID]; ok {
			out[i] = r
			continue
		}
		byID[r.JobID] = len(out)
		out = append(out, r)
	}
	return out, nil
}

// MemorySink collects results in memory for callers that post-process
// a sweep in-process (the cmd front-ends, tests).
type MemorySink struct {
	mu      sync.Mutex
	results []Result
}

// Completed always reports false: memory sinks do not resume.
func (s *MemorySink) Completed(string) bool { return false }

// Write records one result.
func (s *MemorySink) Write(r Result) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.results = append(s.results, r)
	return nil
}

// Results returns the collected results sorted by job index, i.e. in
// the order the jobs were submitted.
func (s *MemorySink) Results() []Result {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := append([]Result(nil), s.results...)
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out
}

// MarshalResults renders results as sorted JSONL (by job ID): the
// canonical byte-comparable form of a sweep's output.
func MarshalResults(rs []Result) ([]byte, error) {
	sorted := append([]Result(nil), rs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].JobID < sorted[j].JobID })
	var buf bytes.Buffer
	for _, r := range sorted {
		b, err := json.Marshal(r)
		if err != nil {
			return nil, err
		}
		buf.Write(b)
		buf.WriteByte('\n')
	}
	return buf.Bytes(), nil
}
