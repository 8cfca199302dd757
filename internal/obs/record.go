package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"strconv"
	"sync"

	"ecndelay/internal/fixedpoint"
)

// The one record path. A stream (Tracer, AuditTrail) fans the records of
// one kind out to its sinks and counts them by record type; every export
// — the trace and audit sinks, the probe, histogram and counter writers —
// runs through one recordWriter, so each record kind keeps only its
// encoder (and the audit its content sort). No writer closes the
// io.Writer it is handed: whoever opened a file closes it.

// Sink receives the records of a stream. Implementations are called with
// the stream's lock held, in emission order; they must not call back into
// the stream.
type Sink[R any] interface {
	Record(r R)
}

// record is a stream's record type: it names its own record type, which
// the stream counts.
type record[T ~uint8] interface {
	recordType() T
}

// stream fans records out to its sinks and keeps per-type counts.
// Emission is serialised by a mutex so one stream can serve concurrent
// sweep jobs; within one deterministic run the record order is itself
// deterministic.
type stream[R record[T], T ~uint8] struct {
	mu     sync.Mutex
	sinks  []Sink[R]
	counts []int64 // one slot per record type
}

// Tracer is the stream of trace events.
type Tracer = stream[Event, EventType]

// AuditTrail is the stream of control-loop decisions.
type AuditTrail = stream[Decision, DecisionType]

// NewTracer returns a tracer feeding sinks (counts accumulate even with
// none).
func NewTracer(sinks ...Sink[Event]) *Tracer {
	return &Tracer{sinks: sinks, counts: make([]int64, numEventTypes)}
}

// NewAuditTrail returns a trail feeding sinks (counts accumulate even
// with none).
func NewAuditTrail(sinks ...Sink[Decision]) *AuditTrail {
	return &AuditTrail{sinks: sinks, counts: make([]int64, numDecisionTypes)}
}

// Emit records one record.
func (s *stream[R, T]) Emit(r R) {
	s.mu.Lock()
	if t := int(r.recordType()); t < len(s.counts) {
		s.counts[t]++
	}
	for _, k := range s.sinks {
		k.Record(r)
	}
	s.mu.Unlock()
}

// Record implements Sink, so one stream can chain into another: the
// auditloop runner keeps a run-wide trail attached as a sink behind its
// private in-memory view.
func (s *stream[R, T]) Record(r R) { s.Emit(r) }

// Count reports how many records of one type have been emitted.
func (s *stream[R, T]) Count(typ T) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if int(typ) >= len(s.counts) {
		return 0
	}
	return s.counts[typ]
}

// Total reports the number of records emitted across all types.
func (s *stream[R, T]) Total() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int64
	for _, c := range s.counts {
		n += c
	}
	return n
}

// MemorySink keeps every record it receives, in order. Give it a capacity
// hint to keep steady-state recording allocation-free.
type MemorySink[R any] struct {
	recs []R
}

// NewMemorySink preallocates room for capacity records (0: grow on
// demand).
func NewMemorySink[R any](capacity int) *MemorySink[R] {
	return &MemorySink[R]{recs: make([]R, 0, capacity)}
}

// Record implements Sink.
func (m *MemorySink[R]) Record(r R) { m.recs = append(m.recs, r) }

// Records returns the retained records (the live slice; treat as
// read-only).
func (m *MemorySink[R]) Records() []R { return m.recs }

// recordWriter is the buffered writer under every export. It writes the
// header first; each record is encoded into the reused scratch buffer buf
// and handed to write. The bufio.Writer keeps the first write error,
// drops every later write and returns the error from flush.
type recordWriter struct {
	bw  *bufio.Writer
	buf []byte // encoder scratch: append a record to buf, then write it
}

// newRecordWriter starts an export on w with header as its first bytes
// (none when empty).
func newRecordWriter(w io.Writer, header []byte) *recordWriter {
	rw := &recordWriter{bw: bufio.NewWriter(w)}
	rw.write(header)
	return rw
}

// write writes one encoded record and keeps its storage as the scratch
// buffer for the next.
func (rw *recordWriter) write(b []byte) {
	_, _ = rw.bw.Write(b)
	rw.buf = b[:0]
}

// flush drains the buffer and returns the first write error.
func (rw *recordWriter) flush() error { return rw.bw.Flush() }

// Header is the self-describing first record of a trace, probe, audit or
// histogram JSONL export: schema name and version, the run's base seed,
// the protocol under test, a human-oriented summary of the invoking flags
// — enough to reproduce an archived file without the original command
// line — and, when the run had one, its DCQCN operating point Op. The
// readers return it (nil when the first line is not one, as in files
// written before the header existed); runreport prints one line per file
// from it.
type Header struct {
	Schema  string `json:"schema"` // export kind: "trace", "probe", "audit", "hist"
	Version int    `json:"v"`      // schema version, starts at 1
	Seed    int64  `json:"seed"`   // base RNG seed of the run
	Proto   string `json:"proto"`  // protocol under test ("dcqcn", "timely", ...)
	Flags   string `json:"flags"`  // flag summary of the invocation, "" when not a CLI run
	// Op is the DCQCN operating point in paper units that built the run's
	// marker and model side, nil when the run names none. The report
	// compares the run against the fluid model at this point.
	Op *fixedpoint.DCQCNParams `json:"op"`
}

// appendJSONL encodes the header as a JSONL line; a nil header appends
// nothing. Op, when set, is one object keyed by the DCQCNParams field
// names in declaration order with shortest round-trip floats, so it
// decodes back to the same bits; a point holding a non-finite value,
// which JSON cannot carry and no validated run has, is left out.
func (h *Header) appendJSONL(b []byte) []byte {
	if h == nil {
		return b
	}
	b = append(b, `{"schema":`...)
	b = strconv.AppendQuote(b, h.Schema)
	b = append(b, `,"v":`...)
	b = strconv.AppendInt(b, int64(h.Version), 10)
	b = append(b, `,"seed":`...)
	b = strconv.AppendInt(b, h.Seed, 10)
	b = append(b, `,"proto":`...)
	b = strconv.AppendQuote(b, h.Proto)
	b = append(b, `,"flags":`...)
	b = strconv.AppendQuote(b, h.Flags)
	if op, err := json.Marshal(h.Op); h.Op != nil && err == nil {
		b = append(b, `,"op":`...)
		b = append(b, op...)
	}
	b = append(b, '}', '\n')
	return b
}

// headed holds the optional header of a JSONL export.
type headed struct {
	hmu    sync.Mutex
	header *Header
}

// SetHeader attaches a self-describing header record written as the
// first line of the JSONL export. The header describes the whole export,
// so it is set once by the invoking command — not per job — and stays
// identical for any worker count.
func (x *headed) SetHeader(h Header) {
	x.hmu.Lock()
	x.header = &h
	x.hmu.Unlock()
}

// headerLine returns the encoded header, nil when none is set.
func (x *headed) headerLine() []byte {
	x.hmu.Lock()
	defer x.hmu.Unlock()
	return x.header.appendJSONL(nil)
}
