package obs

import (
	"bufio"
	"io"
	"sort"
	"strconv"
	"sync"

	"ecndelay/internal/des"
)

// DecisionType labels one control-loop decision. The audit trail records
// the congestion-control algorithms' *decisions* — not packet events —
// so the feedback chain queue-crossing → mark → CNP → rate cut can be
// reconstructed offline (cmd/ccreport) and its latency measured in-run.
type DecisionType uint8

// The decision record types. The first block is the switch side: a mark
// episode opens on the first CE mark after the queue crosses the marker
// threshold and closes when the queue falls back below it. The second
// block is DCQCN (per Zhu et al., SIGCOMM 2015): a CNP triggers a rate
// cut plus an alpha feedback update; the alpha timer decays alpha; the
// byte/time counters drive fast-recovery, additive and hyper increases.
// The third block is TIMELY (Mittal et al., SIGCOMM 2015): every ACK
// yields an RTT sample and a gradient computation, then exactly one
// rate action — additive increase, multiplicative decrease, the HAI
// brake above THigh, or the patched (Algorithm 2) update.
const (
	DecMarkOpen DecisionType = iota
	DecMarkClose
	DecRateCut
	DecAlphaFeedback
	DecAlphaDecay
	DecFastRecovery
	DecAdditiveInc
	DecHyperInc
	DecRTTSample
	DecGradient
	DecTimelyAdd
	DecTimelyMD
	DecTimelyBrake
	DecTimelyPatched
	numDecisionTypes
)

var decisionTypeNames = [numDecisionTypes]string{
	"epopen", "epclose",
	"cut", "alphafb", "alphadecay", "fr", "ai", "hai",
	"rtt", "grad", "tadd", "tmd", "tbrake", "tpatched",
}

func (t DecisionType) String() string {
	if int(t) < len(decisionTypeNames) {
		return decisionTypeNames[t]
	}
	return "?"
}

// Decision is one audit record. Like Event it is a plain value: emitting
// one copies a flat struct and allocates nothing. Fields that do not
// apply to a record type are zero (Peer/Flow: -1 when not applicable).
//
//   - Switch records (epopen/epclose): Node/Peer identify the marking
//     port, Episode is the episode id, QBytes the marker-visible queue
//     depth at open, RTT the queue-crossing→first-mark delay in seconds.
//   - DCQCN records: Node is the sender host, Flow the flow id. A cut
//     carries OldRate→NewRate, Target (the post-cut target rate rt),
//     Alpha (the alpha used), and Episode — the mark episode stamped on
//     the CNP that caused it (0: unattributed). alphafb/alphadecay carry
//     Alpha = the alpha after the update. fr/ai/hai carry
//     OldRate→NewRate and Target = rt.
//   - TIMELY records: rtt carries RTT = the new sample (seconds); grad
//     carries Grad = the normalised gradient and RTT = the EWMA input;
//     the action records carry OldRate→NewRate, RTT and Grad.
//
// Seq is a per-emitter monotone sequence number: each endpoint and each
// marking port stamps its own counter, making the total sort order used
// by AuditJSONLSink deterministic.
type Decision struct {
	T       des.Time     // simulation time, ns
	Type    DecisionType // record type
	Node    int32        // deciding node id (sender host or switch)
	Peer    int32        // port peer node id, -1 when not port-scoped
	Flow    int32        // flow id, -1 for switch/endpoint-global records
	Seq     uint64       // per-emitter sequence number
	Episode uint64       // mark episode id, 0 when none
	OldRate float64      // rate before the decision, bytes/s
	NewRate float64      // rate after the decision, bytes/s
	Target  float64      // DCQCN target rate rt after the decision
	Alpha   float64      // DCQCN alpha after the decision
	RTT     float64      // RTT sample / latency payload, seconds
	Grad    float64      // TIMELY normalised gradient
	QBytes  int64        // marker-visible queue depth, switch records
}

// DecisionSink receives audit records. Implementations are called with
// the trail's lock held, in emission order; they must not call back into
// the trail.
type DecisionSink interface {
	Decision(d Decision)
}

// AuditTrail fans decisions out to its sinks and keeps per-type counts.
// Emission is serialised by a mutex so one trail can serve concurrent
// sweep jobs; within one deterministic run the decision order is itself
// deterministic.
type AuditTrail struct {
	mu     sync.Mutex
	sinks  []DecisionSink
	counts [numDecisionTypes]int64
}

// NewAuditTrail returns a trail with the given sinks (counts accumulate
// even with none).
func NewAuditTrail(sinks ...DecisionSink) *AuditTrail {
	return &AuditTrail{sinks: sinks}
}

// AddSink attaches a sink.
func (a *AuditTrail) AddSink(s DecisionSink) {
	a.mu.Lock()
	a.sinks = append(a.sinks, s)
	a.mu.Unlock()
}

// Emit records one decision.
func (a *AuditTrail) Emit(d Decision) {
	a.mu.Lock()
	if int(d.Type) < len(a.counts) {
		a.counts[d.Type]++
	}
	for _, s := range a.sinks {
		s.Decision(d)
	}
	a.mu.Unlock()
}

// Decision implements DecisionSink, so one trail can chain into another:
// an experiment that wants a private in-memory view keeps the run-wide
// trail attached as a second sink instead of disconnecting it.
func (a *AuditTrail) Decision(d Decision) { a.Emit(d) }

// Count reports how many decisions of one type have been emitted.
func (a *AuditTrail) Count(typ DecisionType) int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	if int(typ) >= len(a.counts) {
		return 0
	}
	return a.counts[typ]
}

// Total reports the number of decisions emitted across all types.
func (a *AuditTrail) Total() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	var n int64
	for _, c := range a.counts {
		n += c
	}
	return n
}

// AuditMemorySink retains decisions in memory. Give it a capacity hint
// to keep steady-state auditing allocation-free; Limit (if positive)
// stops retention after that many records.
type AuditMemorySink struct {
	Limit   int
	decs    []Decision
	dropped int64
}

// NewAuditMemorySink preallocates room for capacity records (0: grow on
// demand).
func NewAuditMemorySink(capacity int) *AuditMemorySink {
	return &AuditMemorySink{decs: make([]Decision, 0, capacity)}
}

// Decision implements DecisionSink.
func (m *AuditMemorySink) Decision(d Decision) {
	if m.Limit > 0 && len(m.decs) >= m.Limit {
		m.dropped++
		return
	}
	m.decs = append(m.decs, d)
}

// Decisions returns the retained records (the live slice; treat as
// read-only).
func (m *AuditMemorySink) Decisions() []Decision { return m.decs }

// Dropped reports decisions discarded past Limit.
func (m *AuditMemorySink) Dropped() int64 { return m.dropped }

// decisionLess is a total order over record *content*: primary key is
// simulation time, then emitter identity and its sequence number, then
// every remaining field. Because the order depends only on field values,
// sorted output is independent of emission interleaving — concurrent
// sweep jobs that permute arrival order still
// serialise to identical bytes (ties across emitters are between
// identical records, which are interchangeable).
func decisionLess(a, b Decision) bool {
	switch {
	case a.T != b.T:
		return a.T < b.T
	case a.Node != b.Node:
		return a.Node < b.Node
	case a.Peer != b.Peer:
		return a.Peer < b.Peer
	case a.Flow != b.Flow:
		return a.Flow < b.Flow
	case a.Seq != b.Seq:
		return a.Seq < b.Seq
	case a.Type != b.Type:
		return a.Type < b.Type
	case a.Episode != b.Episode:
		return a.Episode < b.Episode
	case a.OldRate != b.OldRate:
		return a.OldRate < b.OldRate
	case a.NewRate != b.NewRate:
		return a.NewRate < b.NewRate
	case a.Target != b.Target:
		return a.Target < b.Target
	case a.Alpha != b.Alpha:
		return a.Alpha < b.Alpha
	case a.RTT != b.RTT:
		return a.RTT < b.RTT
	case a.Grad != b.Grad:
		return a.Grad < b.Grad
	default:
		return a.QBytes < b.QBytes
	}
}

// AuditJSONLSink buffers decisions in memory and, on Close, writes them
// as one JSON object per line in the canonical content order (see
// decisionLess) behind an optional header record. Buffer-then-sort makes
// the file byte-identical across reruns and across sweep worker counts
// even when several jobs share one sink; encoding reuses one scratch
// buffer, so steady-state recording costs only the amortised growth of
// the decision slice (pass a capacity hint to eliminate it).
type AuditJSONLSink struct {
	mu     sync.Mutex
	w      io.Writer
	decs   []Decision
	buf    []byte
	header *Header
	err    onceError
	closed bool
}

// NewAuditJSONLSink writes to w on Close. capacity preallocates the
// decision buffer (0: grow on demand). If w is also an io.Closer, Close
// closes it.
func NewAuditJSONLSink(w io.Writer, capacity int) *AuditJSONLSink {
	return &AuditJSONLSink{w: w, decs: make([]Decision, 0, capacity)}
}

// SetHeader attaches a self-describing header record written as the
// first line of the output.
func (s *AuditJSONLSink) SetHeader(h Header) {
	s.mu.Lock()
	hc := h
	s.header = &hc
	s.mu.Unlock()
}

// Decision implements DecisionSink.
func (s *AuditJSONLSink) Decision(d Decision) {
	s.mu.Lock()
	if !s.closed {
		s.decs = append(s.decs, d)
	}
	s.mu.Unlock()
}

// Len reports the number of buffered records.
func (s *AuditJSONLSink) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.decs)
}

// Err reports the first write error, if any.
func (s *AuditJSONLSink) Err() error { return s.err.get() }

// Close sorts the buffered records into canonical order, writes the
// header (if set) and the records, and closes the underlying writer when
// it is closable. Further decisions are discarded.
func (s *AuditJSONLSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return s.err.get()
	}
	s.closed = true
	sort.SliceStable(s.decs, func(i, j int) bool {
		return decisionLess(s.decs[i], s.decs[j])
	})
	bw := bufio.NewWriter(s.w)
	if s.header != nil {
		if _, err := bw.Write(s.header.appendJSONL(s.buf[:0])); err != nil {
			s.err.set(err)
		}
	}
	for _, d := range s.decs {
		b := appendDecisionJSONL(s.buf[:0], d)
		s.buf = b
		if _, err := bw.Write(b); err != nil {
			s.err.set(err)
			break
		}
	}
	if err := bw.Flush(); err != nil {
		s.err.set(err)
	}
	if c, ok := s.w.(io.Closer); ok {
		if err := c.Close(); err != nil {
			s.err.set(err)
		}
	}
	return s.err.get()
}

// appendDecisionJSONL encodes one decision as a JSONL line. Floats use
// Go's shortest round-trip form, so identical values always encode to
// identical bytes.
func appendDecisionJSONL(b []byte, d Decision) []byte {
	b = append(b, `{"t_ns":`...)
	b = strconv.AppendInt(b, int64(d.T), 10)
	b = append(b, `,"dec":"`...)
	b = append(b, d.Type.String()...)
	b = append(b, `","node":`...)
	b = strconv.AppendInt(b, int64(d.Node), 10)
	b = append(b, `,"peer":`...)
	b = strconv.AppendInt(b, int64(d.Peer), 10)
	b = append(b, `,"flow":`...)
	b = strconv.AppendInt(b, int64(d.Flow), 10)
	b = append(b, `,"seq":`...)
	b = strconv.AppendUint(b, d.Seq, 10)
	b = append(b, `,"ep":`...)
	b = strconv.AppendUint(b, d.Episode, 10)
	b = append(b, `,"old":`...)
	b = strconv.AppendFloat(b, d.OldRate, 'g', -1, 64)
	b = append(b, `,"new":`...)
	b = strconv.AppendFloat(b, d.NewRate, 'g', -1, 64)
	b = append(b, `,"tgt":`...)
	b = strconv.AppendFloat(b, d.Target, 'g', -1, 64)
	b = append(b, `,"alpha":`...)
	b = strconv.AppendFloat(b, d.Alpha, 'g', -1, 64)
	b = append(b, `,"rtt":`...)
	b = strconv.AppendFloat(b, d.RTT, 'g', -1, 64)
	b = append(b, `,"grad":`...)
	b = strconv.AppendFloat(b, d.Grad, 'g', -1, 64)
	b = append(b, `,"qbytes":`...)
	b = strconv.AppendInt(b, d.QBytes, 10)
	b = append(b, '}', '\n')
	return b
}

// Header is the self-describing first record of a probe/trace/audit
// JSONL export: schema name and version, the run's base seed, the
// protocol under test, and a human-oriented summary of the invoking
// flags — enough to reproduce an archived file without the original
// command line. Readers recognise it by its "schema" key and must
// tolerate its absence (files written before the header existed).
type Header struct {
	Schema  string // export kind: "probe", "trace", "audit"
	Version int    // schema version, starts at 1
	Seed    int64  // base RNG seed of the run
	Proto   string // protocol under test ("dcqcn", "timely", ...)
	Flags   string // flag summary of the invocation, "" when not a CLI run
}

// appendJSONL encodes the header as a JSONL line.
func (h Header) appendJSONL(b []byte) []byte {
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
	b = append(b, '}', '\n')
	return b
}
