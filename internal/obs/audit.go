package obs

import (
	"io"
	"sort"
	"strconv"
	"sync"

	"ecndelay/internal/des"
)

// DecisionType labels one control-loop decision. The audit trail records
// the congestion-control algorithms' *decisions* — not packet events —
// so the feedback chain queue-crossing → mark → CNP → rate cut can be
// reconstructed offline (Attribute) and its latency measured in-run.
type DecisionType uint8

// The decision record types. The first block is the switch side: a mark
// episode opens on the first CE mark after the queue crosses the marker
// threshold and closes when the queue falls back below it. The second
// block is DCQCN (per Zhu et al., SIGCOMM 2015): a CNP triggers a rate
// cut plus an alpha feedback update; the alpha timer decays alpha; the
// byte/time counters drive fast-recovery, additive and hyper increases.
// The third block is TIMELY (Mittal et al., SIGCOMM 2015): every ACK
// yields an RTT sample and a gradient computation, then exactly one
// rate action — additive increase, multiplicative decrease, the brake
// above THigh, or the patched (Algorithm 2) update.
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
//     the CNP that caused it (0: unattributed). A cut's RTT is its
//     mark→cut latency in seconds, the feedback delay the report takes
//     as τ* (Attribute's MarkCut). alphafb/alphadecay carry
//     Alpha = the alpha after the update. fr/ai/hai carry
//     OldRate→NewRate and Target = rt.
//   - TIMELY records: rtt carries RTT = the new sample (seconds); grad
//     carries Grad = the normalised gradient and RTT = the EWMA input;
//     the action records carry OldRate→NewRate, RTT and Grad.
//
// Seq is a per-emitter monotone sequence number: each endpoint and each
// marking port stamps its own counter, making the total sort order used
// by AuditJSONLSink deterministic.
//
// The tags name the keys appendDecisionJSONL writes, through which
// ReadAudit decodes; the type travels as its name under "dec".
type Decision struct {
	T       des.Time     `json:"t_ns"`   // simulation time, ns
	Type    DecisionType `json:"-"`      // record type
	Node    int32        `json:"node"`   // deciding node id (sender host or switch)
	Peer    int32        `json:"peer"`   // port peer node id, -1 when not port-scoped
	Flow    int32        `json:"flow"`   // flow id, -1 for switch/endpoint-global records
	Seq     uint64       `json:"seq"`    // per-emitter sequence number
	Episode uint64       `json:"ep"`     // mark episode id, 0 when none
	OldRate float64      `json:"old"`    // rate before the decision, bytes/s
	NewRate float64      `json:"new"`    // rate after the decision, bytes/s
	Target  float64      `json:"tgt"`    // DCQCN target rate rt after the decision
	Alpha   float64      `json:"alpha"`  // DCQCN alpha after the decision
	RTT     float64      `json:"rtt"`    // RTT sample / latency payload, seconds
	Grad    float64      `json:"grad"`   // TIMELY normalised gradient
	QBytes  int64        `json:"qbytes"` // marker-visible queue depth, switch records
}

func (d Decision) recordType() DecisionType { return d.Type }

// Attribution is the mark-episode bookkeeping of a decision stream.
type Attribution struct {
	Cuts, Attributed  int       // rate cuts, and those naming a mark episode
	Episodes, Orphans int       // episodes opened, and those no cut names
	MarkCut           []float64 // per attributed cut, its RTT: mark→cut latency, s
	OpenCut           []float64 // per episode with a cut, open→first-cut latency, s
}

// Attribute reconstructs attribution from a decision stream: each DCQCN
// rate cut names the episode stamped on its CNP, each episode-open record
// carries the episode's start time, and an episode no cut ever names is
// an orphan — its feedback was lost before any sender reacted. Only an
// episode's first cut measures open→cut: later cuts of the same episode
// measure the CNP cadence, not the loop.
func Attribute(decs []Decision) Attribution {
	var a Attribution
	openT := make(map[uint64]des.Time)
	cutBy := make(map[uint64]int)
	for _, d := range decs {
		switch d.Type {
		case DecMarkOpen:
			a.Episodes++
			openT[d.Episode] = d.T
		case DecRateCut:
			a.Cuts++
			if d.Episode == 0 {
				continue
			}
			a.Attributed++
			cutBy[d.Episode]++
			a.MarkCut = append(a.MarkCut, d.RTT)
			if t0, ok := openT[d.Episode]; ok && cutBy[d.Episode] == 1 {
				a.OpenCut = append(a.OpenCut, d.T.Sub(t0).Seconds())
			}
		}
	}
	for ep := range openT {
		if cutBy[ep] == 0 {
			a.Orphans++
		}
	}
	return a
}

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
// through the record writer as one JSON object per line in the canonical
// content order (see decisionLess) behind an optional header record.
// Buffer-then-sort makes the file byte-identical across reruns and across
// sweep worker counts even when several jobs share one sink; steady-state
// recording costs only the amortised growth of the decision slice (pass a
// capacity hint to eliminate it).
type AuditJSONLSink struct {
	headed
	mu     sync.Mutex
	w      io.Writer
	decs   []Decision
	closed bool
	err    error
}

// NewAuditJSONLSink writes to w on Close. capacity preallocates the
// decision buffer (0: grow on demand).
func NewAuditJSONLSink(w io.Writer, capacity int) *AuditJSONLSink {
	return &AuditJSONLSink{w: w, decs: make([]Decision, 0, capacity)}
}

// Record implements Sink.
func (s *AuditJSONLSink) Record(d Decision) {
	s.mu.Lock()
	if !s.closed {
		s.decs = append(s.decs, d)
	}
	s.mu.Unlock()
}

// Close sorts the buffered records into canonical order and writes the
// header (if set) and the records. It returns the first write error, on
// every call; further decisions are discarded. The caller closes the
// io.Writer it handed in.
func (s *AuditJSONLSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return s.err
	}
	s.closed = true
	sort.SliceStable(s.decs, func(i, j int) bool {
		return decisionLess(s.decs[i], s.decs[j])
	})
	rw := newRecordWriter(s.w, s.headerLine())
	for _, d := range s.decs {
		rw.write(appendDecisionJSONL(rw.buf, d))
	}
	s.err = rw.flush()
	return s.err
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
