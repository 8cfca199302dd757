package obs

import (
	"io"
	"strconv"

	"ecndelay/internal/des"
)

// EventType labels one instrumented simulator action.
type EventType uint8

// The trace record types. Enqueue/Dequeue bracket a packet's time in an
// egress queue; Mark is an ECN CE mark; Pause/Resume are genuine PFC state
// transitions (idempotent re-pauses are absorbed upstream and never
// traced); WireDrop and BufDrop are the two loss sites; Deliver is the
// packet landing at its destination node; Retx is a protocol endpoint
// re-sending below its high-water mark; DoubleFree is a pooled packet
// freed twice (always a bug — the invariant checker flags it).
const (
	Enqueue EventType = iota
	Dequeue
	Mark
	Pause
	Resume
	WireDrop
	BufDrop
	Deliver
	Retx
	DoubleFree
	numEventTypes
)

var eventTypeNames = [numEventTypes]string{
	"enq", "deq", "mark", "pause", "resume",
	"wiredrop", "bufdrop", "deliver", "retx", "dfree",
}

func (t EventType) String() string {
	if int(t) < len(eventTypeNames) {
		return eventTypeNames[t]
	}
	return "?"
}

// kindNames mirrors the netsim.Kind constants by value (Data, Ack, CNP,
// Pause, Resume, Nack); obs cannot import netsim without a cycle, so the
// correspondence is pinned by a test in internal/netsim.
var kindNames = [...]string{"data", "ack", "cnp", "pause", "resume", "nack"}

// KindNone marks a record that carries no packet (PFC pause/resume state
// transitions); KindName renders it as "-" so portless records are never
// mistaken for data packets when filtering a trace by kind.
const KindNone = 0xFF

// KindName renders a raw netsim packet kind for trace output.
func KindName(k uint8) string {
	if k == KindNone {
		return "-"
	}
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "?"
}

// Event is one trace record. It is a plain value — emitting one copies a
// flat struct and allocates nothing. Node/Peer identify the port (one
// directed port per (owner, peer) pair in netsim); fields that do not
// apply to a record type are zero (Peer: -1 when portless, Kind: KindNone
// when no packet is involved).
type Event struct {
	T      des.Time  // simulation time, ns
	Type   EventType // record type
	Kind   uint8     // raw packet kind (see KindName), KindNone when packet-less
	Run    uint32    // network-instance tag (see below), 0 when untagged
	Node   int32     // owner node id
	Peer   int32     // peer node id, -1 when not port-scoped
	Flow   int32     // flow id, -1 for control not tied to a flow
	Size   int32     // packet payload bytes
	QLen   int32     // queue length after the action (queue events)
	QBytes int64     // queued bytes after the action (queue events)
	QCap   int64     // configured queue capacity, 0 = unbounded
	Pkt    uint64    // packet id
	Seq    int64     // sequence/offset field
}

func (e Event) recordType() EventType { return e.Type }

// Run scopes per-port checker state: netsim stamps every port-scoped event
// with a process-unique tag for the network that emitted it, so one shared
// Checker keeps independent books per network even when several runs with
// identical node ids feed it — concurrently (sweep workers) or one after
// another (a runner building several networks). The tag is deliberately NOT
// part of the JSONL trace encoding: its value depends on how many networks
// the process created before, which would break byte-identical golden
// traces.

// JSONLSink streams trace events as one JSON object per line through the
// record writer, encoding into its reused scratch buffer — steady-state
// tracing does not allocate. Close flushes; the caller closes the
// io.Writer it handed in.
type JSONLSink struct {
	w *recordWriter
}

// NewJSONLSink starts a trace export on w with h (nil: none) as its
// first line.
func NewJSONLSink(w io.Writer, h *Header) *JSONLSink {
	return &JSONLSink{w: newRecordWriter(w, h.appendJSONL(nil))}
}

// Record implements Sink.
func (s *JSONLSink) Record(e Event) {
	b := append(s.w.buf, `{"t_ns":`...)
	b = strconv.AppendInt(b, int64(e.T), 10)
	b = append(b, `,"type":"`...)
	b = append(b, e.Type.String()...)
	b = append(b, `","node":`...)
	b = strconv.AppendInt(b, int64(e.Node), 10)
	b = append(b, `,"peer":`...)
	b = strconv.AppendInt(b, int64(e.Peer), 10)
	b = append(b, `,"flow":`...)
	b = strconv.AppendInt(b, int64(e.Flow), 10)
	b = append(b, `,"kind":"`...)
	b = append(b, KindName(e.Kind)...)
	b = append(b, `","pkt":`...)
	b = strconv.AppendUint(b, e.Pkt, 10)
	b = append(b, `,"size":`...)
	b = strconv.AppendInt(b, int64(e.Size), 10)
	b = append(b, `,"seq":`...)
	b = strconv.AppendInt(b, e.Seq, 10)
	b = append(b, `,"qbytes":`...)
	b = strconv.AppendInt(b, e.QBytes, 10)
	b = append(b, `,"qlen":`...)
	b = strconv.AppendInt(b, int64(e.QLen), 10)
	s.w.write(append(b, '}', '\n'))
}

// Close flushes the export and returns its first write error.
func (s *JSONLSink) Close() error { return s.w.flush() }
