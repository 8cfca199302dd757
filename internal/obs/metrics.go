package obs

import (
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. Updates are atomic so one
// registry can serve concurrent sweep jobs; totals are then deterministic
// for any worker count (sums commute), even though interleaving differs.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value reports the current total.
func (c *Counter) Value() int64 { return c.v.Load() }

// Metric is one registry entry in a snapshot.
type Metric struct {
	Name  string
	Value int64
}

// Registry holds hierarchical counters. Names are dotted paths
// ("port.n0-n2.tx_bytes"); registration is get-or-create, so independent
// components can share an instrument by agreeing on its name. Lookup is
// guarded by a mutex — hot paths must register once and keep the returned
// pointer, which is what the netsim/dcqcn/timely bindings do.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{counters: make(map[string]*Counter)}
}

// Counter returns the counter registered under name, creating it on first
// use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Snapshot returns every counter sorted by name — the canonical,
// byte-comparable order.
func (r *Registry) Snapshot() []Metric {
	r.mu.Lock()
	out := make([]Metric, 0, len(r.counters))
	for name, c := range r.counters {
		out = append(out, Metric{Name: name, Value: c.Value()})
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// WriteTSV renders the snapshot as "name\tvalue" lines sorted by name,
// through one buffered writer.
func (r *Registry) WriteTSV(w io.Writer) error {
	rw := newRecordWriter(w, nil)
	for _, m := range r.Snapshot() {
		b := append(rw.buf, m.Name...)
		b = append(b, '\t')
		b = strconv.AppendInt(b, m.Value, 10)
		rw.write(append(b, '\n'))
	}
	return rw.flush()
}

// PortCounters are the per-port instruments netsim registers: the names
// the issue calls out (tx/rx bytes, marks, pauses) plus the drop taxonomy
// the fault layer introduced.
type PortCounters struct {
	TxBytes   *Counter // payload bytes serialised onto the wire
	TxPkts    *Counter // packets serialised
	Marks     *Counter // ECN CE marks applied at this port's queue
	BufDrops  *Counter // tail drops at the finite egress queue
	WireDrops *Counter // packets lost on the wire (fault hook or flap)
	Pauses    *Counter // genuine PFC pause transitions
	Resumes   *Counter // genuine PFC resume transitions
}

// PortCounters registers (or finds) the port instrument set under prefix.
func (r *Registry) PortCounters(prefix string) *PortCounters {
	return &PortCounters{
		TxBytes:   r.Counter(prefix + ".tx_bytes"),
		TxPkts:    r.Counter(prefix + ".tx_pkts"),
		Marks:     r.Counter(prefix + ".marks"),
		BufDrops:  r.Counter(prefix + ".buf_drops"),
		WireDrops: r.Counter(prefix + ".wire_drops"),
		Pauses:    r.Counter(prefix + ".pauses"),
		Resumes:   r.Counter(prefix + ".resumes"),
	}
}

// EndpointCounters are the per-endpoint instruments the DCQCN and TIMELY
// engines register (TIMELY leaves the CNP pair at zero).
type EndpointCounters struct {
	RxBytes   *Counter // payload bytes delivered (in-order under Recovery)
	CNPTx     *Counter // congestion notifications generated (NP role)
	CNPRx     *Counter // congestion notifications received (RP role)
	AcksTx    *Counter // acks emitted by the receiver role
	NacksTx   *Counter // go-back-N gap reports emitted
	RetxPkts  *Counter // retransmitted packets (below the high-water mark)
	RetxBytes *Counter // retransmitted bytes
	RTOs      *Counter // retransmission timeouts fired
}

// EndpointCounters registers (or finds) the endpoint instrument set under
// prefix.
func (r *Registry) EndpointCounters(prefix string) *EndpointCounters {
	return &EndpointCounters{
		RxBytes:   r.Counter(prefix + ".rx_bytes"),
		CNPTx:     r.Counter(prefix + ".cnp_tx"),
		CNPRx:     r.Counter(prefix + ".cnp_rx"),
		AcksTx:    r.Counter(prefix + ".acks_tx"),
		NacksTx:   r.Counter(prefix + ".nacks_tx"),
		RetxPkts:  r.Counter(prefix + ".retx_pkts"),
		RetxBytes: r.Counter(prefix + ".retx_bytes"),
		RTOs:      r.Counter(prefix + ".rtos"),
	}
}
