package obs

import (
	"fmt"
	"sort"
	"sync"

	"ecndelay/internal/des"
)

// Invariant identifies one of the runtime invariant classes the checker
// enforces.
type Invariant uint8

const (
	// InvConservation: per queue, enqueued bytes == dequeued bytes +
	// bytes currently queued, re-established after every queue event.
	InvConservation Invariant = iota
	// InvQueueBounds: queue length and byte count are never negative, an
	// empty queue holds zero bytes, and a finite queue only exceeds its
	// capacity by the one over-cap packet the admit rule allows.
	InvQueueBounds
	// InvPFCPairing: PFC pause and resume strictly alternate per port.
	InvPFCPairing
	// InvDoubleFree: a pooled packet is never freed twice.
	InvDoubleFree
	numInvariants
)

var invariantNames = [numInvariants]string{
	"conservation", "queue-bounds", "pfc-pairing", "double-free",
}

func (v Invariant) String() string {
	if int(v) < len(invariantNames) {
		return invariantNames[v]
	}
	return "?"
}

// Violation is one detected invariant breach.
type Violation struct {
	T         des.Time
	Invariant Invariant
	Detail    string
}

func (v Violation) String() string {
	return fmt.Sprintf("t=%s %s: %s", v.T, v.Invariant, v.Detail)
}

// maxViolationDetails bounds stored Violation records; the per-invariant
// counts keep counting past it, so a storm is still measured in full.
const maxViolationDetails = 64

type portKey struct {
	run        uint32 // network-instance tag (Event.Run)
	node, peer int32
}

func (k portKey) less(o portKey) bool {
	if k.run != o.run {
		return k.run < o.run
	}
	if k.node != o.node {
		return k.node < o.node
	}
	return k.peer < o.peer
}

// PortBook is one directed port's books inside a Checker: the running
// byte totals and occupancy behind conservation and queue bounds, and the
// PFC state behind pause/resume pairing. A simulator resolves each port's
// book once (Checker.Port) and reports every queue and PFC action through
// it, with no event record and no lookup; Feed reaches the same books by
// key and runs the same methods. A book belongs to the checker that made
// it, and only the goroutine running that checker's networks writes it,
// so an update takes no lock; recording a violation takes the root's.
type PortBook struct {
	c        *Checker
	key      portKey
	enqBytes int64
	deqBytes int64
	qBytes   int64
	qLen     int32
	paused   bool
	// closureFlagged makes the end-of-run closure check idempotent: a
	// checker sees one Finish per run, each auditing every port it owns,
	// and a broken port must count once, not once per subsequent run.
	closureFlagged bool
}

// Checker verifies the runtime invariants. It keeps one PortBook per
// port — keyed by the network instance (Event.Run) plus the owner/peer
// node pair — so one checker covers a whole topology, and successive runs
// on one checker carry distinct run tags, so their identically-numbered
// ports never share books. Real runs bind each port to its book once and
// report through it; Feed takes synthetic event streams (tests, broken
// fixtures) and the portless double-free record. A bound book's updates
// take no lock and allocate nothing.
//
// A checker's books belong to the goroutine that runs its networks, and
// Finish audits them, so concurrent runs share a checker only through
// NetObserver.ForJob copies: each copy carries a child checker that owns
// the books of its job's networks and audits only those, while its
// violations and counts land on the root under the root's lock. Count,
// Total, Violations and Err report the root's totals from any checker of
// the family and are safe for concurrent use.
type Checker struct {
	root  *Checker // holds counts and violations; c itself on a root
	mu    sync.Mutex
	ports map[portKey]*PortBook // guarded by mu; books this checker owns
	// Root only, guarded by mu.
	counts     [numInvariants]int64
	violations []Violation
}

// NewChecker returns a checker with no recorded state.
func NewChecker() *Checker {
	c := &Checker{ports: make(map[portKey]*PortBook)}
	c.root = c
	return c
}

// child returns a checker that owns books of its own and reports to c's
// root: one job's share of a checker (see NetObserver.ForJob).
func (c *Checker) child() *Checker {
	return &Checker{root: c.root, ports: make(map[portKey]*PortBook)}
}

func (c *Checker) violate(t des.Time, inv Invariant, format string, args ...any) {
	r := c.root
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counts[inv]++
	if len(r.violations) < maxViolationDetails {
		r.violations = append(r.violations, Violation{
			T:         t,
			Invariant: inv,
			Detail:    fmt.Sprintf(format, args...),
		})
	}
}

// Port returns the book of the directed port node->peer in network run
// (see Event.Run), creating it on first use. Books are never removed, so
// a port may keep the pointer for the checker's lifetime.
func (c *Checker) Port(run uint32, node, peer int32) *PortBook {
	k := portKey{run: run, node: node, peer: peer}
	c.mu.Lock()
	defer c.mu.Unlock()
	b, ok := c.ports[k]
	if !ok {
		b = &PortBook{c: c, key: k}
		c.ports[k] = b
	}
	return b
}

// Feed runs one event through every invariant: queue and PFC records
// through their port's book, a double free straight to a violation.
func (c *Checker) Feed(e Event) {
	switch e.Type {
	case Enqueue, Dequeue:
		c.Port(e.Run, e.Node, e.Peer).Queue(e.T, e.Type == Enqueue, e.Size, e.QLen, e.QBytes, e.QCap)
	case Pause, Resume:
		c.Port(e.Run, e.Node, e.Peer).PFC(e.T, e.Type == Pause)
	case DoubleFree:
		c.violate(e.T, InvDoubleFree,
			"packet %d (kind %s, flow %d) freed twice", e.Pkt, KindName(e.Kind), e.Flow)
	}
}

// Queue records one enqueue (enq) or dequeue of size bytes at t, then
// checks bounds and running conservation against the queue's own report
// after it: qLen packets and qBytes bytes held, qCap the capacity (0:
// unbounded).
func (b *PortBook) Queue(t des.Time, enq bool, size, qLen int32, qBytes, qCap int64) {
	c, k := b.c, b.key
	if enq {
		b.enqBytes += int64(size)
		b.qBytes += int64(size)
		b.qLen++
	} else {
		b.deqBytes += int64(size)
		b.qBytes -= int64(size)
		b.qLen--
	}
	if qLen < 0 || qBytes < 0 {
		c.violate(t, InvQueueBounds,
			"port %d->%d queue went negative: len=%d bytes=%d", k.node, k.peer, qLen, qBytes)
	}
	if qLen == 0 && qBytes != 0 {
		c.violate(t, InvQueueBounds,
			"port %d->%d empty queue holds %d bytes", k.node, k.peer, qBytes)
	}
	// The admit rule lets the packet that crosses the threshold in: a
	// finite queue may stand above capacity only while that single
	// over-cap packet is its tail.
	if qCap > 0 && qBytes > qCap && qLen > 1 {
		c.violate(t, InvQueueBounds,
			"port %d->%d queue %d bytes exceeds capacity %d with %d packets",
			k.node, k.peer, qBytes, qCap, qLen)
	}
	if b.qBytes != qBytes || b.qLen != qLen {
		c.violate(t, InvConservation,
			"port %d->%d books say len=%d bytes=%d but queue reports len=%d bytes=%d (enq=%d deq=%d)",
			k.node, k.peer, b.qLen, b.qBytes, qLen, qBytes, b.enqBytes, b.deqBytes)
		// Resynchronise the occupancy books so one divergence is one
		// violation, not a storm — but leave the cumulative enq/deq
		// totals truthful, so the end-of-run closure check in Finish
		// still sees the imbalance.
		b.qBytes = qBytes
		b.qLen = qLen
	}
}

// PFC records a genuine pause (true) or resume (false) transition at t
// and checks that pauses and resumes alternate.
func (b *PortBook) PFC(t des.Time, pause bool) {
	switch {
	case pause && b.paused:
		b.c.violate(t, InvPFCPairing,
			"port %d->%d paused twice without an intervening resume", b.key.node, b.key.peer)
	case !pause && !b.paused:
		b.c.violate(t, InvPFCPairing,
			"port %d->%d resumed while not paused", b.key.node, b.key.peer)
	}
	b.paused = pause
}

// Finish runs the end-of-run closure check: for every queue this checker
// owns, enqueued bytes must equal dequeued bytes plus bytes still queued.
// Call it after the simulation completes, from the goroutine that ran it;
// it may be called more than once (once per run) — each broken port is
// flagged exactly once. Broken ports are reported in (run, node, peer)
// order, so the violation list is the same on every rerun.
func (c *Checker) Finish(now des.Time) {
	c.mu.Lock()
	var broken []*PortBook
	for _, b := range c.ports {
		if !b.closureFlagged && b.enqBytes != b.deqBytes+b.qBytes {
			broken = append(broken, b)
		}
	}
	c.mu.Unlock()
	sort.Slice(broken, func(i, j int) bool { return broken[i].key.less(broken[j].key) })
	for _, b := range broken {
		b.closureFlagged = true
		c.violate(now, InvConservation,
			"port %d->%d (run %d) conservation broken at end of run: enq=%d deq=%d queued=%d",
			b.key.node, b.key.peer, b.key.run, b.enqBytes, b.deqBytes, b.qBytes)
	}
}

// Count reports how many violations of one invariant were detected.
func (c *Checker) Count(inv Invariant) int64 {
	r := c.root
	r.mu.Lock()
	defer r.mu.Unlock()
	if int(inv) >= len(r.counts) {
		return 0
	}
	return r.counts[inv]
}

// Total reports the number of violations across all invariants.
func (c *Checker) Total() int64 {
	r := c.root
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total()
}

// total is Total on a root, with its mutex held.
func (c *Checker) total() int64 {
	var n int64
	for _, v := range c.counts {
		n += v
	}
	return n
}

// Violations returns the stored violation records (capped at
// maxViolationDetails; Total keeps the true count).
func (c *Checker) Violations() []Violation {
	r := c.root
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Violation(nil), r.violations...)
}

// Err returns nil when no invariant fired, or an error summarising the
// first violation and the total count.
func (c *Checker) Err() error {
	r := c.root
	r.mu.Lock()
	defer r.mu.Unlock()
	total := r.total()
	if total == 0 {
		return nil
	}
	return fmt.Errorf("obs: %d invariant violation(s), first: %s", total, r.violations[0])
}
