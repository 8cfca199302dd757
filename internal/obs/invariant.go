package obs

import (
	"fmt"
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

type portState struct {
	enqBytes int64
	deqBytes int64
	qBytes   int64
	qLen     int32
	paused   bool
	sawPFC   bool
	// closureFlagged makes the end-of-run closure check idempotent: a
	// shared checker sees one Finish per run, each auditing every port
	// recorded so far, and a broken port must count once, not once per
	// subsequent run.
	closureFlagged bool
}

// Checker consumes the trace event stream and verifies the runtime
// invariants. It keeps independent state per port — keyed by the network
// instance (Event.Run) plus the owner/peer node pair — so one checker
// covers a whole topology, and one shared checker covers many networks:
// concurrent sweep jobs and successive runs inside one job all carry
// distinct run tags, so their identically-numbered ports never share
// books. Feed is public so tests can push synthetic event streams at
// broken fixtures; real runs feed it through NetObserver.Emit. All methods
// are safe for concurrent use; per-port map entries are created on first
// touch, so steady-state checking allocates nothing.
type Checker struct {
	mu         sync.Mutex
	ports      map[portKey]*portState
	counts     [numInvariants]int64
	violations []Violation
}

// NewChecker returns a checker with no recorded state.
func NewChecker() *Checker {
	return &Checker{ports: make(map[portKey]*portState)}
}

func (c *Checker) violate(t des.Time, inv Invariant, format string, args ...any) {
	c.counts[inv]++
	if len(c.violations) < maxViolationDetails {
		c.violations = append(c.violations, Violation{
			T:         t,
			Invariant: inv,
			Detail:    fmt.Sprintf(format, args...),
		})
	}
}

func (c *Checker) port(e Event) *portState {
	k := portKey{run: e.Run, node: e.Node, peer: e.Peer}
	ps, ok := c.ports[k]
	if !ok {
		ps = &portState{}
		c.ports[k] = ps
	}
	return ps
}

// Feed runs one event through every invariant.
func (c *Checker) Feed(e Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch e.Type {
	case Enqueue:
		ps := c.port(e)
		ps.enqBytes += int64(e.Size)
		ps.qBytes += int64(e.Size)
		ps.qLen++
		c.checkQueue(e, ps)
	case Dequeue:
		ps := c.port(e)
		ps.deqBytes += int64(e.Size)
		ps.qBytes -= int64(e.Size)
		ps.qLen--
		c.checkQueue(e, ps)
	case Pause:
		ps := c.port(e)
		if ps.sawPFC && ps.paused {
			c.violate(e.T, InvPFCPairing,
				"port %d->%d paused twice without an intervening resume", e.Node, e.Peer)
		}
		ps.paused = true
		ps.sawPFC = true
	case Resume:
		ps := c.port(e)
		if !ps.sawPFC || !ps.paused {
			c.violate(e.T, InvPFCPairing,
				"port %d->%d resumed while not paused", e.Node, e.Peer)
		}
		ps.paused = false
		ps.sawPFC = true
	case DoubleFree:
		c.violate(e.T, InvDoubleFree,
			"packet %d (kind %s, flow %d) freed twice", e.Pkt, KindName(e.Kind), e.Flow)
	}
}

// checkQueue verifies bounds and running conservation against the queue's
// self-reported occupancy after the event. Called with c.mu held.
func (c *Checker) checkQueue(e Event, ps *portState) {
	if e.QLen < 0 || e.QBytes < 0 {
		c.violate(e.T, InvQueueBounds,
			"port %d->%d queue went negative: len=%d bytes=%d", e.Node, e.Peer, e.QLen, e.QBytes)
	}
	if e.QLen == 0 && e.QBytes != 0 {
		c.violate(e.T, InvQueueBounds,
			"port %d->%d empty queue holds %d bytes", e.Node, e.Peer, e.QBytes)
	}
	// The admit rule lets the packet that crosses the threshold in: a
	// finite queue may stand above capacity only while that single
	// over-cap packet is its tail.
	if e.QCap > 0 && e.QBytes > e.QCap && e.QLen > 1 {
		c.violate(e.T, InvQueueBounds,
			"port %d->%d queue %d bytes exceeds capacity %d with %d packets",
			e.Node, e.Peer, e.QBytes, e.QCap, e.QLen)
	}
	if ps.qBytes != e.QBytes || ps.qLen != e.QLen {
		c.violate(e.T, InvConservation,
			"port %d->%d books say len=%d bytes=%d but queue reports len=%d bytes=%d (enq=%d deq=%d)",
			e.Node, e.Peer, ps.qLen, ps.qBytes, e.QLen, e.QBytes, ps.enqBytes, ps.deqBytes)
		// Resynchronise the occupancy books so one divergence is one
		// violation, not a storm — but leave the cumulative enq/deq
		// totals truthful, so the end-of-run closure check in Finish
		// still sees the imbalance.
		ps.qBytes = e.QBytes
		ps.qLen = e.QLen
	}
}

// Finish runs the end-of-run closure check: for every queue, enqueued
// bytes must equal dequeued bytes plus bytes still queued. Call it after
// the simulation completes; it may be called more than once (on a shared
// checker, once per run) — each broken port is flagged exactly once.
func (c *Checker) Finish(now des.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, ps := range c.ports {
		if !ps.closureFlagged && ps.enqBytes != ps.deqBytes+ps.qBytes {
			ps.closureFlagged = true
			c.violate(now, InvConservation,
				"port %d->%d (run %d) conservation broken at end of run: enq=%d deq=%d queued=%d",
				k.node, k.peer, k.run, ps.enqBytes, ps.deqBytes, ps.qBytes)
		}
	}
}

// Count reports how many violations of one invariant were detected.
func (c *Checker) Count(inv Invariant) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if int(inv) >= len(c.counts) {
		return 0
	}
	return c.counts[inv]
}

// Total reports the number of violations across all invariants.
func (c *Checker) Total() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var n int64
	for _, v := range c.counts {
		n += v
	}
	return n
}

// Violations returns the stored violation records (capped at
// maxViolationDetails; Total keeps the true count).
func (c *Checker) Violations() []Violation {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Violation(nil), c.violations...)
}

// Err returns nil when no invariant fired, or an error summarising the
// first violation and the total count.
func (c *Checker) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var total int64
	for _, v := range c.counts {
		total += v
	}
	if total == 0 {
		return nil
	}
	return fmt.Errorf("obs: %d invariant violation(s), first: %s", total, c.violations[0])
}
