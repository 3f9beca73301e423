package runtime

import (
	"sync"
	"sync/atomic"
)

// record is one routed event as a mailbox stores it: 16 bytes. The tenant
// and stream were range-checked against the routing table (whose partition
// sizes are int32), and a planar event's Y rides in the mailbox's side
// array, so a 1-D event carries no Y at all.
type record struct {
	tenant int32
	stream int32
	value  float64
}

// packed is a run of routed events in mailbox form: the records in posting
// order and, in the same order, the Y of each planar one. Staging slices,
// inboxes and the loops' loads are all this one shape, so the side array
// is appended, swapped and emptied together with its records.
type packed struct {
	recs []record
	ys   []float64
}

// emptied returns p with its storage kept and nothing in it.
func (p packed) emptied() packed { return packed{p.recs[:0], p.ys[:0]} }

// control is a message to the shard loop itself: a lifecycle
// initialization (a tenant or query admission's t0, run on the owning
// loop, which quarantines owner if it panics), a barrier acknowledgement,
// or both.
type control struct {
	init  func()
	owner *tenant
	ack   chan<- struct{}
}

// load is what one swap hands the shard loop, in the loop's own slices:
// the events of `batches` routed batches and the controls posted behind
// them.
type load struct {
	packed
	ctl     []control
	batches int
}

// mailbox is a shard's whole ingress: one mutex, an inbox the ingesters
// append to, and a control queue. The loop swaps its spent slices for the
// inbox each time it has applied what it took, so two sets of slices
// alternate forever and the backlog is bounded in events — capacity
// waiting plus at most that again being applied — whatever the size of the
// Ingest calls that fill it (DESIGN.md §5.1).
//
// Per-shard order is the order of appends under mu. Controls are posted
// under the ingestMu write side, so no event can arrive between a control
// and its acknowledgement: a swap's events were all posted before its
// controls, and the loop runs them in that order.
type mailbox struct {
	mu  sync.Mutex
	in  packed
	ctl []control
	// batches counts the routed batches in the inbox — ShardStat.Queued,
	// and on the swap the loop's increment of applied.
	batches  int
	capacity int
	// closed is set once by the node's cancellation hook: the loop exits at
	// its next swap and every post is refused.
	closed bool
	// The loop waits on work while inbox and control queue are both empty;
	// ingesters wait on room while the inbox is at capacity. A post signals
	// work, a swap broadcasts room — every blocked ingester is woken once
	// per swap — and either is two atomic loads when nobody is waiting.
	work, room sync.Cond

	// depth mirrors len(in.recs) for PendingEvents, which must not contend for mu.
	depth atomic.Int64
	// applied counts the routed batches the loop has applied —
	// ShardStat.Applied (controls excluded).
	applied atomic.Uint64
}

func (m *mailbox) init(capacity int) {
	m.capacity = capacity
	m.work.L, m.room.L = &m.mu, &m.mu
}

// post appends one routed batch to the inbox, waiting while the inbox is
// at capacity. A batch is admitted whenever the inbox holds fewer events
// than capacity and is never split, so the inbox overshoots by at most one
// batch. It reports false, having appended nothing, once the mailbox is
// closed.
func (m *mailbox) post(p packed) bool {
	m.mu.Lock()
	for len(m.in.recs) >= m.capacity && !m.closed {
		m.room.Wait()
	}
	if m.closed {
		m.mu.Unlock()
		return false
	}
	m.in.recs = append(m.in.recs, p.recs...)
	m.in.ys = append(m.in.ys, p.ys...)
	m.batches++
	m.depth.Store(int64(len(m.in.recs)))
	m.mu.Unlock()
	m.work.Signal()
	return true
}

// postControl queues c behind every event posted so far. It never waits:
// the control queue holds at most the one message a barrier has in flight.
func (m *mailbox) postControl(c control) {
	m.mu.Lock()
	m.ctl = append(m.ctl, c)
	m.mu.Unlock()
	m.work.Signal()
}

// swap hands the loop everything posted since its last swap, in exchange
// for the slices of the load it has finished with, parking while there is
// nothing to take. It reports false once the mailbox is closed; whatever
// was still queued is dropped.
func (m *mailbox) swap(l *load) bool {
	m.mu.Lock()
	for len(m.in.recs) == 0 && len(m.ctl) == 0 && !m.closed {
		m.work.Wait()
	}
	if m.closed {
		m.mu.Unlock()
		return false
	}
	l.packed, m.in = m.in, l.packed.emptied()
	l.ctl, m.ctl = m.ctl, l.ctl[:0]
	l.batches, m.batches = m.batches, 0
	m.depth.Store(0)
	m.mu.Unlock()
	m.room.Broadcast()
	return true
}

// close refuses further posts and releases the loop and every blocked
// ingester.
func (m *mailbox) close() {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	m.work.Broadcast()
	m.room.Broadcast()
}

// queued returns the routed batches waiting in the inbox.
func (m *mailbox) queued() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.batches
}
