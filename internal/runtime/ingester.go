package runtime

import (
	"fmt"
	"math"
)

// routeRecord is one tenant slot's entry in the routing table: everything an
// ingester needs to validate and route an event without touching the tenant
// itself. n is the slot's stream-partition size, or -1 for an evicted (or
// never-occupied) slot; spatial marks 2-D tenants, whose events may carry a
// Y coordinate.
type routeRecord struct {
	shard   int32
	n       int32
	spatial bool
}

// routingTable is an immutable dense snapshot of the tenant table, indexed
// by tenant id. Ingesters load it through one atomic pointer read per batch;
// the control-side goroutine republishes a fresh table at every lifecycle
// barrier that mutates the tenant set (admission, eviction, import,
// restore), while every shard loop is quiescent and every ingester is held
// out by the quiescence lock — so a published table is never mutated, only
// replaced.
type routingTable struct {
	recs []routeRecord
}

// publishTable rebuilds the routing table from the tenant slice and
// atomically replaces the published one. Call only with the ingest quiescence
// write lock held (or before Start, while no ingester can exist).
func (n *Node) publishTable() {
	recs := make([]routeRecord, len(n.tenants))
	for i, t := range n.tenants {
		if t == nil {
			recs[i] = routeRecord{n: -1}
			continue
		}
		recs[i] = routeRecord{
			shard:   int32(t.shard),
			n:       int32(t.N()),
			spatial: t.kind() == tenantKindSpatial,
		}
	}
	n.table.Store(&routingTable{recs: recs})
}

// Ingester is a per-caller ingest handle: it owns its own per-shard fill
// buffers and validates events against the node's atomically-published
// routing table, so N ingesters on N goroutines route into the per-shard
// work channels concurrently with no lock contention on the hot path (the
// quiescence RLock is uncontended except while a barrier is running).
//
// A single Ingester is not safe for concurrent use — it is a handle for one
// goroutine, and each goroutine should hold its own (NewIngester). Per-tenant
// event order is the order each ingester routes: any schedule where every
// tenant's traffic flows through exactly one ingester is bit-identical to a
// single-caller run, at any shard count and any ingester count. Splitting one
// tenant's traffic across ingesters is safe (no races, no lost events) but
// makes that tenant's interleaving scheduling-dependent — and therefore
// non-deterministic.
type Ingester struct {
	n *Node
	// fill[s] is the pooled buffer this ingester is currently filling for
	// shard s (nil when none) — the per-caller analogue of the old router's
	// node-wide fill slots.
	fill [][]Event
}

// NewIngester returns a fresh ingest handle for one concurrent caller.
// Handles are cheap (one small slice) and need no teardown: an abandoned
// ingester's staged buffers return to the pools on its next error, or are
// dropped with it (the pools self-heal by allocating replacements, and the
// steady state stays allocation-free for however many handles actually
// ingest).
func (n *Node) NewIngester() *Ingester {
	return &Ingester{n: n, fill: make([][]Event, len(n.shards))}
}

// Ingest routes a batch of events to the shard loops: Node.Ingest's contract,
// minus the single-caller restriction. Events are validated and grouped by
// owning shard in one pass over the routing table, with their relative order
// preserved; an error routes nothing. Events are copied into buffers from
// the per-shard pools (allocation-free once warm), so the caller may reuse
// its slice immediately; when a shard's queue and pool are exhausted Ingest
// blocks until that shard frees a buffer. Concurrent batches from other
// ingesters interleave at batch granularity per shard; barriers (Drain,
// lifecycle, snapshots) wait for every in-flight Ingest to finish and hold
// new ones out until the barrier completes.
func (g *Ingester) Ingest(events []Event) error {
	n := g.n
	n.ingestMu.RLock()
	defer n.ingestMu.RUnlock()
	if !n.started || n.stopped {
		return fmt.Errorf("runtime: node not running")
	}
	if err := n.ctx.Err(); err != nil {
		return err
	}
	// One pass over the routing table validates and stages each event. A
	// malformed event would otherwise surface as an index panic inside a
	// shard goroutine, where the caller cannot recover it — so on the first
	// invalid event every staged buffer goes back to its pool and the whole
	// batch is refused.
	recs := n.table.Load().recs
	for _, ev := range events {
		if ev.Tenant < 0 || ev.Tenant >= len(recs) {
			g.unstage()
			return fmt.Errorf("runtime: event for unknown tenant %d", ev.Tenant)
		}
		rec := recs[ev.Tenant]
		if rec.n < 0 {
			g.unstage()
			return fmt.Errorf("runtime: event for removed tenant %d", ev.Tenant)
		}
		if ev.Stream < 0 || int(ev.Stream) >= int(rec.n) {
			g.unstage()
			return fmt.Errorf("runtime: event for unknown stream %d of tenant %d (n=%d)",
				ev.Stream, ev.Tenant, rec.n)
		}
		if math.IsNaN(ev.Value) || math.IsNaN(ev.Y) {
			g.unstage()
			return fmt.Errorf("runtime: event for stream %d of tenant %d carries a NaN value",
				ev.Stream, ev.Tenant)
		}
		if ev.Y != 0 && !rec.spatial {
			g.unstage()
			return fmt.Errorf("runtime: event for stream %d of 1-D tenant %d carries a Y coordinate",
				ev.Stream, ev.Tenant)
		}
		s := rec.shard
		if g.fill[s] == nil {
			buf, err := n.takeBuf(int(s))
			if err != nil {
				return err
			}
			g.fill[s] = buf
		}
		g.fill[s] = append(g.fill[s], ev)
	}
	for s := range n.shards {
		if len(g.fill[s]) == 0 {
			continue
		}
		select {
		case n.shards[s].work <- batch{events: g.fill[s]}:
			g.fill[s] = nil
		case <-n.ctx.Done():
			return n.ctx.Err()
		}
	}
	n.ingested.Add(uint64(len(events)))
	return nil
}

// unstage returns every staged fill buffer to its shard pool — the error
// path's guarantee that a refused batch routes nothing and leaks nothing.
// Buffers are interchangeable (identity never observable), so pool order
// differences on error paths cannot perturb determinism.
func (g *Ingester) unstage() {
	for s, buf := range g.fill {
		if buf == nil {
			continue
		}
		g.fill[s] = nil
		select {
		case g.n.shards[s].free <- buf[:0]:
		default:
			// Pool full — only possible with foreign buffers; drop it.
		}
	}
}

// ShardStat is one shard's observability snapshot: its routed-but-unapplied
// backlog, how many event batches its loop has applied since Start, and how
// many live tenants are pinned to it — enough to tell tenant→shard imbalance
// (one hot shard, idle siblings) from a router bottleneck (all shards
// starving evenly).
type ShardStat struct {
	// Shard is the shard index.
	Shard int
	// Queued is the work-channel depth in batches — a racy snapshot, same
	// caveats as PendingBatches.
	Queued int
	// Applied counts event batches the shard loop has applied (barrier and
	// lifecycle batches excluded).
	Applied uint64
	// Tenants is the number of live tenants pinned to this shard.
	Tenants int
}

// ShardStats returns a per-shard observability snapshot. Safe to call
// concurrently with ingest; the figures are racy snapshots (shard loops
// drain while it reads), which is what a diagnostic wants.
func (n *Node) ShardStats() []ShardStat {
	stats := make([]ShardStat, len(n.shards))
	for s := range n.shards {
		stats[s] = ShardStat{
			Shard:   s,
			Queued:  len(n.shards[s].work),
			Applied: n.shards[s].applied.Load(),
		}
	}
	for _, rec := range n.table.Load().recs {
		if rec.n >= 0 {
			stats[rec.shard].Tenants++
		}
	}
	return stats
}
