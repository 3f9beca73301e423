package runtime

import (
	"fmt"
	"math"
)

// routeRecord is one tenant slot's entry in the routing table: everything an
// ingester needs to validate and route an event without touching the tenant
// itself. n is the slot's stream-partition size, or -1 for a slot that
// refuses events: an evicted (or never-occupied) one, or, with quarantined
// set, a quarantined tenant's. spatial marks 2-D tenants, whose events may
// carry a Y coordinate.
type routeRecord struct {
	shard       int32
	n           int32
	spatial     bool
	quarantined bool
}

// routingTable is an immutable dense snapshot of the tenant table, indexed
// by tenant id. Ingesters load it through one atomic pointer read per batch;
// the control-side goroutine republishes a fresh table at every lifecycle
// barrier that mutates the tenant set (admission, eviction, import,
// restore), while every shard loop is quiescent and every ingester is held
// out by the quiescence lock, and a shard loop republishes it when it
// quarantines a tenant — so a published table is never mutated, only
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
		recs[i] = route(t)
	}
	n.table.Store(&routingTable{recs: recs})
}

// route returns live tenant t's routing record.
func route(t *tenant) routeRecord {
	if t.fault != "" {
		return routeRecord{shard: int32(t.shard), n: -1, quarantined: true}
	}
	return routeRecord{
		shard:   int32(t.shard),
		n:       int32(t.N()),
		spatial: t.kind() == tenantKindSpatial,
	}
}

// Ingester is a per-caller ingest handle: it owns its own per-shard staging
// slices and validates events against the node's atomically-published
// routing table, so N ingesters on N goroutines convert and group their
// batches concurrently and meet only at the mailbox locks, one short
// append per shard per batch (the quiescence RLock is uncontended except
// while a barrier is running).
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
	// stage[s] is the part of the batch being routed that belongs to shard
	// s, already in mailbox form; empty between Ingest calls. Converting
	// here keeps the mailbox lock down to one copy.
	stage []packed
}

// NewIngester returns a fresh ingest handle for one concurrent caller.
// Handles are cheap and need no teardown: the staging slices grow to the
// caller's largest batch and die with the handle.
func (n *Node) NewIngester() *Ingester {
	return &Ingester{n: n, stage: make([]packed, len(n.shards))}
}

// Ingest routes a batch of events to the shard loops: Node.Ingest's contract,
// minus the single-caller restriction. Events are validated and grouped by
// owning shard in one pass over the routing table, with their relative order
// preserved; an error routes nothing. Events are copied into the shard
// mailboxes (allocation-free once warm), so the caller may reuse its slice
// immediately; while a shard's mailbox holds its capacity in events Ingest
// blocks until that shard's loop swaps it out, or returns the context's
// error if the node shuts down first. Concurrent batches from other
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
	// Whatever happens below, the handle's staging is empty when it returns.
	defer g.unstage()
	// One pass over the routing table validates and stages each event. A
	// malformed event would otherwise surface as an index panic inside a
	// shard goroutine, where the caller cannot recover it — so on the first
	// invalid event the whole batch is refused, before any of it is posted.
	recs := n.table.Load().recs
	for _, ev := range events {
		if ev.Tenant < 0 || ev.Tenant >= len(recs) {
			return fmt.Errorf("runtime: event for unknown tenant %d", ev.Tenant)
		}
		rec := recs[ev.Tenant]
		if rec.n < 0 {
			if rec.quarantined {
				return quarantined(ev.Tenant, n.tenants[ev.Tenant])
			}
			return fmt.Errorf("runtime: event for removed tenant %d", ev.Tenant)
		}
		if ev.Stream < 0 || int(ev.Stream) >= int(rec.n) {
			return fmt.Errorf("runtime: event for unknown stream %d of tenant %d (n=%d)",
				ev.Stream, ev.Tenant, rec.n)
		}
		if math.IsNaN(ev.Value) || math.IsNaN(ev.Y) {
			return fmt.Errorf("runtime: event for stream %d of tenant %d carries a NaN value",
				ev.Stream, ev.Tenant)
		}
		if ev.Y != 0 && !rec.spatial {
			return fmt.Errorf("runtime: event for stream %d of 1-D tenant %d carries a Y coordinate",
				ev.Stream, ev.Tenant)
		}
		st := &g.stage[rec.shard]
		st.recs = append(st.recs, record{tenant: int32(ev.Tenant), stream: int32(ev.Stream), value: ev.Value})
		if rec.spatial {
			st.ys = append(st.ys, ev.Y)
		}
	}
	for s, st := range g.stage {
		if len(st.recs) > 0 && !n.shards[s].post(st) {
			return n.ctx.Err()
		}
	}
	n.ingested.Add(uint64(len(events)))
	return nil
}

// unstage empties the handle's staging slices, keeping their storage.
func (g *Ingester) unstage() {
	for s, st := range g.stage {
		g.stage[s] = st.emptied()
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
	// Queued is the number of routed batches waiting in the shard's mailbox
	// (a batch is one Ingest call's share for this shard) — a racy snapshot,
	// same caveats as PendingEvents.
	Queued int
	// Applied counts the routed batches the shard loop has applied (barrier
	// and lifecycle messages excluded), so Applied + Queued is the number
	// routed, give or take the swap in progress.
	Applied uint64
	// Tenants is the number of live tenants pinned to this shard,
	// quarantined ones included.
	Tenants int
	// Quarantined is the number of those a panic has quarantined.
	Quarantined int
}

// ShardStats returns a per-shard observability snapshot. Safe to call
// concurrently with ingest; the figures are racy snapshots (shard loops
// drain while it reads), which is what a diagnostic wants.
func (n *Node) ShardStats() []ShardStat {
	stats := make([]ShardStat, len(n.shards))
	for s := range n.shards {
		stats[s] = ShardStat{
			Shard:   s,
			Queued:  n.shards[s].queued(),
			Applied: n.shards[s].applied.Load(),
		}
	}
	for _, rec := range n.table.Load().recs {
		if rec.quarantined {
			stats[rec.shard].Quarantined++
		}
		if rec.n >= 0 || rec.quarantined {
			stats[rec.shard].Tenants++
		}
	}
	return stats
}
