// Package cluster scales the serving runtime past one node: several
// runtime.Nodes — in-process or behind netserve endpoints — under a
// consistent-hash tenant placement map, a router that forwards ingest and
// lifecycle traffic to the owning member, live tenant migration, and a
// load-driven rebalancer (DESIGN.md §10).
//
// # Determinism
//
// The invariant PRs 2–5 pinned for shards lifts to nodes: a cluster's
// per-tenant answers and counters are bit-identical to a single node
// hosting every tenant, regardless of placement and migration history.
// Three disciplines carry it:
//
//   - Seed labels are global. Tenant g's randomness derives from
//     (cluster seed, g) via the runtime's labeled admission, never from
//     the hosting member's local admission counter.
//   - Per-tenant event order is routing-invariant: a tenant lives on
//     exactly one member, the router preserves arrival order within each
//     member batch, and migrations only happen between batches.
//   - Migration is a barrier: drain source → ExportTenant (versioned,
//     crc-guarded, placement-free bytes) → ImportTenant on the target →
//     cutover in the placement map → evict the source copy. The router is
//     single-caller, so no event can be in flight across the cut.
//
// Every member must run the same node seed (runtime.Config.Seed);
// ImportTenant enforces it at restore time.
package cluster

import (
	"fmt"

	"adaptivefilters/internal/runtime"
	"adaptivefilters/internal/wire"
)

// Config tunes a Cluster.
type Config struct {
	// Place, when set, overrides the ring for initial placement: tenant g
	// is admitted on member Place(g). Out-of-range returns fall back to
	// the ring. Property tests use it to randomize placements; production
	// leaves it nil.
	Place func(tenant int64) int
}

// entry is one global tenant slot's placement record.
type entry struct {
	// spec is the tenant's declarative description, grown by every
	// AddQuery so a migration can always rebuild the tenant (one
	// QuerySpec per query slot ever admitted, in admission order).
	spec   wire.TenantSpec
	member int
	slot   int // member-local slot id
	alive  bool
	// events counts events routed to this tenant — the rebalancer's
	// per-tenant weight.
	events uint64
}

// Cluster is the placement map and router. Like runtime.Node, it must be
// driven from a single goroutine; the concurrency lives inside the
// members.
type Cluster struct {
	cfg     Config
	members []Member
	ring    *Ring
	// tenants is indexed by global tenant id. Slots are never reused —
	// the same discipline as the runtime's, so global ids stay unambiguous
	// and double as seed labels.
	tenants []entry
	// route holds per-member batch buffers, reused across Ingest calls.
	route [][]runtime.Event
}

// New builds a cluster over started members. Members must all serve the
// same runtime seed; the cluster starts with no tenants.
func New(cfg Config, members []Member) (*Cluster, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("cluster: need at least one member")
	}
	return &Cluster{
		cfg:     cfg,
		members: members,
		ring:    NewRing(len(members), DefaultReplicas),
		route:   make([][]runtime.Event, len(members)),
	}, nil
}

// NumMembers returns the member count.
func (c *Cluster) NumMembers() int { return len(c.members) }

// NumTenants returns the global tenant slot count, evicted slots included.
func (c *Cluster) NumTenants() int { return len(c.tenants) }

// Alive reports whether global tenant g currently exists.
func (c *Cluster) Alive(g int) bool {
	return g >= 0 && g < len(c.tenants) && c.tenants[g].alive
}

// MemberOf returns the member currently hosting global tenant g.
func (c *Cluster) MemberOf(g int) (int, error) {
	if !c.Alive(g) {
		return 0, fmt.Errorf("cluster: no live tenant %d", g)
	}
	return c.tenants[g].member, nil
}

// place picks tenant g's initial member.
func (c *Cluster) place(g int64) int {
	if c.cfg.Place != nil {
		if m := c.cfg.Place(g); m >= 0 && m < len(c.members) {
			return m
		}
	}
	return c.ring.Owner(g)
}

// AddTenant admits a tenant cluster-wide and returns its global id. The
// consistent-hash ring (or Config.Place) picks the hosting member; the
// admission rides the member's own drain-barrier machinery under the
// global seed label, so the tenant's trajectory is the one a single node
// would produce at the same admission rank.
func (c *Cluster) AddTenant(spec wire.TenantSpec) (int, error) {
	g := len(c.tenants)
	if spec.Name == "" {
		// Default the name here, where the global slot is known — a member
		// would bake in its local slot instead, leaking placement into the
		// report.
		spec.Name = fmt.Sprintf("tenant-%d", g)
	}
	m := c.place(int64(g))
	rep, err := c.members[m].Do(wire.Request{Op: wire.OpAddTenantLabeled, Tenant: spec, Label: int64(g)})
	if err != nil {
		return 0, err
	}
	c.tenants = append(c.tenants, entry{spec: spec, member: m, slot: int(rep.Value), alive: true})
	return g, nil
}

// RemoveTenant evicts global tenant g. Its slot (and seed label) is never
// reused.
func (c *Cluster) RemoveTenant(g int) error {
	if !c.Alive(g) {
		return fmt.Errorf("cluster: no live tenant %d", g)
	}
	e := &c.tenants[g]
	if _, err := c.members[e.member].Do(wire.Request{Op: wire.OpRemoveTenant, TI: e.slot}); err != nil {
		return err
	}
	e.alive = false
	return nil
}

// AddQuery admits a standing query onto multi-query tenant g and returns
// its query slot. The spec is recorded so migrations can rebuild the
// tenant's full query-slot history.
func (c *Cluster) AddQuery(g int, q wire.QuerySpec) (int, error) {
	if !c.Alive(g) {
		return 0, fmt.Errorf("cluster: no live tenant %d", g)
	}
	e := &c.tenants[g]
	rep, err := c.members[e.member].Do(wire.Request{Op: wire.OpAddQuery, TI: e.slot, Query: q})
	if err != nil {
		return 0, err
	}
	e.spec.Queries = append(e.spec.Queries, q)
	return int(rep.Value), nil
}

// RemoveQuery evicts query slot qi of tenant g. The slot's spec stays in
// the migration record — restore rebuilds removed slots as removed.
func (c *Cluster) RemoveQuery(g, qi int) error {
	if !c.Alive(g) {
		return fmt.Errorf("cluster: no live tenant %d", g)
	}
	e := &c.tenants[g]
	_, err := c.members[e.member].Do(wire.Request{Op: wire.OpRemoveQuery, TI: e.slot, QI: qi})
	return err
}

// Ingest routes one batch to the owning members. Events carry global
// tenant ids; relative order is preserved within each member's sub-batch,
// and a tenant lives on exactly one member, so per-tenant order is exactly
// arrival order — the same argument the runtime makes for shards.
func (c *Cluster) Ingest(events []runtime.Event) error {
	// Validate before routing anything, so an error applies no partial
	// batch (stream ids and values are the member node's to check).
	for i := range events {
		if !c.Alive(events[i].Tenant) {
			return fmt.Errorf("cluster: event for unknown tenant %d", events[i].Tenant)
		}
	}
	for i := range events {
		e := &c.tenants[events[i].Tenant]
		ev := events[i]
		ev.Tenant = e.slot
		c.route[e.member] = append(c.route[e.member], ev)
		e.events++
	}
	for m, batch := range c.route {
		if len(batch) == 0 {
			continue
		}
		err := c.members[m].Ingest(batch)
		c.route[m] = batch[:0]
		if err != nil {
			return fmt.Errorf("cluster: member %d: %w", m, err)
		}
	}
	return nil
}

// Drain barriers every member: after it returns, all routed events are
// applied and member state is quiescent.
func (c *Cluster) Drain() error { return c.doAll(wire.Request{Op: wire.OpDrain}, nil) }

// doAll runs req on every member in turn, handing each reply to each when
// it is set; it stops at the first refusal.
func (c *Cluster) doAll(req wire.Request, each func(m int, rep wire.Reply)) error {
	for m, mem := range c.members {
		rep, err := mem.Do(req)
		if err != nil {
			return fmt.Errorf("cluster: member %d: %w", m, err)
		}
		if each != nil {
			each(m, rep)
		}
	}
	return nil
}

// Report assembles the cluster-wide runtime.Report in global tenant
// order: one entry per global slot, counters and totals merged exactly as
// a single node would. It drains every member first, so the report is a
// barrier-consistent snapshot; its Text rendering is byte-identical to
// the single-node reference for the same workload.
func (c *Cluster) Report() (*runtime.Report, error) {
	if err := c.Drain(); err != nil {
		return nil, err
	}
	reps := make([]*runtime.Report, len(c.members))
	if err := c.doAll(wire.Request{Op: wire.OpReport}, func(m int, rep wire.Reply) { reps[m] = rep.Report }); err != nil {
		return nil, err
	}
	out := &runtime.Report{Tenants: make([]runtime.TenantReport, len(c.tenants))}
	for g := range c.tenants {
		e := &c.tenants[g]
		if !e.alive {
			continue
		}
		rep := reps[e.member]
		if e.slot >= len(rep.Tenants) || !rep.Tenants[e.slot].Alive {
			return nil, fmt.Errorf("cluster: tenant %d missing from member %d's report (slot %d)",
				g, e.member, e.slot)
		}
		out.Tenants[g] = rep.Tenants[e.slot]
	}
	// Totals come from the member reports, not from re-summing the
	// per-tenant counters above: a node's report copies each tenant's
	// counter before extracting its answer but computes totals after, so
	// answer-extraction serverOps land in Totals only. Every live tenant
	// lives on exactly one member, so the member totals partition the
	// cluster totals exactly — bit-identical to the single-node rendering.
	for _, rep := range reps {
		out.Totals.Merge(&rep.Totals)
	}
	return out, nil
}

// MigrateTenant moves global tenant g to member target: drain-barrier →
// snapshot-on-source → restore-on-target → cutover → evict the source
// copy. The cluster's single-caller contract is what makes the cut atomic
// with respect to ingest — no batch is in flight while this runs, so
// events are simply buffered behind the router until the move completes
// (remote members under independent load still shed visibly per the
// netserve backpressure rules).
//
// Failure before the cutover leaves the tenant on its source, untouched.
// If the source eviction fails after the cutover, the placement map
// already points at the target (the authoritative copy) and the error
// reports the orphaned source slot.
func (c *Cluster) MigrateTenant(g, target int) error {
	if !c.Alive(g) {
		return fmt.Errorf("cluster: no live tenant %d", g)
	}
	if target < 0 || target >= len(c.members) {
		return fmt.Errorf("cluster: no member %d", target)
	}
	e := &c.tenants[g]
	if e.member == target {
		return nil
	}
	src := c.members[e.member]
	exp, err := src.Do(wire.Request{Op: wire.OpExportTenant, TI: e.slot})
	if err != nil {
		return fmt.Errorf("cluster: export tenant %d from member %d: %w", g, e.member, err)
	}
	imp, err := c.members[target].Do(wire.Request{Op: wire.OpImportTenant, Tenant: e.spec, Snap: exp.Snap})
	if err != nil {
		return fmt.Errorf("cluster: import tenant %d on member %d: %w", g, target, err)
	}
	oldMember, oldSlot := e.member, e.slot
	e.member, e.slot = target, int(imp.Value)
	if _, err := src.Do(wire.Request{Op: wire.OpRemoveTenant, TI: oldSlot}); err != nil {
		return fmt.Errorf("cluster: tenant %d cut over to member %d, but evicting source copy (member %d slot %d) failed: %w",
			g, target, oldMember, oldSlot, err)
	}
	return nil
}

// MemberStats returns every member's load figures, indexed by member.
func (c *Cluster) MemberStats() ([]wire.Stats, error) {
	stats := make([]wire.Stats, len(c.members))
	if err := c.doAll(wire.Request{Op: wire.OpStats}, func(m int, rep wire.Reply) { stats[m] = rep.Stats }); err != nil {
		return nil, err
	}
	return stats, nil
}
