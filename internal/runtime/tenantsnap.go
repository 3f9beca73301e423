package runtime

import (
	"fmt"

	"adaptivefilters/internal/snapshot"
)

// tenantSnapshotMagic and TenantSnapshotVersion head every single-tenant
// snapshot — the migration primitive of the cluster layer (DESIGN.md §10).
// A tenant snapshot is a node snapshot scoped to one slot: the node
// header's first fields (magic, version, node seed), then the same
// per-tenant record and crc32c trailer but no tenant table, so one tenant
// can leave a node without freezing the rest of the world longer than a
// drain barrier.
const (
	tenantSnapshotMagic = "adaptivefilters/tenant-snapshot"
	// TenantSnapshotVersion is the current single-tenant encoding version,
	// the only one ImportTenant accepts; it moves with SnapshotVersion, whose
	// per-tenant record layout it shares.
	TenantSnapshotVersion = 6
)

// ExportTenant captures a barrier-consistent, versioned encoding of one
// tenant's full state: seed label, event count, the serving backend
// (cluster or composite fabric) and every hosted protocol's dynamic state,
// in exactly the per-tenant record layout node snapshots use. It drains
// first, so the record reflects every event ingested before the call; the
// other tenants stay live and keep their queued work.
//
// The record carries the node seed, and ImportTenant refuses to restore it
// onto a node with a different one: a tenant's future randomness (its own
// resumed RNG positions aside, new query admissions derive seeds from the
// node seed) must not change when placement moves it. The encoding carries
// no placement information — a migrated tenant continues bit-identically on
// any member at any shard count.
//
// Like Snapshot, ExportTenant must be called from the single control-side
// goroutine; its barrier quiesces concurrent ingesters first.
func (n *Node) ExportTenant(ti int) ([]byte, error) {
	n.ingestMu.Lock()
	defer n.ingestMu.Unlock()
	if !n.started || n.stopped {
		return nil, fmt.Errorf("runtime: node not running")
	}
	if ti < 0 || ti >= len(n.tenants) {
		return nil, fmt.Errorf("runtime: no tenant %d", ti)
	}
	t := n.tenants[ti]
	if t == nil {
		return nil, fmt.Errorf("runtime: tenant %d was removed", ti)
	}
	if err := n.drainLocked(); err != nil {
		return nil, err
	}
	if err := quarantined(ti, t); err != nil {
		return nil, err
	}
	w := snapshot.NewWriter()
	w.String(tenantSnapshotMagic)
	w.Uint64(TenantSnapshotVersion)
	w.Int64(n.cfg.Seed)
	if err := writeTenant(w, t); err != nil {
		return nil, fmt.Errorf("runtime: tenant %d (%s): %w", ti, t.name, err)
	}
	if err := w.Err(); err != nil {
		return nil, err
	}
	return seal(w.Bytes()), nil
}

// ImportTenant admits a tenant onto the live node, restoring its state
// from an ExportTenant record instead of running a t0 phase — the receiving
// half of a migration. spec must describe the exported tenant exactly as
// RestoreNode's specs describe a snapshotting node's (same Initial values,
// UplinkLoss and protocol configuration; for a multi-query tenant, one
// QuerySpec per query slot it ever admitted, in admission order). The
// tenant resumes with its recorded seed label, event count, counters and
// RNG positions; fed the events after the export barrier, its trajectory is
// bit-identical to one that never moved. Returns the new local slot id.
//
// Corrupted, truncated or mismatched records return an error and leave the
// node unchanged; decoding never panics. Must be called from the single
// control-side goroutine; its barrier quiesces concurrent ingesters first.
func (n *Node) ImportTenant(spec TenantSpec, data []byte) (int, error) {
	n.ingestMu.Lock()
	defer n.ingestMu.Unlock()
	if !n.started || n.stopped {
		return 0, fmt.Errorf("runtime: node not running")
	}
	r, err := unseal(data, tenantSnapshotMagic, TenantSnapshotVersion, "tenant snapshot")
	if err != nil {
		return 0, err
	}
	seed := r.Int64()
	if err := r.Err(); err != nil {
		return 0, err
	}
	if seed != n.cfg.Seed {
		return 0, fmt.Errorf("runtime: tenant snapshot was taken under node seed %d, this node runs %d",
			seed, n.cfg.Seed)
	}
	if err := n.drainLocked(); err != nil {
		return 0, err
	}
	ti := len(n.tenants)
	t, err := n.readTenant(r, spec, ti, func(seedID int64) error {
		if seedID < 0 {
			return fmt.Errorf("seed label %d is negative", seedID)
		}
		for _, t := range n.tenants {
			if t != nil && t.seedID == seedID {
				return fmt.Errorf("seed label %d already hosts tenant %q", seedID, t.name)
			}
		}
		return nil
	})
	if err == nil {
		err = r.Done()
	}
	if err != nil {
		return 0, fmt.Errorf("runtime: tenant snapshot: %w", err)
	}
	if t.seedID >= n.nextSeedID {
		n.nextSeedID = t.seedID + 1
	}
	// No t0 to run: the next mailbox post publishes the grown tenant
	// table to the shard loops, exactly as AddTenant's barrier protocol does.
	n.tenants = append(n.tenants, t)
	n.publishTable()
	return ti, nil
}
