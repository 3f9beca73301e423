package server

import (
	"fmt"

	"adaptivefilters/internal/comm"
	"adaptivefilters/internal/filter"
	"adaptivefilters/internal/snapshot"
)

// StatefulProtocolOf is a ProtocolOf whose full dynamic state can be
// exported into a snapshot and imported into a freshly constructed instance
// of the same configuration. Every protocol in internal/core implements it,
// in both instantiations; runtime.Node requires it for
// Snapshot/RestoreNode.
//
// The contract mirrors the runtime's restore path: ImportState must be
// called exactly once, on a protocol just built by its constructor (with
// the same query, tolerance and seed as the exporting instance), before any
// Initialize or HandleUpdate. Configuration is deliberately not part of the
// encoding — it lives in the caller's TenantSpec — so a snapshot carries
// only what the constructor cannot recompute.
type StatefulProtocolOf[V any] interface {
	ProtocolOf[V]
	// ExportState appends the protocol's dynamic state to the snapshot.
	ExportState(w *snapshot.Writer)
	// ImportState restores state written by ExportState. It returns an
	// error on corrupted or mismatched input and never panics.
	ImportState(r *snapshot.Reader) error
}

// The two instantiations in use.
type (
	StatefulProtocol        = StatefulProtocolOf[float64]
	SpatialStatefulProtocol = StatefulProtocolOf[filter.Point]
)

// ExportState appends the cluster's full dynamic state to a snapshot: the
// server value table, the message counter, the dropped-update count, any
// queued-but-unhandled updates, and every source's value/constraint/side.
// Export during an in-flight delivery cascade is a programming error; the
// runtime only exports at a drain barrier, where the pending queue is empty
// and no delivery is active.
func (c *ClusterOf[V, C]) ExportState(w *snapshot.Writer) {
	if c.reports.draining {
		panic("server: ExportState during delivery")
	}
	w.Int(c.N())
	var codec C
	w.Int(len(c.table))
	for _, v := range c.table {
		codec.ExportValue(w, v)
	}
	c.ctr.ExportState(w)
	w.Uint64(c.dropped)
	pend := c.reports.pending[c.reports.head:]
	w.Int(len(pend))
	for _, u := range pend {
		w.Int(u.id)
		codec.ExportValue(w, u.v)
	}
	c.sources.ExportState(w)
}

// ImportState restores state written by ExportState into a freshly
// constructed cluster with the same stream count and uplink loss, whose
// position is the restored counter. A NaN value — in the table, the pending
// queue or a source — is refused: restore is a trust boundary, and a NaN
// past it panics the ranking kernel on the next rebuild. It returns an
// error on corrupted or mismatched input and never panics.
func (c *ClusterOf[V, C]) ImportState(r *snapshot.Reader) error {
	var codec C
	n := r.Int()
	tableLen := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if n != c.N() {
		return fmt.Errorf("server: snapshot has %d streams, cluster has %d", n, c.N())
	}
	if tableLen != n {
		return fmt.Errorf("server: snapshot table sized %d, want %d", tableLen, n)
	}
	table := make([]V, n)
	for i := range table {
		table[i] = codec.ImportValue(r)
		if table[i] != table[i] {
			return fmt.Errorf("server: snapshot holds NaN table value for stream %d", i)
		}
	}
	if err := c.importCounter(r, &c.ctr); err != nil {
		return err
	}
	pendLen := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if pendLen < 0 || pendLen > r.Remaining()/16 {
		// Each entry is at least 16 encoded bytes; a length beyond the
		// remaining input is corruption, caught before allocating for it.
		return fmt.Errorf("server: snapshot pending queue length %d exceeds remaining input", pendLen)
	}
	pending := make([]pendingUpdate[V], 0, pendLen)
	for i := 0; i < pendLen; i++ {
		id := r.Int()
		v := codec.ImportValue(r)
		if r.Err() == nil {
			if id < 0 || id >= n {
				return fmt.Errorf("server: snapshot pending update for unknown stream %d", id)
			}
			if v != v {
				return fmt.Errorf("server: snapshot pending update with NaN value for stream %d", id)
			}
		}
		pending = append(pending, pendingUpdate[V]{id: id, v: v})
	}
	if err := r.Err(); err != nil {
		return err
	}
	// All scalars decoded; restore sources last so a failure midway leaves
	// at worst a partially restored cluster that the caller discards.
	copy(c.table, table)
	c.reports = reportQueue[pendingUpdate[V]]{pending: pending}
	if err := c.sources.ImportState(r); err != nil {
		return fmt.Errorf("server: %w", err)
	}
	return r.Err()
}

// importCounter decodes a host's counter (its loss position) and dropped
// count, refusing lost updates bound for a reliable host.
func (u *uplink) importCounter(r *snapshot.Reader, ctr *comm.Counter) error {
	if err := ctr.ImportState(r); err != nil {
		return err
	}
	if u.dropped = r.Uint64(); u.dropped > 0 && u.rate == 0 {
		return fmt.Errorf("server: snapshot has %d lost updates but the host injects no loss", u.dropped)
	}
	return r.Err()
}
