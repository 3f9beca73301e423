package server

import (
	"fmt"

	"adaptivefilters/internal/filter"
	"adaptivefilters/internal/snapshot"
)

// QueryFactory rebuilds one query slot's protocol during Composite
// ImportState: slot is the query's slot id, name and seedID are what the
// snapshot recorded for it, and h is the slot's Host view. The factory
// derives the protocol's seed from seedID exactly as it did at admission
// time, so the restored protocol resumes the same randomness stream.
type QueryFactory func(slot int, name string, seedID int64, h Host) (Protocol, error)

// ExportState appends the composite fabric's full dynamic state to a
// snapshot: ground truth, the shared table, every stream's constraint
// vector and recorded sides, the shared counter, and every query slot
// (liveness, name, seed label, protocol name and the protocol's own state).
// The encoding is canonical and placement-free, so CI can byte-diff
// composite snapshots taken at different shard counts. Every live query's
// protocol must implement StatefulProtocol; one that does not fails the
// Writer (sticky), never panics.
func (c *Composite) ExportState(w *snapshot.Writer) {
	w.Int(c.N())
	w.Int(len(c.queries))
	w.Float64s(c.vals)
	w.Float64s(c.table)
	w.Bools(c.known)
	for s := range c.cons {
		filter.ExportConstraints(w, c.cons[s])
		// The bytes of w.Bools over one bool per slot.
		w.Uint64(uint64(len(c.queries)))
		for qi := range c.queries {
			w.Bool(c.inside[s].has(qi))
		}
	}
	c.ctr.ExportState(w)
	for qi, q := range c.queries {
		w.Bool(q != nil)
		if q == nil {
			continue
		}
		sp, ok := q.proto.(StatefulProtocol)
		if !ok {
			w.Fail(fmt.Errorf("server: query %d (%s) protocol %q does not support snapshots",
				qi, q.name, q.proto.Name()))
			return
		}
		w.String(q.name)
		w.Int64(q.seedID)
		w.String(q.proto.Name())
		sp.ExportState(w)
	}
}

// ImportState restores state written by ExportState into a freshly
// constructed, still query-less Composite over the same stream count.
// rebuild is called once per live slot, in slot order, to reconstruct its
// protocol; the protocol's Name is cross-checked against the snapshot (so
// configuration drift is an error, not silent divergence) before its own
// ImportState runs. Corrupted or mismatched input returns an error and
// never panics.
func (c *Composite) ImportState(r *snapshot.Reader, rebuild QueryFactory) error {
	if len(c.queries) != 0 {
		return fmt.Errorf("server: ImportState on a composite that already has queries")
	}
	n := r.Int()
	slots := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if n != c.N() {
		return fmt.Errorf("server: snapshot has %d streams, composite has %d", n, c.N())
	}
	// Each slot encodes at least its liveness byte; a count beyond the
	// remaining input is corruption, caught before any per-slot work.
	if slots < 0 || slots > r.Remaining() {
		return fmt.Errorf("server: snapshot query slot count %d exceeds remaining input", slots)
	}
	vals := r.Float64s()
	table := r.Float64s()
	known := r.Bools()
	if err := r.Err(); err != nil {
		return err
	}
	if len(vals) != n || len(table) != n || len(known) != n {
		return fmt.Errorf("server: snapshot tables sized %d/%d/%d, want %d",
			len(vals), len(table), len(known), n)
	}
	cons := make([][]filter.Constraint, n)
	inside := make([]slotSet, n)
	for s := 0; s < n; s++ {
		cs, err := filter.ImportConstraints(r)
		if err != nil {
			return err
		}
		ins := r.Bools()
		if err := r.Err(); err != nil {
			return err
		}
		if len(cs) != slots || len(ins) != slots {
			return fmt.Errorf("server: snapshot stream %d holds %d/%d filter entries, want %d",
				s, len(cs), len(ins), slots)
		}
		cons[s] = cs
		inside[s] = make(slotSet, words(slots))
		for qi, in := range ins {
			inside[s].put(qi, in)
		}
	}
	if err := c.ctr.ImportState(r); err != nil {
		return err
	}
	// Fabric state installed before the slots are rebuilt, so protocol
	// factories and ImportState observe the restored table through the Host.
	c.vals = vals
	c.table = table
	c.known = known
	c.cons = cons
	c.inside = inside
	c.drivenMask, c.othersMask = make(slotSet, words(slots)), make(slotSet, words(slots))
	for slot := 0; slot < slots; slot++ {
		alive := r.Bool()
		if err := r.Err(); err != nil {
			return err
		}
		if !alive {
			c.queries = append(c.queries, nil)
			continue
		}
		name := r.String()
		seedID := r.Int64()
		protoName := r.String()
		if err := r.Err(); err != nil {
			return err
		}
		q := &compositeQuery{name: name, seedID: seedID, initialized: true}
		q.view = compositeView{c: c, qi: slot}
		proto, err := rebuild(slot, name, seedID, &q.view)
		if err != nil {
			return err
		}
		if got := proto.Name(); got != protoName {
			return fmt.Errorf("server: query slot %d spec builds protocol %q, snapshot holds %q",
				slot, got, protoName)
		}
		sp, ok := proto.(StatefulProtocol)
		if !ok {
			return fmt.Errorf("server: query slot %d protocol %q does not support snapshots",
				slot, protoName)
		}
		if err := sp.ImportState(r); err != nil {
			return fmt.Errorf("server: query slot %d: %w", slot, err)
		}
		q.proto = proto
		c.admit(q)
	}
	if err := r.Err(); err != nil {
		return err
	}
	// The index is never encoded (nor is the dispatch bookkeeping admit
	// just refiled): rebuild it from the restored constraint vectors so it
	// cannot drift from fabric state across a save/load cycle (and the
	// snapshot format predating the index keeps working).
	if c.idx != nil {
		c.idx.rebuild(c)
	}
	return nil
}
