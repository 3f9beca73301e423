package core

import (
	"fmt"

	"adaptivefilters/internal/filter"
	"adaptivefilters/internal/server"
	"adaptivefilters/internal/sim"
	"adaptivefilters/internal/snapshot"
)

// This file implements server.StatefulProtocol for every protocol: the
// dynamic state a constructor cannot recompute — answer/filter sets, the
// deployed bound, Figure 7's count variable, report counters, and the
// selection RNG's position — exported into a snapshot and imported into a
// freshly constructed instance of the same configuration (see DESIGN.md
// §6). Scratch buffers (ranker, probe tables, key buffers) are value-
// independent and deliberately excluded: they regrow on first use.
//
// Import validates every decoded id against the host's stream count and
// every discriminator against its known range, so corrupted snapshots
// surface as errors, never as panics or unbounded allocations.

var (
	_ server.StatefulProtocol = (*FTNRP)(nil)
	_ server.StatefulProtocol = (*FTRP)(nil)
	_ server.StatefulProtocol = (*RTP)(nil)
	_ server.StatefulProtocol = (*ZTRP)(nil)
	_ server.StatefulProtocol = (*ZTNRP)(nil)
	_ server.StatefulProtocol = (*NoFilterRange)(nil)
	_ server.StatefulProtocol = (*NoFilterKNN)(nil)
	_ server.StatefulProtocol = (*VBKNN)(nil)

	_ server.SpatialStatefulProtocol = (*RTPOf[filter.Point, filter.Region])(nil)
	_ server.SpatialStatefulProtocol = (*FTRPOf[filter.Point, filter.Region])(nil)
)

// exportSet writes an intSet as its ascending member list.
func exportSet(w *snapshot.Writer, s *intSet) {
	w.Int(s.len())
	for _, id := range s.sorted() {
		w.Int(id)
	}
}

// importSet rebuilds an intSet from its member list, requiring strictly
// ascending ids below n — the canonical form exportSet writes — so every
// valid state has exactly one encoding and corrupt ids are rejected before
// they can grow the bitmap arbitrarily.
func importSet(r *snapshot.Reader, s *intSet, n int) error {
	cnt := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if cnt < 0 || cnt > n {
		return fmt.Errorf("core: snapshot set of %d members, host has %d streams", cnt, n)
	}
	s.clear()
	prev := -1
	for i := 0; i < cnt; i++ {
		id := r.Int()
		if err := r.Err(); err != nil {
			return err
		}
		if id <= prev || id >= n {
			return fmt.Errorf("core: snapshot set member %d out of order or range (n=%d)", id, n)
		}
		s.add(id)
		prev = id
	}
	return nil
}

// exportSel writes a selection RNG's position, failing the export when the
// position has grown past the bound Skip can replay — minting a snapshot
// that no restore could accept would be worse than refusing to snapshot.
func exportSel(w *snapshot.Writer, sel *sim.RNG) {
	if err := sel.Replayable(); err != nil {
		w.Fail(fmt.Errorf("core: selection %w", err))
	}
	w.Uint64(sel.Pos())
}

// importSel fast-forwards a freshly constructed selection RNG to its
// recorded position.
func importSel(r *snapshot.Reader, sel *sim.RNG) error {
	pos := r.Uint64()
	if err := r.Err(); err != nil {
		return err
	}
	return sel.Skip(pos)
}

// --- FT-NRP and FT-RP: the shared Figure 7 prefix, then each one's tail --

// exportState writes the answer, the two pools and count: the snapshot
// prefix both protocols share.
func (f *fraction) exportState(w *snapshot.Writer) {
	exportSet(w, &f.ans)
	exportSet(w, &f.fp)
	exportSet(w, &f.fn)
	w.Int(f.count)
}

// importState reads what exportState wrote, for a host of n streams.
func (f *fraction) importState(r *snapshot.Reader, n int) error {
	for _, s := range []*intSet{&f.ans, &f.fp, &f.fn} {
		if err := importSet(r, s, n); err != nil {
			return err
		}
	}
	count := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if count < 0 {
		return fmt.Errorf("core: snapshot count %d negative", count)
	}
	f.count = count
	return nil
}

// ExportState implements server.StatefulProtocol.
func (p *FTNRP) ExportState(w *snapshot.Writer) {
	p.exportState(w)
	w.Uint64(p.Reinits)
	exportSel(w, p.sel)
}

// ImportState implements server.StatefulProtocol.
func (p *FTNRP) ImportState(r *snapshot.Reader) error {
	if err := p.importState(r, p.c.N()); err != nil {
		return err
	}
	p.Reinits = r.Uint64()
	return importSel(r, p.sel)
}

// ExportState implements server.StatefulProtocol.
func (p *FTRPOf[V, C]) ExportState(w *snapshot.Writer) {
	p.exportState(w)
	w.Float64(p.d)
	p.cur.ExportState(w)
	w.Uint64(p.Recomputes)
	exportSel(w, p.sel)
}

// ImportState implements server.StatefulProtocol.
func (p *FTRPOf[V, C]) ImportState(r *snapshot.Reader) error {
	if err := p.importState(r, p.c.N()); err != nil {
		return err
	}
	p.d = r.Float64()
	cur, err := p.cur.ImportState(r)
	if err != nil {
		return err
	}
	p.cur = cur
	p.Recomputes = r.Uint64()
	return importSel(r, p.sel)
}

// --- RTP -----------------------------------------------------------------

// ExportState implements server.StatefulProtocol.
func (p *RTPOf[V, C]) ExportState(w *snapshot.Writer) {
	exportSet(w, &p.inA)
	exportSet(w, &p.inX)
	w.Float64(p.d)
	p.cur.ExportState(w)
	w.Uint64(p.Deploys)
	w.Uint64(p.Reinits)
}

// ImportState implements server.StatefulProtocol.
func (p *RTPOf[V, C]) ImportState(r *snapshot.Reader) error {
	n := p.c.N()
	if err := importSet(r, &p.inA, n); err != nil {
		return err
	}
	if err := importSet(r, &p.inX, n); err != nil {
		return err
	}
	p.d = r.Float64()
	cur, err := p.cur.ImportState(r)
	if err != nil {
		return err
	}
	p.cur = cur
	p.Deploys = r.Uint64()
	p.Reinits = r.Uint64()
	return r.Err()
}

// --- ZT-RP ---------------------------------------------------------------

// ExportState implements server.StatefulProtocol.
func (p *ZTRP) ExportState(w *snapshot.Writer) {
	exportSet(w, &p.ans)
	w.Float64(p.d)
	p.cur.ExportState(w)
	w.Uint64(p.Recomputes)
}

// ImportState implements server.StatefulProtocol.
func (p *ZTRP) ImportState(r *snapshot.Reader) error {
	if err := importSet(r, &p.ans, p.c.N()); err != nil {
		return err
	}
	p.d = r.Float64()
	cur, err := filter.ImportConstraint(r)
	if err != nil {
		return err
	}
	p.cur = cur
	p.Recomputes = r.Uint64()
	return r.Err()
}

// --- ZT-NRP --------------------------------------------------------------

// ExportState implements server.StatefulProtocol.
func (p *ZTNRP) ExportState(w *snapshot.Writer) { exportSet(w, &p.ans) }

// ImportState implements server.StatefulProtocol.
func (p *ZTNRP) ImportState(r *snapshot.Reader) error {
	return importSet(r, &p.ans, p.c.N())
}

// --- no-filter baselines -------------------------------------------------

// ExportState implements server.StatefulProtocol.
func (p *NoFilterRange) ExportState(w *snapshot.Writer) { exportSet(w, &p.ans) }

// ImportState implements server.StatefulProtocol.
func (p *NoFilterRange) ImportState(r *snapshot.Reader) error {
	return importSet(r, &p.ans, p.c.N())
}

// ExportState implements server.StatefulProtocol.
func (p *NoFilterKNN) ExportState(w *snapshot.Writer) { p.told.exportState(w) }

// ImportState implements server.StatefulProtocol.
func (p *NoFilterKNN) ImportState(r *snapshot.Reader) error {
	return p.told.importState(r)
}

// --- value-based baseline ------------------------------------------------

// ExportState implements server.StatefulProtocol.
func (p *VBKNN) ExportState(w *snapshot.Writer) { p.told.exportState(w) }

// ImportState implements server.StatefulProtocol.
func (p *VBKNN) ImportState(r *snapshot.Reader) error {
	return p.told.importState(r)
}
