package filter

import (
	"fmt"

	"adaptivefilters/internal/snapshot"
)

// ExportState appends the constraint to a snapshot: kind discriminator plus
// both interval bounds (band center/half-width reuse the same two fields).
func (c Constraint) ExportState(w *snapshot.Writer) {
	w.Int64(int64(c.Kind))
	w.Float64(c.Lo)
	w.Float64(c.Hi)
}

// ImportConstraint decodes a constraint written by ExportState, rejecting
// unknown kind discriminators so corrupted snapshots fail instead of
// producing filters with undefined semantics.
func ImportConstraint(r *snapshot.Reader) (Constraint, error) {
	kind := r.Int64()
	lo := r.Float64()
	hi := r.Float64()
	if err := r.Err(); err != nil {
		return Constraint{}, err
	}
	if kind < int64(None) || kind > int64(Band) {
		return Constraint{}, fmt.Errorf("filter: snapshot holds invalid constraint kind %d", kind)
	}
	return Constraint{Kind: Kind(kind), Lo: lo, Hi: hi}, nil
}

// ExportConstraints appends a composite constraint vector — one stream's
// per-query filter entries — as a length-prefixed sequence of constraints.
// The encoding is canonical: the same vector always produces the same
// bytes, so composite snapshots can be byte-diffed across shard counts.
func ExportConstraints(w *snapshot.Writer, cs []Constraint) {
	w.Int(len(cs))
	for _, c := range cs {
		c.ExportState(w)
	}
}

// ImportConstraints decodes a vector written by ExportConstraints. The
// length is validated against the bytes actually remaining before any
// allocation (each entry is 24 encoded bytes) and every entry's kind
// against its known range, so corrupted input returns an error — never a
// panic or an unbounded allocation.
func ImportConstraints(r *snapshot.Reader) ([]Constraint, error) {
	n := r.Int()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if n < 0 || n > r.Remaining()/24 {
		return nil, fmt.Errorf("filter: constraint vector length %d exceeds remaining input", n)
	}
	out := make([]Constraint, 0, n)
	for i := 0; i < n; i++ {
		c, err := ImportConstraint(r)
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

// Unfiltered reports whether no filter is installed: the stream reports
// every update.
func (c Constraint) Unfiltered() bool { return c.Kind == None }

// Recentre is the Of hook: a Band follows its stream, so on a deviation it
// is replaced by the same band centered on v. Every other kind stays put.
func (c Constraint) Recentre(v float64) (Constraint, bool) {
	if c.Kind != Band {
		return c, false
	}
	return NewBand(v, c.Hi), true
}

// ImportState decodes a constraint written by ExportState; the receiver is
// unused (see Of).
func (Constraint) ImportState(r *snapshot.Reader) (Constraint, error) { return ImportConstraint(r) }

// ExportValue appends one 1-D stream value to a snapshot.
func (Constraint) ExportValue(w *snapshot.Writer, v float64) { w.Float64(v) }

// ImportValue reads a value written by ExportValue.
func (Constraint) ImportValue(r *snapshot.Reader) float64 { return r.Float64() }
