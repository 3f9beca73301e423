package filter

import (
	"fmt"

	"adaptivefilters/internal/snapshot"
)

// ExportState appends the region to a snapshot: kind discriminator, center
// coordinates, and both shape parameters (a disk's unused B field is
// encoded as-is — constructors keep it zero, so the encoding is canonical).
func (r Region) ExportState(w *snapshot.Writer) {
	w.Int64(int64(r.Kind))
	w.Float64(r.C.X)
	w.Float64(r.C.Y)
	w.Float64(r.A)
	w.Float64(r.B)
}

// ImportRegion decodes a region written by ExportState. Unknown kind
// discriminators and NaN fields are rejected — a NaN center or radius
// would poison every Contains answer downstream, the exact drift the
// spatial plane's ingest validation exists to prevent — so corrupted
// snapshots fail instead of producing filters with undefined semantics.
func ImportRegion(rd *snapshot.Reader) (Region, error) {
	kind := rd.Int64()
	cx := rd.Float64()
	cy := rd.Float64()
	a := rd.Float64()
	b := rd.Float64()
	if err := rd.Err(); err != nil {
		return Region{}, err
	}
	if kind < int64(RegionNone) || kind > int64(RegionRect) {
		return Region{}, fmt.Errorf("filter: snapshot holds invalid region kind %d", kind)
	}
	if cx != cx || cy != cy || a != a || b != b {
		return Region{}, fmt.Errorf("filter: snapshot holds NaN region field")
	}
	return Region{Kind: RegionKind(kind), C: Point{X: cx, Y: cy}, A: a, B: b}, nil
}

// Unfiltered reports whether no region is installed: the stream reports
// every update.
func (r Region) Unfiltered() bool { return r.Kind == RegionNone }

// Recentre is the Of hook; no region follows its stream.
func (r Region) Recentre(Point) (Region, bool) { return r, false }

// ImportState decodes a region written by ExportState; the receiver is
// unused (see Of).
func (Region) ImportState(rd *snapshot.Reader) (Region, error) { return ImportRegion(rd) }

// ExportValue appends one planar stream value to a snapshot.
func (Region) ExportValue(w *snapshot.Writer, p Point) {
	w.Float64(p.X)
	w.Float64(p.Y)
}

// ImportValue reads a value written by ExportValue.
func (Region) ImportValue(rd *snapshot.Reader) Point {
	return Point{X: rd.Float64(), Y: rd.Float64()}
}
