// Planar (2-D) filter regions for the paper's §7 multidimensional
// extension. A spatial filter constraint is a region of the plane — a disk
// or an axis-aligned rectangle — with exactly the Contains / Silent /
// Violates / export discipline of the 1-D Constraint: a source reports only
// when its point crosses the region boundary, wide-open regions contain
// every point (false-positive streams), shut regions contain none
// (false-negative streams), and both are silent.
package filter

import (
	"fmt"
	"math"
)

// Point is a location in the plane. The zero value is the origin.
type Point struct {
	X, Y float64
}

// IsNaN reports whether either coordinate is NaN. NaN points are rejected
// at every trust boundary (ingest, delivery, snapshot restore) before they
// can reach region geometry or distance ranking — the same discipline the
// 1-D plane applies to values (see internal/oracle).
func (p Point) IsNaN() bool { return math.IsNaN(p.X) || math.IsNaN(p.Y) }

// String renders the point for logs and tests.
func (p Point) String() string { return fmt.Sprintf("(%g,%g)", p.X, p.Y) }

// Dist returns the Euclidean distance between two points, computed with
// math.Hypot for overflow safety.
func Dist(a, b Point) float64 { return math.Hypot(a.X-b.X, a.Y-b.Y) }

// RegionKind discriminates the spatial constraint forms.
type RegionKind int

const (
	// RegionNone means no spatial filter is installed: every update is
	// reported.
	RegionNone RegionKind = iota
	// RegionDisk is the closed disk of radius R around a center point;
	// updates are reported only on boundary crossings. A negative radius is
	// the empty (shut) disk, an infinite radius the all-containing
	// (wide-open) disk.
	RegionDisk
	// RegionRect is the closed axis-aligned rectangle with half-extents
	// (HX, HY) around a center point. A negative half-extent makes the
	// rectangle empty (shut); infinite half-extents on both axes make it
	// all-containing (wide-open).
	RegionRect
)

// Region is a spatial filter constraint. The zero value is RegionNone (no
// filter). For a disk, A is the radius and B is unused (kept zero); for a
// rectangle, A and B are the half-extents along X and Y.
type Region struct {
	Kind RegionKind
	C    Point
	A, B float64
}

// NoRegion returns the "report everything" spatial constraint.
func NoRegion() Region { return Region{Kind: RegionNone} }

// NewDisk returns the closed disk of radius r centered on c. r may be
// negative (the empty disk, equivalent to ShutRegion) or +Inf (wide open).
// NaN parameters are a caller bug and panic.
func NewDisk(c Point, r float64) Region {
	if c.IsNaN() || math.IsNaN(r) {
		panic("filter: NaN disk parameter")
	}
	return Region{Kind: RegionDisk, C: c, A: r}
}

// NewRect returns the closed axis-aligned rectangle with half-extents
// (hx, hy) centered on c. NaN parameters are a caller bug and panic.
func NewRect(c Point, hx, hy float64) Region {
	if c.IsNaN() || math.IsNaN(hx) || math.IsNaN(hy) {
		panic("filter: NaN rectangle parameter")
	}
	return Region{Kind: RegionRect, C: c, A: hx, B: hy}
}

// WideOpenRegion returns the all-containing disk around c: a silent filter
// whose stream is presumed inside — the spatial analogue of WideOpen()'s
// [−∞, +∞] false-positive filter.
func WideOpenRegion(c Point) Region { return NewDisk(c, math.Inf(1)) }

// ShutRegion returns the empty disk around c: a silent filter whose stream
// is presumed outside — the spatial analogue of Shut()'s [+∞, +∞]
// false-negative filter. No point is ever inside it.
func ShutRegion(c Point) Region { return NewDisk(c, -1) }

// Contains reports whether p lies inside the region. For RegionNone it
// returns false: an unfiltered stream has no notion of being inside.
// Wide-open regions contain every point and shut regions none — the
// short-circuits keep those answers exact even for points a float
// comparison would mishandle (a wide-open disk must never "lose" a point).
func (r Region) Contains(p Point) bool {
	switch r.Kind {
	case RegionDisk:
		if r.A < 0 {
			return false
		}
		if math.IsInf(r.A, 1) {
			return true
		}
		// Outside the bounding square is outside the disk, exactly (see
		// Sides); only a point inside it pays for math.Hypot.
		dx, dy := r.C.X-p.X, r.C.Y-p.Y
		return math.Abs(dx) <= r.A && math.Abs(dy) <= r.A && math.Hypot(dx, dy) <= r.A
	case RegionRect:
		if r.A < 0 || r.B < 0 {
			return false
		}
		if math.IsInf(r.A, 1) && math.IsInf(r.B, 1) {
			return true
		}
		return math.Abs(p.X-r.C.X) <= r.A && math.Abs(p.Y-r.C.Y) <= r.B
	default:
		return false
	}
}

// Sides sets dst[i] = r.Contains(pts[i]) for every i < len(pts); dst must
// be at least as long as pts. A point outside a disk's bounding square is
// decided without math.Hypot, and exactly: Hypot(dx, dy) is computed as
// m·√(1 + (min/m)²) with m = max(|dx|, |dy|), every factor at least 1 and
// rounding monotone, so it is never below m, and m > r puts it outside
// (a NaN beside an infinite or too-large coordinate is outside as well).
// Every other point takes Dist's own math.Hypot. Contains decides a single
// point the same way.
func (r Region) Sides(dst []bool, pts []Point) {
	dst = dst[:len(pts)]
	switch {
	case r.Kind == RegionDisk && r.A >= 0 && !math.IsInf(r.A, 1):
		for i, p := range pts {
			dx, dy := r.C.X-p.X, r.C.Y-p.Y
			dst[i] = bit(math.Abs(dx) <= r.A)&bit(math.Abs(dy) <= r.A) != 0 && math.Hypot(dx, dy) <= r.A
		}
	case r.Kind == RegionRect && r.A >= 0 && r.B >= 0 && !(math.IsInf(r.A, 1) && math.IsInf(r.B, 1)):
		for i, p := range pts {
			dst[i] = bit(math.Abs(p.X-r.C.X) <= r.A)&bit(math.Abs(p.Y-r.C.Y) <= r.B) != 0
		}
	default:
		// No filter, or a region that holds every point or none (a NaN
		// extent holds none): the side does not depend on the point.
		in := r.Contains(Point{})
		for i := range dst {
			dst[i] = in
		}
	}
}

// Same reports whether r and o are the same region, bit for bit.
func (r Region) Same(o Region) bool {
	return r.Kind == o.Kind &&
		math.Float64bits(r.C.X) == math.Float64bits(o.C.X) &&
		math.Float64bits(r.C.Y) == math.Float64bits(o.C.Y) &&
		math.Float64bits(r.A) == math.Float64bits(o.A) &&
		math.Float64bits(r.B) == math.Float64bits(o.B)
}

// Silent reports whether the region can never be violated by any finite
// point: either every finite point is inside, or none is.
func (r Region) Silent() bool {
	switch r.Kind {
	case RegionDisk:
		return r.A < 0 || math.IsInf(r.A, 1)
	case RegionRect:
		return r.A < 0 || r.B < 0 || (math.IsInf(r.A, 1) && math.IsInf(r.B, 1))
	default:
		return false
	}
}

// IsWideOpen reports whether r is an all-containing (false-positive) region.
func (r Region) IsWideOpen() bool {
	switch r.Kind {
	case RegionDisk:
		return math.IsInf(r.A, 1)
	case RegionRect:
		return math.IsInf(r.A, 1) && math.IsInf(r.B, 1)
	default:
		return false
	}
}

// IsShut reports whether r is an empty (false-negative) region.
func (r Region) IsShut() bool { return r.Silent() && !r.IsWideOpen() }

// Violates mirrors Constraint.Violates in the plane: given the last
// reported point prev and the new point p, the region is violated iff the
// point crossed the region boundary. RegionNone never "crosses" — the
// caller models the report-everything case separately.
func (r Region) Violates(prev, p Point) bool {
	if r.Kind == RegionNone {
		return false
	}
	return r.Contains(prev) != r.Contains(p)
}

// String renders the region for logs and tests, reusing the 1-D silent
// vocabulary: wide-open regions render as "open", shut regions as "shut".
func (r Region) String() string {
	switch {
	case r.Kind == RegionNone:
		return "none"
	case r.IsWideOpen():
		return fmt.Sprintf("open@%v", r.C)
	case r.IsShut():
		return fmt.Sprintf("shut@%v", r.C)
	case r.Kind == RegionDisk:
		return fmt.Sprintf("disk(%v,r=%g)", r.C, r.A)
	default:
		return fmt.Sprintf("rect(%v,±%g,±%g)", r.C, r.A, r.B)
	}
}
