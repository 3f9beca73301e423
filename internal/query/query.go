// Package query defines the entity-based query model of the paper (§3.2):
// non-rank-based range queries and rank-based k-NN queries.
//
// A k-NN query is parameterized by its center. In one dimension that is a
// Center: a finite query point q ranks streams by |V−q|; the ±∞ centers
// turn k-NN into k-maximum (top-k) and k-minimum queries exactly as the
// paper describes ("a k-NN query can be easily transformed to a k-minimum
// or k-maximum query, by setting q to −∞ or +∞"). In the plane it is a
// PlanarCenter (Around), ranking by Euclidean distance with disk filters —
// §7's extension "by changing the distance and the shape of the filter".
// Both implement CenterOf, the one surface the rank protocols of
// internal/core are written against.
package query

import (
	"fmt"
	"math"

	"adaptivefilters/internal/filter"
)

// Range is a non-rank-based range query [Lo, Hi] (closed interval). Streams
// whose values fall within the interval belong to the answer.
type Range struct {
	Lo, Hi float64
}

// NewRange returns the range query [lo, hi].
func NewRange(lo, hi float64) Range { return Range{Lo: lo, Hi: hi} }

// Contains reports whether value v satisfies the range query.
func (r Range) Contains(v float64) bool { return v >= r.Lo && v <= r.Hi }

// Constraint returns the filter constraint equal to the query interval —
// the ZT-NRP assignment.
func (r Range) Constraint() filter.Constraint { return filter.NewInterval(r.Lo, r.Hi) }

// BoundaryDist returns the distance from v to the nearer interval endpoint.
// The boundary-nearest selection heuristic (paper §6.2, Figure 14) prefers
// streams with small BoundaryDist.
func (r Range) BoundaryDist(v float64) float64 {
	if v == r.Lo || v == r.Hi {
		return 0 // also at an infinite endpoint, where v − Lo or Hi − v is NaN
	}
	return math.Min(math.Abs(v-r.Lo), math.Abs(v-r.Hi))
}

// String renders the query.
func (r Range) String() string { return fmt.Sprintf("range[%g,%g]", r.Lo, r.Hi) }

// CenterKind discriminates the k-NN query point forms.
type CenterKind int

const (
	// Finite is an ordinary query point q; distance is |v − q|.
	Finite CenterKind = iota
	// PosInf is q = +∞: k-NN becomes k-maximum (top-k); "distance" is −v so
	// larger values rank closer.
	PosInf
	// NegInf is q = −∞: k-NN becomes k-minimum; "distance" is v.
	NegInf
)

// CenterOf is a k-NN query center over stream values of type V whose
// filter constraints have type C: everything the rank protocols need to
// rank streams and shape their filters. Center implements
// CenterOf[float64, filter.Constraint] and PlanarCenter implements
// CenterOf[filter.Point, filter.Region].
//
// A protocol holds its center as an interface, so every method is a
// dynamic call; Dists exists so a rank pass over n streams makes one such
// call, not n.
type CenterOf[V, C any] interface {
	// Dists sets keys[i] to the ranking distance of vals[i] from the
	// center for every i; len(keys) must be at least len(vals).
	Dists(keys []float64, vals []V)
	// BallConstraint returns the filter constraint containing exactly the
	// values within distance d: the region R the rank protocols deploy.
	BallConstraint(d float64) C
	// WideOpen and Shut return FT-RP's silent filters: one every value is
	// inside (a false positive), one no value is inside (a false negative).
	WideOpen() C
	Shut() C
	// IsNaN reports a NaN center, which the protocol constructors refuse.
	IsNaN() bool
	// String renders the center.
	String() string
}

var (
	_ CenterOf[float64, filter.Constraint]  = Center{}
	_ CenterOf[filter.Point, filter.Region] = PlanarCenter{}
)

// Center is a k-NN query point.
type Center struct {
	Kind CenterKind
	X    float64 // used only when Kind == Finite
}

// At returns a finite query point.
func At(x float64) Center { return Center{Kind: Finite, X: x} }

// Top returns the q = +∞ center: k-NN of Top is the top-k (k-maximum) query.
func Top() Center { return Center{Kind: PosInf} }

// Bottom returns the q = −∞ center (k-minimum query).
func Bottom() Center { return Center{Kind: NegInf} }

// Dist returns the ranking distance of value v from the center. For the
// infinite centers it is a monotone surrogate (−v, v) rather than a true
// metric distance, but all protocol logic only compares distances and forms
// sublevel-set balls, for which the surrogate is exact.
func (c Center) Dist(v float64) float64 {
	switch c.Kind {
	case PosInf:
		return -v
	case NegInf:
		return v
	default:
		return math.Abs(v - c.X)
	}
}

// Dists implements CenterOf: the Dist loop with the center's kind decided
// once.
func (c Center) Dists(keys []float64, vals []float64) {
	keys = keys[:len(vals)]
	switch c.Kind {
	case PosInf:
		for i, v := range vals {
			keys[i] = -v
		}
	case NegInf:
		copy(keys, vals)
	default:
		for i, v := range vals {
			keys[i] = math.Abs(v - c.X)
		}
	}
}

// Ball returns the value interval {v : Dist(v) <= d} as a closed interval.
// For a finite center it is [X−d, X+d]; for PosInf it is [−d, +∞); for
// NegInf it is (−∞, d].
func (c Center) Ball(d float64) (lo, hi float64) {
	switch c.Kind {
	case PosInf:
		return -d, math.Inf(1)
	case NegInf:
		return math.Inf(-1), d
	default:
		return c.X - d, c.X + d
	}
}

// BallConstraint returns Ball(d) as a filter constraint.
func (c Center) BallConstraint(d float64) filter.Constraint {
	lo, hi := c.Ball(d)
	return filter.NewInterval(lo, hi)
}

// WideOpen implements CenterOf: the [−∞, +∞] false-positive filter.
func (Center) WideOpen() filter.Constraint { return filter.WideOpen() }

// Shut implements CenterOf: the [+∞, +∞] false-negative filter.
func (Center) Shut() filter.Constraint { return filter.Shut() }

// IsNaN reports a finite center at NaN.
func (c Center) IsNaN() bool { return c.Kind == Finite && math.IsNaN(c.X) }

// String renders the center.
func (c Center) String() string {
	switch c.Kind {
	case PosInf:
		return "q=+inf(top)"
	case NegInf:
		return "q=-inf(bottom)"
	default:
		return fmt.Sprintf("q=%g", c.X)
	}
}

// PlanarCenter is a k-NN query point in the plane: streams rank by
// Euclidean distance and R is a disk around the point.
type PlanarCenter struct {
	P filter.Point
}

// Around returns the planar query point p.
func Around(p filter.Point) PlanarCenter { return PlanarCenter{P: p} }

// Dists implements CenterOf with Euclidean distance.
func (c PlanarCenter) Dists(keys []float64, vals []filter.Point) {
	keys = keys[:len(vals)]
	for i, v := range vals {
		keys[i] = filter.Dist(c.P, v)
	}
}

// BallConstraint returns the closed disk of radius d around the center.
func (c PlanarCenter) BallConstraint(d float64) filter.Region { return filter.NewDisk(c.P, d) }

// WideOpen implements CenterOf: the all-containing disk.
func (c PlanarCenter) WideOpen() filter.Region { return filter.WideOpenRegion(c.P) }

// Shut implements CenterOf: the empty disk.
func (c PlanarCenter) Shut() filter.Region { return filter.ShutRegion(c.P) }

// IsNaN reports a center with a NaN coordinate.
func (c PlanarCenter) IsNaN() bool { return c.P.IsNaN() }

// String renders the center.
func (c PlanarCenter) String() string { return "q=" + c.P.String() }

// KNN is a rank-based k-nearest-neighbor query: the k streams whose values
// are closest to the center.
type KNN struct {
	Q Center
	K int
}

// NewKNN returns a k-NN query around q.
func NewKNN(q Center, k int) KNN { return KNN{Q: q, K: k} }

// TopK returns the continuous top-k query (k-maximum), as used in the
// paper's TCP experiment (Figure 9).
func TopK(k int) KNN { return KNN{Q: Top(), K: k} }

// String renders the query.
func (q KNN) String() string { return fmt.Sprintf("knn(k=%d,%v)", q.K, q.Q) }
