// Package filter defines the adaptive filter constraints installed at stream
// sources and their violation (boundary-crossing) semantics.
//
// A filter constraint is a closed interval [Lo, Hi] (paper §3.1). Let V' be
// the last value the stream reported. A new value V violates the constraint
// iff exactly one of V', V lies inside the interval — i.e. the value crossed
// the boundary. Only violations are reported to the server.
//
// Two degenerate intervals play a special role in the fraction-based
// protocols (paper §5.1.1):
//
//   - [−∞, +∞] — every value is inside, so the filter can never be violated.
//     Installed on "false positive" streams, which effectively shuts them up.
//   - [+∞, +∞] — no finite value is inside, so the filter can never be
//     violated either. Installed on "false negative" streams.
//
// Both silence the stream; the distinction is pure server-side bookkeeping.
package filter

import (
	"fmt"
	"math"

	"adaptivefilters/internal/snapshot"
)

// Of is everything a stream source and its host need from a filter
// constraint type C over stream values of type V. Constraint implements
// Of[float64, Constraint] and Region implements Of[Point, Region]; the
// sources, host and cluster are written once against it (stream.Sources,
// server.HostOf, server.ClusterOf).
//
// A source reports when its value crosses the constraint boundary — the
// side Contains puts it on changes — or on every update when Unfiltered,
// which the zero C must be: a new source holds it. Sides is Contains over
// a whole column: dst[i] = Contains(vals[i]) for every i < len(vals), in
// one call, so a deploy over n streams pays one call and not n.
// The single asymmetry between the kinds is Recentre: a constraint that
// follows its stream (the 1-D Band) returns its replacement centered on v
// and true, and the source then swaps it in locally instead of recording a
// side. Every other constraint returns false. Same is bit-exact equality
// (Float64bits on every field, so NaN fields match themselves and −0 is
// not +0): a host that stores one constraint for many streams stores it
// only when a stream's own is the same bits, so its record cannot move.
//
// The snapshot half encodes constraints and values. ImportState,
// ExportValue and ImportValue ignore their receiver: a value type such as
// float64 cannot carry methods, so its codec lives on its constraint type.
type Of[V, C any] interface {
	Contains(v V) bool
	Sides(dst []bool, vals []V)
	Silent() bool
	Unfiltered() bool
	Recentre(v V) (C, bool)
	Same(o C) bool
	ExportState(w *snapshot.Writer)
	ImportState(r *snapshot.Reader) (C, error)
	ExportValue(w *snapshot.Writer, v V)
	ImportValue(r *snapshot.Reader) V
}

var (
	_ Of[float64, Constraint] = Constraint{}
	_ Of[Point, Region]       = Region{}
)

// Kind discriminates the constraint forms.
type Kind int

const (
	// None means no filter is installed: every update is reported.
	None Kind = iota
	// Interval is a closed interval [Lo, Hi]; updates are reported only on
	// boundary crossings.
	Interval
	// Band is the classic *value-based* adaptive filter of Olston et al.
	// (the paper's related work and Figure 1 foil): an interval of
	// half-width Hi centered on the last reported value Lo. The stream
	// reports when the value deviates by more than Hi from the last report
	// and then re-centers the band locally — no install message needed.
	// It provides a numeric-deviation guarantee but no rank or fraction
	// guarantee, which is exactly the paper's motivation for non-value
	// tolerance (reproduced by the Figure 1 experiment).
	Band
)

// Constraint is a filter constraint. The zero value is None (no filter).
type Constraint struct {
	Kind   Kind
	Lo, Hi float64
}

// NoFilter returns the "report everything" constraint.
func NoFilter() Constraint { return Constraint{Kind: None} }

// NewInterval returns the closed-interval constraint [lo, hi]. lo may exceed
// hi, in which case the interval is empty (equivalent to Shut).
func NewInterval(lo, hi float64) Constraint {
	return Constraint{Kind: Interval, Lo: lo, Hi: hi}
}

// WideOpen returns [−∞, +∞]: a silent filter whose stream is presumed inside.
// The paper calls these false positive filters.
func WideOpen() Constraint { return NewInterval(math.Inf(-1), math.Inf(1)) }

// Shut returns [+∞, +∞]: a silent filter whose stream is presumed outside.
// The paper calls these false negative filters.
func Shut() Constraint { return NewInterval(math.Inf(1), math.Inf(1)) }

// NewBand returns a value-based band filter of the given half-width
// centered on the last reported value.
func NewBand(center, halfWidth float64) Constraint {
	return Constraint{Kind: Band, Lo: center, Hi: halfWidth}
}

// BandCenter returns the band filter's current center (its Kind must be
// Band).
func (c Constraint) BandCenter() float64 { return c.Lo }

// BandHalfWidth returns the band filter's half-width.
func (c Constraint) BandHalfWidth() float64 { return c.Hi }

// Contains reports whether v lies inside the constraint. For the None
// constraint it returns false: an unfiltered stream has no notion of being
// inside. For a Band it is |v − center| <= halfWidth.
func (c Constraint) Contains(v float64) bool {
	switch c.Kind {
	case Interval:
		return v >= c.Lo && v <= c.Hi
	case Band:
		return v >= c.Lo-c.Hi && v <= c.Lo+c.Hi
	default:
		return false
	}
}

// Same reports whether c and o are the same constraint, bit for bit.
func (c Constraint) Same(o Constraint) bool {
	return c.Kind == o.Kind &&
		math.Float64bits(c.Lo) == math.Float64bits(o.Lo) &&
		math.Float64bits(c.Hi) == math.Float64bits(o.Hi)
}

// Sides sets dst[i] = c.Contains(vals[i]) for every i < len(vals), with
// Contains' arithmetic; dst must be at least as long as vals.
func (c Constraint) Sides(dst []bool, vals []float64) {
	dst = dst[:len(vals)]
	lo, hi := c.Lo, c.Hi
	switch c.Kind {
	case Interval:
	case Band:
		lo, hi = c.Lo-c.Hi, c.Lo+c.Hi
	default:
		clear(dst)
		return
	}
	for i, v := range vals {
		dst[i] = bit(v >= lo)&bit(v <= hi) != 0
	}
}

// bit is b as 0 or 1. The column kernels combine their comparisons with it
// instead of &&, which compiles to a branch per comparison: across a
// column of values on both sides of a constraint that branch is a coin
// flip, and a mispredicted flip costs more than both comparisons.
func bit(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// Bounds returns the closed region [lo, hi] inside which Contains holds:
// the interval itself, or a band's center ± half-width computed with
// exactly the arithmetic Contains uses. For None it returns (NaN, NaN) —
// an unfiltered entry has no inside region. Callers indexing constraint
// boundaries (server's query index) must treat non-finite or inverted
// bounds as unindexable.
func (c Constraint) Bounds() (lo, hi float64) {
	switch c.Kind {
	case Interval:
		return c.Lo, c.Hi
	case Band:
		return c.Lo - c.Hi, c.Lo + c.Hi
	default:
		return math.NaN(), math.NaN()
	}
}

// Silent reports whether the constraint can never be violated by any finite
// value: either every finite value is inside, or none is.
func (c Constraint) Silent() bool {
	if c.Kind != Interval {
		return false
	}
	allIn := math.IsInf(c.Lo, -1) && math.IsInf(c.Hi, 1)
	noneIn := c.Lo > c.Hi || (math.IsInf(c.Lo, 1) && math.IsInf(c.Hi, 1)) ||
		(math.IsInf(c.Lo, -1) && math.IsInf(c.Hi, -1))
	return allIn || noneIn
}

// IsWideOpen reports whether c is the [−∞, +∞] false-positive filter.
func (c Constraint) IsWideOpen() bool {
	return c.Kind == Interval && math.IsInf(c.Lo, -1) && math.IsInf(c.Hi, 1)
}

// IsShut reports whether c is a never-inside silent filter such as [+∞, +∞].
func (c Constraint) IsShut() bool {
	return c.Silent() && !c.IsWideOpen()
}

// Violates implements the paper's §3.1 definition: given the last reported
// value prev and the new value v, the constraint is violated iff the value
// crossed the interval boundary.
func (c Constraint) Violates(prev, v float64) bool {
	if c.Kind != Interval {
		// No filter: the stream reports every update (paper §3.1), which the
		// caller models separately; a non-interval constraint never
		// "crosses".
		return false
	}
	return c.Contains(prev) != c.Contains(v)
}

// String renders the constraint for logs and tests.
func (c Constraint) String() string {
	switch {
	case c.Kind == None:
		return "none"
	case c.Kind == Band:
		return fmt.Sprintf("band(%g±%g)", c.Lo, c.Hi)
	case c.IsWideOpen():
		return "[-inf,+inf]"
	case c.IsShut():
		return "[+inf,+inf]"
	default:
		return fmt.Sprintf("[%g,%g]", c.Lo, c.Hi)
	}
}
