package filter_test

import (
	"math"
	"math/rand"
	"testing"

	"adaptivefilters/internal/filter"
)

// sidesLens are the column lengths FuzzSides checks: empty, one, and
// around and past a 64-wide chunk.
var sidesLens = []int{0, 1, 63, 64, 65, 200}

// sideValues draws n values for a constraint bounded by a and b: the bounds
// themselves, their neighbouring floats, ±0, ±Inf, NaN, and values spread
// across and beyond the bounds.
func sideValues(rng *rand.Rand, n int, a, b float64) []float64 {
	special := []float64{a, b, math.Nextafter(a, math.Inf(-1)), math.Nextafter(a, math.Inf(1)),
		math.Nextafter(b, math.Inf(-1)), math.Nextafter(b, math.Inf(1)), a - b, a + b,
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64, -math.MaxFloat64}
	vals := make([]float64, n)
	for i := range vals {
		switch rng.Intn(3) {
		case 0:
			vals[i] = special[rng.Intn(len(special))]
		case 1:
			vals[i] = (rng.Float64()*4 - 2) * (math.Abs(a) + math.Abs(b) + 1)
		default:
			vals[i] = math.Float64frombits(rng.Uint64())
		}
	}
	return vals
}

// checkSides fails unless Sides over vals is Contains on each element, and
// leaves dst past len(vals) alone.
func checkSides[V any, C interface {
	Contains(V) bool
	Sides([]bool, []V)
}](t *testing.T, c C, vals []V) {
	t.Helper()
	dst := make([]bool, len(vals)+1)
	for i := range dst {
		dst[i] = i%2 == 0 // garbage Sides must overwrite
	}
	tail := dst[len(vals)]
	c.Sides(dst, vals)
	for i, v := range vals {
		if want := c.Contains(v); dst[i] != want {
			t.Fatalf("%v: Sides puts %v (#%d of %d) inside=%v, Contains says %v", c, v, i, len(vals), dst[i], want)
		}
	}
	if dst[len(vals)] != tail {
		t.Fatalf("%v: Sides over %d values wrote past them", c, len(vals))
	}
}

// FuzzSides checks the column kernel against its definition: for every
// constraint — intervals (lo > hi, NaN and ±Inf bounds included), bands,
// no filter and an unknown kind, and disks, rectangles, wide-open, shut and
// unfiltered regions, including ones no constructor would build (NaN or
// negative extents) — Sides(dst, vals) sets dst[i] = Contains(vals[i]) for
// columns of every length in sidesLens, over values and points that sit on,
// beside and across the boundary or are non-finite.
func FuzzSides(f *testing.F) {
	f.Add(uint8(1), 400.0, 600.0, 0.0, 0.0, int64(1), uint8(5))
	f.Add(uint8(1), 600.0, 400.0, 0.0, 0.0, int64(2), uint8(2))
	f.Add(uint8(1), math.Inf(-1), math.Inf(1), 0.0, 0.0, int64(3), uint8(3))
	f.Add(uint8(1), math.Inf(1), math.Inf(1), 0.0, 0.0, int64(4), uint8(4))
	f.Add(uint8(1), math.NaN(), 5.0, 0.0, 0.0, int64(5), uint8(1))
	f.Add(uint8(2), 500.0, 25.0, 0.0, 0.0, int64(6), uint8(5))
	f.Add(uint8(2), math.Inf(1), math.Inf(1), 0.0, 0.0, int64(7), uint8(4))
	f.Add(uint8(0), 1.0, 2.0, 0.0, 0.0, int64(8), uint8(1))
	f.Add(uint8(3), 1.0, 2.0, 0.0, 0.0, int64(9), uint8(2))
	f.Add(uint8(4), 10.0, -3.0, 5.0, 0.0, int64(10), uint8(5))
	f.Add(uint8(4), 0.0, 0.0, math.Inf(1), 0.0, int64(11), uint8(3))
	f.Add(uint8(4), 0.0, 0.0, -1.0, 0.0, int64(12), uint8(2))
	f.Add(uint8(4), 1e308, -1e308, 1e308, 0.0, int64(13), uint8(5))
	f.Add(uint8(5), 2.0, 3.0, 1.5, 4.0, int64(14), uint8(5))
	f.Add(uint8(5), 2.0, 3.0, math.Inf(1), 4.0, int64(15), uint8(4))
	f.Add(uint8(5), 2.0, 3.0, math.Inf(1), math.Inf(1), int64(16), uint8(3))
	f.Add(uint8(5), 2.0, 3.0, -0.5, 4.0, int64(17), uint8(0))
	f.Add(uint8(6), 2.0, 3.0, 1.0, 1.0, int64(18), uint8(1))
	f.Add(uint8(4), 0.0, 0.0, math.NaN(), 0.0, int64(19), uint8(2))
	f.Fuzz(func(t *testing.T, kind uint8, a, b, x, y float64, seed int64, size uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := sidesLens[int(size)%len(sidesLens)]
		switch kind % 7 {
		case 0, 1, 2, 3: // None, Interval, Band, an unknown kind
			c := filter.Constraint{Kind: filter.Kind(kind % 4), Lo: a, Hi: b}
			checkSides(t, c, sideValues(rng, n, a, b))
			if kind%4 == 2 {
				checkSides(t, c, sideValues(rng, n, a-b, a+b))
			}
		default: // a disk, a rectangle or no region: centre (a, b), extents x, y
			r := filter.Region{Kind: filter.RegionKind((kind%7 - 3) % 3), C: filter.Point{X: a, Y: b}, A: x, B: y}
			if r.Kind == filter.RegionDisk {
				r.B = 0
			}
			xs := sideValues(rng, n, a-x, a+x)
			ys := sideValues(rng, n, b-y, b+y)
			pts := make([]filter.Point, n)
			for i := range pts {
				pts[i] = filter.Point{X: xs[i], Y: ys[i]}
				if rng.Intn(4) == 0 { // a point on the disk's rim, up to rounding
					th := rng.Float64() * 2 * math.Pi
					pts[i] = filter.Point{X: a + x*math.Cos(th), Y: b + x*math.Sin(th)}
				}
			}
			checkSides(t, r, pts)
			if r.Kind == filter.RegionDisk && !math.IsInf(x, 1) {
				// Contains' bounding-square shortcut decides every point
				// as the plain distance test does.
				for _, p := range pts {
					if got, want := r.Contains(p), filter.Dist(r.C, p) <= r.A; got != want {
						t.Fatalf("%v: Contains(%v) = %v, Dist says %v", r, p, got, want)
					}
				}
			}
		}
	})
}
