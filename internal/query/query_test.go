package query

import (
	"math"
	"testing"
	"testing/quick"

	"adaptivefilters/internal/filter"
)

func TestRangeContains(t *testing.T) {
	r := NewRange(400, 600)
	cases := []struct {
		v    float64
		want bool
	}{
		{400, true}, {600, true}, {500, true}, {399.99, false}, {600.01, false},
	}
	for _, c := range cases {
		if got := r.Contains(c.v); got != c.want {
			t.Fatalf("Contains(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestRangeConstraintMatchesQuery(t *testing.T) {
	r := NewRange(1, 9)
	c := r.Constraint()
	for _, v := range []float64{0, 1, 5, 9, 10} {
		if c.Contains(v) != r.Contains(v) {
			t.Fatalf("constraint and query disagree at %v", v)
		}
	}
}

func TestRangeBoundaryDist(t *testing.T) {
	r := NewRange(400, 600)
	cases := []struct {
		v, want float64
	}{
		{500, 100}, {410, 10}, {590, 10}, {400, 0}, {600, 0}, {300, 100}, {700, 100},
	}
	for _, c := range cases {
		if got := r.BoundaryDist(c.v); got != c.want {
			t.Fatalf("BoundaryDist(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}

// TestRangeBoundaryDistInfinite: a value at an infinite endpoint is at
// distance 0, never NaN, and an infinite value or bound otherwise gives an
// infinite distance.
func TestRangeBoundaryDistInfinite(t *testing.T) {
	inf := math.Inf(1)
	cases := []struct {
		r       Range
		v, want float64
	}{
		{NewRange(0, inf), inf, 0},
		{NewRange(0, inf), 0, 0},
		{NewRange(0, inf), 5, 5},
		{NewRange(0, inf), -inf, inf},
		{NewRange(-inf, 10), -inf, 0},
		{NewRange(-inf, 10), 4, 6},
		{NewRange(-inf, 10), inf, inf},
		{NewRange(-inf, inf), inf, 0},
		{NewRange(-inf, inf), -inf, 0},
		{NewRange(-inf, inf), 3, inf},
		{NewRange(400, 600), inf, inf},
		{NewRange(400, 600), -inf, inf},
		{NewRange(inf, inf), inf, 0},
	}
	for _, c := range cases {
		if got := c.r.BoundaryDist(c.v); got != c.want {
			t.Errorf("%v.BoundaryDist(%v) = %v, want %v", c.r, c.v, got, c.want)
		}
	}
}

func TestFiniteCenterDist(t *testing.T) {
	q := At(100)
	if q.Dist(110) != 10 || q.Dist(90) != 10 || q.Dist(100) != 0 {
		t.Fatal("finite distance wrong")
	}
}

func TestTopCenterOrdersByValueDescending(t *testing.T) {
	q := Top()
	if !(q.Dist(100) < q.Dist(50)) {
		t.Fatal("Top: larger value must be closer")
	}
}

func TestBottomCenterOrdersByValueAscending(t *testing.T) {
	q := Bottom()
	if !(q.Dist(50) < q.Dist(100)) {
		t.Fatal("Bottom: smaller value must be closer")
	}
}

func TestFiniteBall(t *testing.T) {
	lo, hi := At(100).Ball(30)
	if lo != 70 || hi != 130 {
		t.Fatalf("Ball = [%v,%v], want [70,130]", lo, hi)
	}
}

func TestTopBall(t *testing.T) {
	// For Top, dist(v) = -v; dist <= d means v >= -d.
	lo, hi := Top().Ball(-500)
	if lo != 500 || !math.IsInf(hi, 1) {
		t.Fatalf("Top Ball(-500) = [%v,%v], want [500,+inf)", lo, hi)
	}
}

func TestBottomBall(t *testing.T) {
	lo, hi := Bottom().Ball(500)
	if !math.IsInf(lo, -1) || hi != 500 {
		t.Fatalf("Bottom Ball(500) = [%v,%v], want (-inf,500]", lo, hi)
	}
}

func TestQuickBallMembershipEqualsDist(t *testing.T) {
	// v ∈ Ball(d) ⇔ Dist(v) <= d, for every center kind.
	f := func(x, d, v float64, kind uint8) bool {
		if x != x || d != d || v != v {
			return true
		}
		var c Center
		switch kind % 3 {
		case 0:
			c = At(x)
		case 1:
			c = Top()
		default:
			c = Bottom()
		}
		cons := c.BallConstraint(d)
		return cons.Contains(v) == (c.Dist(v) <= d)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestKNNConstructors(t *testing.T) {
	q := TopK(10)
	if q.K != 10 || q.Q.Kind != PosInf {
		t.Fatalf("TopK = %+v", q)
	}
	k := NewKNN(At(5), 3)
	if k.K != 3 || k.Q.X != 5 || k.Q.Kind != Finite {
		t.Fatalf("NewKNN = %+v", k)
	}
}

func TestStrings(t *testing.T) {
	if At(5).String() != "q=5" {
		t.Fatalf("At(5).String() = %q", At(5).String())
	}
	if Top().String() != "q=+inf(top)" {
		t.Fatalf("Top().String() = %q", Top().String())
	}
	if Bottom().String() != "q=-inf(bottom)" {
		t.Fatalf("Bottom().String() = %q", Bottom().String())
	}
	if NewRange(1, 2).String() != "range[1,2]" {
		t.Fatalf("Range.String() = %q", NewRange(1, 2).String())
	}
	if TopK(3).String() != "knn(k=3,q=+inf(top))" {
		t.Fatalf("KNN.String() = %q", TopK(3).String())
	}
}

// TestCenterDistsMatchesDist: the batch fill equals Dist element by
// element for every center kind (the rank protocols use only the batch).
func TestCenterDistsMatchesDist(t *testing.T) {
	vals := []float64{-3, 0, 2.5, 100, math.Inf(1), -1e300}
	for _, c := range []Center{At(2), Top(), Bottom()} {
		keys := make([]float64, len(vals))
		c.Dists(keys, vals)
		for i, v := range vals {
			if keys[i] != c.Dist(v) {
				t.Fatalf("%v: Dists[%d] = %v, Dist(%v) = %v", c, i, keys[i], v, c.Dist(v))
			}
		}
	}
}

// TestCenterSilentFilters: a 1-D center's silent filters are exactly
// filter.WideOpen and filter.Shut.
func TestCenterSilentFilters(t *testing.T) {
	c := At(7)
	if c.WideOpen() != filter.WideOpen() || c.Shut() != filter.Shut() {
		t.Fatalf("silent filters %v / %v", c.WideOpen(), c.Shut())
	}
	if !At(math.NaN()).IsNaN() || At(0).IsNaN() || Top().IsNaN() || Bottom().IsNaN() {
		t.Fatal("IsNaN wrong")
	}
}

// TestPlanarCenter: Euclidean distance, disk balls and silent disks around
// the point.
func TestPlanarCenter(t *testing.T) {
	c := Around(filter.Point{X: 1, Y: 1})
	vals := []filter.Point{{X: 4, Y: 5}, {X: 1, Y: 1}, {X: -2, Y: -3}}
	keys := make([]float64, len(vals))
	c.Dists(keys, vals)
	if keys[0] != 5 || keys[1] != 0 || keys[2] != 5 {
		t.Fatalf("Dists = %v, want [5 0 5]", keys)
	}
	for i, v := range vals {
		if c.BallConstraint(5).Contains(v) != (keys[i] <= 5) || c.BallConstraint(4.9).Contains(v) != (keys[i] <= 4.9) {
			t.Fatalf("ball membership of %v disagrees with Dist", v)
		}
		if !c.WideOpen().Contains(v) || c.Shut().Contains(v) {
			t.Fatalf("silent disks misplace %v", v)
		}
	}
	if c.BallConstraint(2) != filter.NewDisk(c.P, 2) ||
		c.WideOpen() != filter.WideOpenRegion(c.P) || c.Shut() != filter.ShutRegion(c.P) {
		t.Fatal("planar filters are not the filter package's disks")
	}
	if c.IsNaN() || !Around(filter.Point{Y: math.NaN()}).IsNaN() {
		t.Fatal("IsNaN wrong")
	}
	if c.String() != "q=(1,1)" {
		t.Fatalf("String() = %q", c.String())
	}
}
