package core

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"adaptivefilters/internal/filter"
	"adaptivefilters/internal/query"
	"adaptivefilters/internal/server"
)

// pickScored drives pickKeyed the way the protocols do: a private copy of
// the candidates and one precomputed score per id.
func pickScored(sel Selection, candidates []int, score func(id int) float64, n int, rng *rand.Rand) []int {
	ids := append([]int(nil), candidates...)
	keys := make([]float64, len(ids))
	for i, id := range ids {
		keys[i] = score(id)
	}
	return sel.pickKeyed(ids, keys, n, rng)
}

func TestIntSetBasics(t *testing.T) {
	s := newIntSet()
	if s.len() != 0 {
		t.Fatalf("fresh set len = %d", s.len())
	}
	if _, ok := s.min(); ok {
		t.Fatal("min of empty set returned ok")
	}
	s.add(5)
	s.add(2)
	s.add(9)
	s.add(2) // duplicate
	if s.len() != 3 {
		t.Fatalf("len = %d, want 3", s.len())
	}
	if !s.has(2) || s.has(3) {
		t.Fatal("membership wrong")
	}
	if got := s.sorted(); len(got) != 3 || got[0] != 2 || got[2] != 9 {
		t.Fatalf("sorted = %v", got)
	}
	if m, ok := s.min(); !ok || m != 2 {
		t.Fatalf("min = %d,%v", m, ok)
	}
	s.remove(2)
	if s.has(2) || s.len() != 2 {
		t.Fatal("remove failed")
	}
	s.remove(100) // absent: no-op

	// Members on both sides of a word boundary come out ascending, and
	// addAll counts only the ids it actually adds.
	o := newIntSet()
	for _, id := range []int{130, 9, 64, 63} {
		o.add(id)
	}
	s.addAll(&o) // s = {5, 9}; 9 is shared
	if got := s.appendMembers(nil); len(got) != 5 || s.len() != 5 ||
		got[0] != 5 || got[1] != 9 || got[2] != 63 || got[3] != 64 || got[4] != 130 {
		t.Fatalf("after addAll: members %v, len %d; want [5 9 63 64 130]", got, s.len())
	}
	s.clear()
	if s.len() != 0 || s.has(64) {
		t.Fatal("clear left members behind")
	}
	if _, ok := s.min(); ok {
		t.Fatal("min of cleared set returned ok")
	}
}

// TestSelectionPickBoundaryNearestInfiniteRange is FT-NRP's selection over
// [0, +∞]: a stream at +∞ is on the boundary, at distance 0 and not NaN,
// so it ties with the stream at 0 and the tie goes to the lower id.
func TestSelectionPickBoundaryNearestInfiniteRange(t *testing.T) {
	rng := query.NewRange(0, math.Inf(1))
	vals := []float64{0, math.Inf(1), 1, 5}
	score := func(id int) float64 { return rng.BoundaryDist(vals[id]) }
	for n, want := range [][]int{1: {0}, 2: {0, 1}, 3: {0, 1, 2}} {
		if want == nil {
			continue
		}
		got := pickScored(SelectBoundaryNearest, []int{1, 3, 2, 0}, score, n, nil)
		if !slices.Equal(got, want) {
			t.Errorf("pick %d = %v, want %v", n, got, want)
		}
	}
}

func TestSelectionPickBoundaryNearest(t *testing.T) {
	score := func(id int) float64 { return float64(10 - id) } // id 9 scores 1
	got := pickScored(SelectBoundaryNearest, []int{1, 5, 9, 3}, score, 2, rand.New(rand.NewSource(1)))
	if len(got) != 2 || got[0] != 9 || got[1] != 5 {
		t.Fatalf("pick = %v, want [9 5] (smallest scores)", got)
	}
}

func TestSelectionPickTieBreaksByID(t *testing.T) {
	score := func(int) float64 { return 1 }
	got := pickScored(SelectBoundaryNearest, []int{7, 3, 5}, score, 2, rand.New(rand.NewSource(1)))
	if got[0] != 3 || got[1] != 5 {
		t.Fatalf("tied pick = %v, want [3 5]", got)
	}
}

func TestSelectionPickBounds(t *testing.T) {
	score := func(int) float64 { return 0 }
	rng := rand.New(rand.NewSource(2))
	if got := pickScored(SelectBoundaryNearest, nil, score, 3, rng); got != nil {
		t.Fatalf("pick from empty = %v", got)
	}
	if got := pickScored(SelectBoundaryNearest, []int{1}, score, 0, rng); got != nil {
		t.Fatalf("pick 0 = %v", got)
	}
	if got := pickScored(SelectBoundaryNearest, []int{1, 2}, score, 5, rng); len(got) != 2 {
		t.Fatalf("pick beyond population = %v", got)
	}
}

func TestSelectionPickRandomIsSeededAndComplete(t *testing.T) {
	ids := []int{0, 1, 2, 3, 4, 5, 6, 7}
	score := func(int) float64 { return 0 }
	a := pickScored(SelectRandom, ids, score, 4, rand.New(rand.NewSource(3)))
	b := pickScored(SelectRandom, ids, score, 4, rand.New(rand.NewSource(3)))
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("random pick not reproducible for equal seeds")
		}
	}
	// All picks are members, no duplicates.
	seen := map[int]bool{}
	for _, id := range a {
		if id < 0 || id > 7 || seen[id] {
			t.Fatalf("bad pick %v", a)
		}
		seen[id] = true
	}
}

func TestQuickSelectionPickProperties(t *testing.T) {
	f := func(raw []uint8, n uint8, seed int64, random bool) bool {
		ids := make([]int, 0, len(raw))
		seen := map[int]bool{}
		for _, r := range raw {
			id := int(r % 32)
			if !seen[id] {
				seen[id] = true
				ids = append(ids, id)
			}
		}
		sel := SelectBoundaryNearest
		if random {
			sel = SelectRandom
		}
		score := func(id int) float64 { return float64(id % 5) }
		got := pickScored(sel, ids, score, int(n%40), rand.New(rand.NewSource(seed)))
		want := int(n % 40)
		if want > len(ids) {
			want = len(ids)
		}
		if len(got) != want {
			return false
		}
		dup := map[int]bool{}
		for _, id := range got {
			if !seen[id] || dup[id] {
				return false
			}
			dup[id] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestRankTableOrdersByDistanceThenID(t *testing.T) {
	c := server.NewCluster([]float64{10, 30, 20, 30})
	c.SetProtocol(&nopProto{})
	c.Initialize()
	c.ProbeAllInto(nil)
	r := ranker[float64, filter.Constraint]{c: c, q: query.At(25)}
	got, dists := r.rankNearest(c.N())
	// dists: id0=15, id1=5, id2=5, id3=5 → order [1 2 3 0]... ids 1,3 share
	// value 30 (dist 5) and id2 has dist 5 as well: tie broken by id.
	want := []int{1, 2, 3, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rankNearest = %v, want %v", got, want)
		}
	}
	if dists[0] != 5 || dists[3] != 15 {
		t.Fatalf("distances %v do not travel with their ids", dists)
	}
	// A partial ranking orders only what was asked for, and the same ids.
	if part, _ := r.rankNearest(2); part[0] != 1 || part[1] != 2 || len(part) != 4 {
		t.Fatalf("rankNearest(m=2) = %v, want [1 2 ...] over all 4 ids", part)
	}
}

// nanTableHost's table holds a NaN, which validated ingest and restore can
// never produce.
type nanTableHost struct{ server.Host }

func (nanTableHost) TableValues(dst []float64) []float64 {
	return append(dst[:0], 1, math.NaN(), 2)
}

// nanPlanarHost is nanTableHost in the plane: one point has a NaN
// coordinate.
type nanPlanarHost struct{ server.SpatialHost }

func (nanPlanarHost) TableValues(dst []filter.Point) []filter.Point {
	return append(dst[:0], filter.Point{}, filter.Point{X: math.NaN()}, filter.Point{Y: 2})
}

// TestRankTablePanicsOnNaN: a NaN distance panics the fill, before any
// comparison can scramble the order.
func TestRankTablePanicsOnNaN(t *testing.T) {
	for name, fill := range map[string]func(){
		"1-D": func() {
			r := ranker[float64, filter.Constraint]{c: nanTableHost{}, q: query.At(0)}
			r.rankNearest(1)
		},
		"planar": func() {
			r := ranker[filter.Point, filter.Region]{c: nanPlanarHost{}, q: query.Around(filter.Point{})}
			r.rankNearest(1)
		},
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != "topk: NaN key in rank table" {
					t.Errorf("NaN distance panicked the rank table with %v", r)
				}
			}()
			fill()
		})
	}
}

func TestRankTableChargesServerOps(t *testing.T) {
	c := server.NewCluster(make([]float64, 7))
	c.SetProtocol(&nopProto{})
	c.Initialize()
	before := c.Counter().ServerOps
	// The charge is one touch per stream, however few are ordered.
	r := ranker[float64, filter.Constraint]{c: c, q: query.Top()}
	r.rankNearest(2)
	if got := c.Counter().ServerOps - before; got != 7 {
		t.Fatalf("rankNearest charged %d ops, want 7", got)
	}
}

func TestMidpoint(t *testing.T) {
	if midpoint(4, 10) != 7 {
		t.Fatalf("midpoint(4,10) = %v", midpoint(4, 10))
	}
	if midpoint(-10, -4) != -7 {
		t.Fatalf("midpoint(-10,-4) = %v", midpoint(-10, -4))
	}
}

func TestSortByTableDist(t *testing.T) {
	c := server.NewCluster([]float64{100, 400, 250})
	c.SetProtocol(&nopProto{})
	c.Initialize()
	c.ProbeAllInto(nil)
	ids := []int{0, 1, 2}
	r := ranker[float64, filter.Constraint]{c: c, q: query.At(300)}
	keys := r.nearestOf(ids, len(ids))
	if !sort.Float64sAreSorted(keys) {
		t.Fatalf("not sorted: %v (keys %v)", ids, keys)
	}
	if ids[0] != 2 || ids[1] != 1 || ids[2] != 0 || keys[0] != 50 || keys[2] != 200 {
		t.Fatalf("order = %v (keys %v), want [2 1 0] ([50 100 200])", ids, keys)
	}
}

type nopProto struct{}

func (nopProto) Name() string              { return "nop" }
func (nopProto) Initialize()               {}
func (nopProto) HandleUpdate(int, float64) {}
func (nopProto) Answer() []int             { return nil }

// TestRTPExpandSearchGrowsPrefix drives the expanding search over a stale,
// useless ranking (r=0 keeps X−A empty; redrawn values outdate the table)
// and checks the lazy ordering did what it is for: searches ran off the
// first 2(ε+1)-entry prefix and extended it, and at least one of them still
// finished without ordering the whole table. The trajectory itself is
// pinned against the full-sort recording by TestProtocolPins' rtp-expand
// walk, which uses the same recipe.
func TestRTPExpandSearchGrowsPrefix(t *testing.T) {
	const n = 120
	rng := rand.New(rand.NewSource(3))
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = float64(rng.Intn(2000)) / 2
	}
	c := server.NewCluster(vals)
	p := NewRTP(c, query.At(500), RankTolerance{K: 3, R: 0})
	c.SetProtocol(p)
	c.Initialize()
	first := 2 * (p.tol.Eps() + 1)
	grown, partial := 0, 0
	for ev := 0; ev < 5000; ev++ {
		deploys := p.Deploys
		c.Deliver(rng.Intn(n), float64(rng.Intn(2000))/2)
		if p.Deploys == deploys {
			continue
		}
		if o := p.rk.Ordered(); o > first {
			grown++
			if o < n {
				partial++
			}
		}
	}
	if grown == 0 || partial == 0 {
		t.Fatalf("ordered prefix grew past %d on %d deploys, %d of them short of n=%d; want both > 0",
			first, grown, partial, n)
	}
}
