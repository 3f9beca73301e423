package multidim

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"adaptivefilters/internal/comm"
	"adaptivefilters/internal/core"
	"adaptivefilters/internal/filter"
	"adaptivefilters/internal/server"
	"adaptivefilters/internal/topk"
)

// pt builds a Point without fighting vet over unkeyed literals of the
// filter.Point alias.
func pt(x, y float64) Point { return Point{X: x, Y: y} }

func TestDist(t *testing.T) {
	if d := Dist(pt(0, 0), pt(3, 4)); d != 5 {
		t.Fatalf("Dist = %v, want 5", d)
	}
}

func ringPoints(n int, q Point) []Point {
	pts := make([]Point, n)
	for i := range pts {
		d := float64(i + 1)
		angle := float64(i) * 0.7
		pts[i] = pt(q.X+d*math.Cos(angle), q.Y+d*math.Sin(angle))
	}
	return pts
}

// newRTP2D wires protocol and façade together in the canonical order.
func newRTP2D(c *server.SpatialCluster, q Point, tol core.RankTolerance) *RTP2D {
	p := NewRTP2D(c, q, tol)
	c.SetProtocol(p)
	c.Initialize()
	return p
}

func TestRTP2DInitialization(t *testing.T) {
	q := pt(50, 50)
	c := server.NewSpatialCluster(ringPoints(10, q))
	p := newRTP2D(c, q, core.RankTolerance{K: 2, R: 2})
	if got := p.Answer(); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("A(t0) = %v, want [0 1]", got)
	}
	// Disk boundary halfway between the 4th (dist 4) and 5th (dist 5).
	if p.Bound().A != 4.5 {
		t.Fatalf("R = %v, want 4.5", p.Bound().A)
	}
	if got := c.Counter().Maintenance(); got != 0 {
		t.Fatalf("maintenance after init = %d", got)
	}
}

// brute2DRank returns the favorable rank of id among pts w.r.t. q.
func brute2DRank(pts []Point, q Point, id int) int {
	d := Dist(q, pts[id])
	rank := 1
	for j, p := range pts {
		if j != id && Dist(q, p) < d {
			rank++
		}
	}
	return rank
}

func check2D(t *testing.T, pts []Point, q Point, ans []int, tol core.RankTolerance, step int) {
	t.Helper()
	if len(ans) != tol.K {
		t.Fatalf("step %d: |A| = %d, want %d", step, len(ans), tol.K)
	}
	for _, id := range ans {
		if r := brute2DRank(pts, q, id); r > tol.Eps() {
			t.Fatalf("step %d: stream %d has rank %d > ε=%d", step, id, r, tol.Eps())
		}
	}
}

func TestRTP2DCorrectnessUnderRandomWalk(t *testing.T) {
	q := pt(0, 0)
	rng := rand.New(rand.NewSource(6))
	n := 25
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = pt(rng.Float64()*200-100, rng.Float64()*200-100)
	}
	tol := core.RankTolerance{K: 3, R: 2}
	c := server.NewSpatialCluster(pts)
	p := newRTP2D(c, q, tol)
	check2D(t, pts, q, p.Answer(), tol, -1)
	for step := 0; step < 3000; step++ {
		id := rng.Intn(n)
		pts[id].X += rng.NormFloat64() * 10
		pts[id].Y += rng.NormFloat64() * 10
		c.Deliver(id, pts[id])
		check2D(t, pts, q, p.Answer(), tol, step)
	}
}

// TestRTP2DEqualDistanceTies pins the deterministic id tie-break: several
// streams sit at exactly the disk-boundary distance, and both the rank
// table and the promotion path must resolve ties by ascending id —
// placement- and history-independent, the property the determinism CI jobs
// byte-diff.
func TestRTP2DEqualDistanceTies(t *testing.T) {
	q := pt(0, 0)
	// Five points at distance exactly 5, two closer, one farther.
	pts := []Point{
		pt(5, 0), pt(0, 5), pt(-5, 0), pt(0, -5), pt(3, 4), // dist 5, ids 0..4
		pt(1, 0), pt(0, 2), // dist 1, 2
		pt(40, 0), // dist 40
	}
	tol := core.RankTolerance{K: 4, R: 2}
	c := server.NewSpatialCluster(pts)
	p := newRTP2D(c, q, tol)
	// Ranking: 5 (d=1), 6 (d=2), then the tie group 0,1,2,3,4 by id.
	if got := p.Answer(); len(got) != 4 || got[0] != 0 || got[1] != 1 || got[2] != 5 || got[3] != 6 {
		t.Fatalf("A(t0) = %v, want [0 1 5 6] (ties by ascending id)", got)
	}
	if x := p.X(); len(x) != 6 {
		t.Fatalf("X(t0) = %v, want 6 members", x)
	}
	// Rerun with a permuted construction; same ids must win the ties.
	c2 := server.NewSpatialCluster(pts)
	p2 := newRTP2D(c2, q, tol)
	got1, got2 := p.Answer(), p2.Answer()
	for i := range got1 {
		if got1[i] != got2[i] {
			t.Fatalf("tie-break not deterministic: %v vs %v", got1, got2)
		}
	}
}

// TestRTP2DEpsilonNMinusOne runs the protocol at the extreme ε = n−1: the
// deployed disk must still separate the ε-th and (ε+1)-st = n-th distances
// and the invariant must hold through churn.
func TestRTP2DEpsilonNMinusOne(t *testing.T) {
	q := pt(0, 0)
	rng := rand.New(rand.NewSource(9))
	n := 8
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = pt(rng.Float64()*100-50, rng.Float64()*100-50)
	}
	tol := core.RankTolerance{K: 3, R: n - 1 - 3} // ε = n−1
	c := server.NewSpatialCluster(pts)
	p := newRTP2D(c, q, tol)
	check2D(t, pts, q, p.Answer(), tol, -1)
	for step := 0; step < 1500; step++ {
		id := rng.Intn(n)
		pts[id].X += rng.NormFloat64() * 12
		pts[id].Y += rng.NormFloat64() * 12
		c.Deliver(id, pts[id])
		check2D(t, pts, q, p.Answer(), tol, step)
	}
}

func TestRTP2DSavesMessagesVsReportAll(t *testing.T) {
	q := pt(0, 0)
	rng := rand.New(rand.NewSource(10))
	n := 60
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = pt(rng.Float64()*200-100, rng.Float64()*200-100)
	}
	c := server.NewSpatialCluster(append([]Point(nil), pts...))
	p := newRTP2D(c, q, core.RankTolerance{K: 3, R: 5})
	_ = p
	events := 6000
	for step := 0; step < events; step++ {
		id := rng.Intn(n)
		pts[id].X += rng.NormFloat64() * 3
		pts[id].Y += rng.NormFloat64() * 3
		c.Deliver(id, pts[id])
	}
	if got := c.Counter().Maintenance(); got >= uint64(events) {
		t.Fatalf("RTP2D used %d messages for %d events; no savings", got, events)
	}
}

func TestRTP2DPanicsOnBadTolerance(t *testing.T) {
	c := server.NewSpatialCluster(ringPoints(3, Point{}))
	defer func() {
		if recover() == nil {
			t.Error("ε >= n accepted")
		}
	}()
	NewRTP2D(c, Point{}, core.RankTolerance{K: 2, R: 1})
}

// nanTableHost feeds the rank scratch a NaN distance: its table holds a NaN
// point, something the validated ingest/restore paths can never produce.
type nanTableHost struct{ server.SpatialHost }

func (h nanTableHost) N() int { return 4 }
func (h nanTableHost) TableValues(dst []filter.Point) []filter.Point {
	dst = append(dst[:0], make([]filter.Point, h.N())...)
	dst[2].X = math.NaN()
	return dst
}
func (h nanTableHost) AddServerOps(int) {}

// TestRankTablePanicsOnNaN is the regression for the rankTable sort drift:
// the legacy sort.Slice comparator silently corrupted the ranking order
// when a NaN distance slipped in (the bug class the 1-D rank index rejects
// at Set).
// A NaN now panics at the fill, before any comparison can go wrong.
func TestRankTablePanicsOnNaN(t *testing.T) {
	defer func() {
		if r := recover(); r != "topk: NaN key in rank table" {
			t.Errorf("NaN distance panicked the rank table with %v", r)
		}
	}()
	var rk topk.Ranking
	var pts []Point
	rankNearest(&rk, &pts, nanTableHost{}, Point{}, 1)
}

// TestDeliverNaNPanics pins the façade's ingest trust boundary: a NaN
// location is rejected at the source, before it can reach geometry.
func TestDeliverNaNPanics(t *testing.T) {
	c := server.NewSpatialCluster(ringPoints(4, Point{}))
	c.SetProtocol(NewRTP2D(c, Point{}, core.RankTolerance{K: 1, R: 1}))
	c.Initialize()
	defer func() {
		if recover() == nil {
			t.Error("NaN delivery did not panic")
		}
	}()
	c.Deliver(0, pt(math.NaN(), 0))
}

func TestClusterProbeAccounting(t *testing.T) {
	c := server.NewSpatialCluster(ringPoints(4, Point{}))
	c.Counter().SetPhase(comm.Maintenance)
	c.Probe(2)
	ctr := c.Counter()
	if ctr.Get(comm.Maintenance, comm.Probe) != 1 ||
		ctr.Get(comm.Maintenance, comm.ProbeReply) != 1 {
		t.Fatalf("probe accounting: %v", ctr)
	}
	if got, known := c.Table(2); !known || got != c.TrueValue(2) {
		t.Fatal("probe did not refresh table")
	}
}

func TestSortedKeysOrdered(t *testing.T) {
	got := sortedKeys(map[int]bool{5: true, 1: true, 3: true})
	if !sort.IntsAreSorted(got) || len(got) != 3 {
		t.Fatalf("sortedKeys = %v", got)
	}
}
