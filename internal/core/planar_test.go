package core_test

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"adaptivefilters/internal/core"
	"adaptivefilters/internal/filter"
	"adaptivefilters/internal/query"
	"adaptivefilters/internal/server"
)

// The planar instantiation of the rank protocols (paper §7): RTP and FT-RP
// around a query.PlanarCenter, with Euclidean distance and disk filters,
// hosted on a server.SpatialCluster.

func pt(x, y float64) filter.Point { return filter.Point{X: x, Y: y} }

// ringPoints places stream i at distance i+1 from q, spiralling, so the
// ranking is the id order.
func ringPoints(n int, q filter.Point) []filter.Point {
	pts := make([]filter.Point, n)
	for i := range pts {
		d := float64(i + 1)
		angle := float64(i) * 0.7
		pts[i] = pt(q.X+d*math.Cos(angle), q.Y+d*math.Sin(angle))
	}
	return pts
}

// requirePanics runs every case and reports the ones that return normally.
func requirePanics(t *testing.T, cases map[string]func()) {
	t.Helper()
	for name, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

// randomPoints draws n points uniform on [lo, hi)².
func randomPoints(rng *rand.Rand, n int, lo, hi float64) []filter.Point {
	pts := make([]filter.Point, n)
	for i := range pts {
		pts[i] = pt(lo+rng.Float64()*(hi-lo), lo+rng.Float64()*(hi-lo))
	}
	return pts
}

// planarDists returns every point's true distance from q.
func planarDists(q filter.Point, pts []filter.Point) []float64 {
	d := make([]float64, len(pts))
	for i, p := range pts {
		d[i] = filter.Dist(q, p)
	}
	return d
}

// rankErr checks Definition 1 by brute force over every stream's true
// distance: |A| = k and every answer's favorable rank (one plus the number
// of strictly closer streams) is at most ε = k+r.
func rankErr(dists []float64, ans []int, tol core.RankTolerance) error {
	if len(ans) != tol.K {
		return fmt.Errorf("|A| = %d, want %d", len(ans), tol.K)
	}
	for _, id := range ans {
		rank := 1
		for j, d := range dists {
			if j != id && d < dists[id] {
				rank++
			}
		}
		if rank > tol.Eps() {
			return fmt.Errorf("stream %d has rank %d > ε=%d", id, rank, tol.Eps())
		}
	}
	return nil
}

// fractionErr checks Definition 3 for a k-NN answer by brute force over
// every stream's true distance, with favorable ranks as in the 1-D oracle:
// a stream satisfies the query iff it is no farther than the k-th distance.
func fractionErr(dists []float64, ans []int, k int, tol core.FractionTolerance) error {
	minA, maxA := tol.AnswerBounds(k)
	if len(ans) < minA || len(ans) > maxA {
		return fmt.Errorf("|A|=%d outside [%d,%d]", len(ans), minA, maxA)
	}
	sorted := append([]float64(nil), dists...)
	sort.Float64s(sorted)
	kth := sorted[k-1]
	inAns := map[int]bool{}
	ePlus := 0
	for _, id := range ans {
		inAns[id] = true
		if dists[id] > kth {
			ePlus++
		}
	}
	eMinus := 0
	for id, d := range dists {
		if d <= kth && !inAns[id] {
			eMinus++
		}
	}
	const slack = 1e-12
	if fp := float64(ePlus) / float64(len(ans)); fp > tol.EpsPlus+slack {
		return fmt.Errorf("F+ = %v > %v", fp, tol.EpsPlus)
	}
	if den := len(ans) - ePlus + eMinus; den > 0 {
		if fm := float64(eMinus) / float64(den); fm > tol.EpsMinus+slack {
			return fmt.Errorf("F- = %v > %v", fm, tol.EpsMinus)
		}
	}
	return nil
}

// newPlanarRTP wires protocol and cluster together in the canonical order.
func newPlanarRTP(c *server.SpatialCluster, q filter.Point, tol core.RankTolerance) *core.RTPOf[filter.Point, filter.Region] {
	p := core.NewRTP(c, query.Around(q), tol)
	c.SetProtocol(p)
	c.Initialize()
	return p
}

func newPlanarFTRP(c *server.SpatialCluster, q filter.Point, k int, tol core.FractionTolerance) *core.FTRPOf[filter.Point, filter.Region] {
	p := core.NewFTRP(c, query.Around(q), k, core.DefaultFTRPConfig(tol))
	c.SetProtocol(p)
	c.Initialize()
	return p
}

func TestRTPPlanarInitialization(t *testing.T) {
	q := pt(50, 50)
	c := server.NewSpatialCluster(ringPoints(10, q))
	p := newPlanarRTP(c, q, core.RankTolerance{K: 2, R: 2})
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

// planarRankWalk checks Definition 1 after init and after every event of a
// seeded σ-step walk over pts.
func planarRankWalk(t *testing.T, rng *rand.Rand, pts []filter.Point, tol core.RankTolerance, steps int, sigma float64) {
	t.Helper()
	q := pt(0, 0)
	c := server.NewSpatialCluster(pts)
	p := newPlanarRTP(c, q, tol)
	if err := rankErr(planarDists(q, pts), p.Answer(), tol); err != nil {
		t.Fatalf("after init: %v", err)
	}
	for step := 0; step < steps; step++ {
		id := rng.Intn(len(pts))
		pts[id].X += rng.NormFloat64() * sigma
		pts[id].Y += rng.NormFloat64() * sigma
		c.Deliver(id, pts[id])
		if err := rankErr(planarDists(q, pts), p.Answer(), tol); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
}

func TestRTPPlanarCorrectnessUnderRandomWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	planarRankWalk(t, rng, randomPoints(rng, 25, -100, 100), core.RankTolerance{K: 3, R: 2}, 3000, 10)
}

// TestRTPPlanarEpsilonNMinusOne runs the protocol at the extreme ε = n−1:
// the deployed disk must still separate the ε-th and (ε+1)-st = n-th
// distances and the invariant must hold through churn.
func TestRTPPlanarEpsilonNMinusOne(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const n = 8
	planarRankWalk(t, rng, randomPoints(rng, n, -50, 50), core.RankTolerance{K: 3, R: n - 1 - 3}, 1500, 12)
}

// TestRTPPlanarEqualDistanceTies pins the deterministic id tie-break:
// several streams sit at exactly the disk-boundary distance, and both the
// rank table and the promotion path must resolve ties by ascending id —
// placement- and history-independent, the property the determinism matrix
// byte-diffs.
func TestRTPPlanarEqualDistanceTies(t *testing.T) {
	q := pt(0, 0)
	// Five points at distance exactly 5, two closer, one farther.
	pts := []filter.Point{
		pt(5, 0), pt(0, 5), pt(-5, 0), pt(0, -5), pt(3, 4), // dist 5, ids 0..4
		pt(1, 0), pt(0, 2), // dist 1, 2
		pt(40, 0), // dist 40
	}
	tol := core.RankTolerance{K: 4, R: 2}
	p := newPlanarRTP(server.NewSpatialCluster(pts), q, tol)
	// Ranking: 5 (d=1), 6 (d=2), then the tie group 0,1,2,3,4 by id.
	if got := p.Answer(); len(got) != 4 || got[0] != 0 || got[1] != 1 || got[2] != 5 || got[3] != 6 {
		t.Fatalf("A(t0) = %v, want [0 1 5 6] (ties by ascending id)", got)
	}
	if x := p.X(); len(x) != 6 {
		t.Fatalf("X(t0) = %v, want 6 members", x)
	}
	// A second construction over the same points picks the same ids.
	p2 := newPlanarRTP(server.NewSpatialCluster(pts), q, tol)
	got1, got2 := p.Answer(), p2.Answer()
	for i := range got1 {
		if got1[i] != got2[i] {
			t.Fatalf("tie-break not deterministic: %v vs %v", got1, got2)
		}
	}
}

func TestRTPPlanarSavesMessagesVsReportAll(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	const n, events = 60, 6000
	pts := randomPoints(rng, n, -100, 100)
	c := server.NewSpatialCluster(append([]filter.Point(nil), pts...))
	newPlanarRTP(c, pt(0, 0), core.RankTolerance{K: 3, R: 5})
	for step := 0; step < events; step++ {
		id := rng.Intn(n)
		pts[id].X += rng.NormFloat64() * 3
		pts[id].Y += rng.NormFloat64() * 3
		c.Deliver(id, pts[id])
	}
	if got := c.Counter().Maintenance(); got >= uint64(events) {
		t.Fatalf("planar RTP used %d messages for %d events; no savings", got, events)
	}
}

func TestRTPPlanarPanicsOnBadTolerance(t *testing.T) {
	c := server.NewSpatialCluster(ringPoints(3, filter.Point{}))
	origin := query.Around(filter.Point{})
	requirePanics(t, map[string]func(){
		"k=0":    func() { core.NewRTP(c, origin, core.RankTolerance{K: 0, R: 0}) },
		"ε>=n":   func() { core.NewRTP(c, origin, core.RankTolerance{K: 2, R: 1}) },
		"nan-qy": func() { core.NewRTP(c, query.Around(pt(0, math.NaN())), core.RankTolerance{K: 1, R: 0}) },
	})
}

func TestFTRPPlanarPanics(t *testing.T) {
	c := server.NewSpatialCluster(ringPoints(5, filter.Point{}))
	origin := query.Around(filter.Point{})
	requirePanics(t, map[string]func(){
		"bad k": func() { core.NewFTRP(c, origin, 5, core.DefaultFTRPConfig(core.FractionTolerance{})) },
		"bad tolerance": func() {
			core.NewFTRP(c, origin, 2, core.DefaultFTRPConfig(core.FractionTolerance{EpsPlus: 0.7}))
		},
		"nan center": func() {
			core.NewFTRP(c, query.Around(pt(math.NaN(), 0)), 2, core.DefaultFTRPConfig(core.FractionTolerance{}))
		},
	})
}

func TestFTRPPlanarInitialization(t *testing.T) {
	q := pt(50, 50)
	c := server.NewSpatialCluster(ringPoints(30, q))
	p := newPlanarFTRP(c, q, 10, core.FractionTolerance{EpsPlus: 0.4, EpsMinus: 0.4})
	ans := p.Answer()
	if len(ans) != 10 {
		t.Fatalf("|A(t0)| = %d, want 10", len(ans))
	}
	for i, id := range ans {
		if id != i {
			t.Fatalf("A(t0) = %v, want the 10 ring-closest [0..9]", ans)
		}
	}
	// R between the 10th (dist 10) and 11th (dist 11) drones.
	if r := p.Bound().A; r < 10.5-1e-9 || r > 10.5+1e-9 {
		t.Fatalf("R = %v, want ≈10.5", r)
	}
	if p.NPlus() == 0 && p.NMinus() == 0 {
		t.Fatal("no silent filters allocated at k=10, ε=0.4")
	}
}

func TestFTRPPlanarFractionInvariantUnderRandomWalk(t *testing.T) {
	q := pt(0, 0)
	rng := rand.New(rand.NewSource(77))
	const n, k = 60, 12
	pts := randomPoints(rng, n, -100, 100)
	tol := core.FractionTolerance{EpsPlus: 0.3, EpsMinus: 0.3}
	c := server.NewSpatialCluster(append([]filter.Point(nil), pts...))
	p := newPlanarFTRP(c, q, k, tol)
	if err := fractionErr(planarDists(q, pts), p.Answer(), k, tol); err != nil {
		t.Fatalf("after init: %v", err)
	}
	for step := 0; step < 3000; step++ {
		id := rng.Intn(n)
		pts[id].X += rng.NormFloat64() * 8
		pts[id].Y += rng.NormFloat64() * 8
		c.Deliver(id, pts[id])
		if err := fractionErr(planarDists(q, pts), p.Answer(), k, tol); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
}

// TestFTRPPlanarCheaperThanPerCrossingRecompute: against a zero-tolerance
// strawman that rebuilds on every crossing, planar FT-RP must save messages
// (Figure 15's story in 2-D).
func TestFTRPPlanarCheaperThanPerCrossingRecompute(t *testing.T) {
	run := func(tol core.FractionTolerance) uint64 {
		pts := randomPoints(rand.New(rand.NewSource(5)), 80, -100, 100)
		c := server.NewSpatialCluster(append([]filter.Point(nil), pts...))
		newPlanarFTRP(c, pt(0, 0), 10, tol)
		rng := rand.New(rand.NewSource(6))
		for s := 0; s < 8000; s++ {
			id := rng.Intn(80)
			pts[id].X += rng.NormFloat64() * 5
			pts[id].Y += rng.NormFloat64() * 5
			c.Deliver(id, pts[id])
		}
		return c.Counter().Maintenance()
	}
	tolerant := run(core.FractionTolerance{EpsPlus: 0.4, EpsMinus: 0.4})
	// Zero tolerance: the window [k,k] forces a rebuild on every change.
	zero := run(core.FractionTolerance{})
	if tolerant*2 >= zero {
		t.Fatalf("2-D tolerance saved too little: tolerant=%d zero=%d", tolerant, zero)
	}
}
