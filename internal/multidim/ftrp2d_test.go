package multidim

import (
	"math/rand"
	"sort"
	"testing"

	"adaptivefilters/internal/core"
	"adaptivefilters/internal/filter"
	"adaptivefilters/internal/server"
)

// check2DFraction validates Definition 3 for a 2-D k-NN answer by brute
// force (favorable ranks, as in the 1-D oracle).
func check2DFraction(t *testing.T, pts []Point, q Point, ans []int, k int,
	tol core.FractionTolerance, step int) {
	t.Helper()
	minA, maxA := tol.AnswerBounds(k)
	if len(ans) < minA || len(ans) > maxA {
		t.Fatalf("step %d: |A|=%d outside [%d,%d]", step, len(ans), minA, maxA)
	}
	dists := make([]float64, len(pts))
	for i, p := range pts {
		dists[i] = Dist(q, p)
	}
	sorted := append([]float64(nil), dists...)
	sort.Float64s(sorted)
	kth := sorted[k-1]
	ePlus := 0
	inAns := map[int]bool{}
	for _, id := range ans {
		inAns[id] = true
		// favorable rank: satisfied iff dist <= k-th distance
		if dists[id] > kth {
			ePlus++
		}
	}
	satisfying := 0
	eMinus := 0
	for id, d := range dists {
		if d <= kth {
			satisfying++
			if !inAns[id] {
				eMinus++
			}
		}
	}
	const slack = 1e-12
	if fp := float64(ePlus) / float64(len(ans)); fp > tol.EpsPlus+slack {
		t.Fatalf("step %d: F+ = %v > %v", step, fp, tol.EpsPlus)
	}
	if den := len(ans) - ePlus + eMinus; den > 0 {
		if fm := float64(eMinus) / float64(den); fm > tol.EpsMinus+slack {
			t.Fatalf("step %d: F- = %v > %v", step, fm, tol.EpsMinus)
		}
	}
}

func TestFTRP2DInitialization(t *testing.T) {
	q := pt(50, 50)
	c := server.NewSpatialCluster(ringPoints(30, q))
	tol := core.FractionTolerance{EpsPlus: 0.4, EpsMinus: 0.4}
	p := NewFTRP2D(c, q, 10, tol)
	c.SetProtocol(p)
	c.Initialize()
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

func TestFTRP2DFractionInvariantUnderRandomWalk(t *testing.T) {
	q := pt(0, 0)
	rng := rand.New(rand.NewSource(77))
	n := 60
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = pt(rng.Float64()*200-100, rng.Float64()*200-100)
	}
	tol := core.FractionTolerance{EpsPlus: 0.3, EpsMinus: 0.3}
	k := 12
	c := server.NewSpatialCluster(append([]Point(nil), pts...))
	p := NewFTRP2D(c, q, k, tol)
	c.SetProtocol(p)
	c.Initialize()
	check2DFraction(t, pts, q, p.Answer(), k, tol, -1)
	for step := 0; step < 3000; step++ {
		id := rng.Intn(n)
		pts[id].X += rng.NormFloat64() * 8
		pts[id].Y += rng.NormFloat64() * 8
		c.Deliver(id, pts[id])
		check2DFraction(t, pts, q, p.Answer(), k, tol, step)
	}
}

func TestFTRP2DCheaperThanPerCrossingRecompute(t *testing.T) {
	// Against a zero-tolerance strawman that rebuilds on every crossing,
	// FT-RP2D must save messages (Figure 15's story in 2-D).
	q := pt(0, 0)
	mkPts := func() []Point {
		rng := rand.New(rand.NewSource(5))
		pts := make([]Point, 80)
		for i := range pts {
			pts[i] = pt(rng.Float64()*200-100, rng.Float64()*200-100)
		}
		return pts
	}
	moves := func() [][3]float64 {
		rng := rand.New(rand.NewSource(6))
		out := make([][3]float64, 8000)
		for s := range out {
			out[s] = [3]float64{float64(rng.Intn(80)), rng.NormFloat64() * 5, rng.NormFloat64() * 5}
		}
		return out
	}

	// Tolerant run.
	pts := mkPts()
	c := server.NewSpatialCluster(append([]Point(nil), pts...))
	p := NewFTRP2D(c, q, 10, core.FractionTolerance{EpsPlus: 0.4, EpsMinus: 0.4})
	c.SetProtocol(p)
	c.Initialize()
	for _, mv := range moves() {
		id := int(mv[0])
		pts[id].X += mv[1]
		pts[id].Y += mv[2]
		c.Deliver(id, pts[id])
	}
	tolerant := c.Counter().Maintenance()

	// Zero-tolerance run (window [k,k] forces a rebuild on every change).
	pts = mkPts()
	c2 := server.NewSpatialCluster(append([]Point(nil), pts...))
	p2 := NewFTRP2D(c2, q, 10, core.FractionTolerance{})
	c2.SetProtocol(p2)
	c2.Initialize()
	for _, mv := range moves() {
		id := int(mv[0])
		pts[id].X += mv[1]
		pts[id].Y += mv[2]
		c2.Deliver(id, pts[id])
	}
	zero := c2.Counter().Maintenance()

	if tolerant*2 >= zero {
		t.Fatalf("2-D tolerance saved too little: tolerant=%d zero=%d", tolerant, zero)
	}
}

func TestFTRP2DPanics(t *testing.T) {
	c := server.NewSpatialCluster(ringPoints(5, Point{}))
	func() {
		defer func() {
			if recover() == nil {
				t.Error("bad k accepted")
			}
		}()
		NewFTRP2D(c, Point{}, 5, core.FractionTolerance{})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("bad tolerance accepted")
			}
		}()
		NewFTRP2D(c, Point{}, 2, core.FractionTolerance{EpsPlus: 0.7})
	}()
}

// installAuditHost checks every install a protocol issues against ground
// truth: the side the server claims — for a batch, the side the region puts
// the table value on — must be the side the stream is on.
type installAuditHost struct {
	*server.SpatialCluster
	t        *testing.T
	installs int
}

func (h *installAuditHost) Install(id int, reg filter.Region, expectInside bool) {
	h.audit(id, reg, expectInside)
	h.SpatialCluster.Install(id, reg, expectInside)
}

func (h *installAuditHost) InstallBatch(ids []int, reg filter.Region) {
	for _, id := range ids {
		tp, _ := h.Table(id)
		h.audit(id, reg, reg.Contains(tp))
	}
	h.SpatialCluster.InstallBatch(ids, reg)
}

func (h *installAuditHost) audit(id int, reg filter.Region, expectInside bool) {
	h.installs++
	if truth := reg.Contains(h.TrueValue(id)); truth != expectInside {
		h.t.Fatalf("install on stream %d claims inside=%v, truth is %v: the stream would report, "+
			"and the order rebuild visits streams in would become observable", id, expectInside, truth)
	}
}

// TestFTRP2DInstallsNeverMismatch is why FTRP2D.rebuild may install in
// ranked order, one batch per ranked slice: every rebuild follows a
// ProbeAll, the table is the truth, and an install whose claimed side is
// right draws no report — so the only trace the installs leave is their
// count. (TestProtocolPins' ft-rp2d walk pins the same thing end to end.)
func TestFTRP2DInstallsNeverMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	q := pt(250, 250)
	pts := make([]Point, 200)
	for i := range pts {
		pts[i] = pt(float64(rng.Intn(500)), float64(rng.Intn(500)))
	}
	h := &installAuditHost{SpatialCluster: server.NewSpatialCluster(pts), t: t}
	p := NewFTRP2D(h, q, 12, core.FractionTolerance{EpsPlus: 0.2, EpsMinus: 0.2})
	h.SetProtocol(p)
	h.Initialize()
	for ev := 0; ev < 10000; ev++ {
		id := rng.Intn(len(pts))
		pts[id].X += float64(rng.Intn(81) - 40)
		pts[id].Y += float64(rng.Intn(81) - 40)
		h.Deliver(id, pts[id])
	}
	if p.Recomputes < 10 || h.installs < 10*len(pts) {
		t.Fatalf("only %d rebuilds / %d audited installs; the walk is too quiet to prove anything",
			p.Recomputes, h.installs)
	}
}
