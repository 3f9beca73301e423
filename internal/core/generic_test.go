package core_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"adaptivefilters/internal/core"
	"adaptivefilters/internal/filter"
	"adaptivefilters/internal/query"
	"adaptivefilters/internal/server"
	"adaptivefilters/internal/snapshot"
)

// A third instantiation of the rank protocols, defined only here: stream
// values are points in space and filters are balls. Nothing in core, server
// or stream knows this type, so RTP and FT-RP running correctly over it
// shows their bodies depend on nothing but filter.Of and query.CenterOf.

// vec3 is a point in space.
type vec3 [3]float64

func dist3(a, b vec3) float64 {
	dx, dy, dz := a[0]-b[0], a[1]-b[1], a[2]-b[2]
	return math.Sqrt(dx*dx + dy*dy + dz*dz)
}

// ball3 is the closed ball of radius r around c. The zero value is the
// unfiltered constraint; r = +∞ is wide open and r < 0 shut.
type ball3 struct {
	set bool
	c   vec3
	r   float64
}

var _ filter.Of[vec3, ball3] = ball3{}

func (b ball3) Contains(v vec3) bool {
	switch {
	case !b.set || b.r < 0:
		return false
	case math.IsInf(b.r, 1):
		return true
	}
	return dist3(b.c, v) <= b.r
}

func (b ball3) Sides(dst []bool, vals []vec3) {
	for i, v := range vals {
		dst[i] = b.Contains(v)
	}
}

func (b ball3) Silent() bool                { return b.set && (b.r < 0 || math.IsInf(b.r, 1)) }
func (b ball3) Unfiltered() bool            { return !b.set }
func (b ball3) Recentre(vec3) (ball3, bool) { return b, false }

func (b ball3) Same(o ball3) bool {
	if b.set != o.set || math.Float64bits(b.r) != math.Float64bits(o.r) {
		return false
	}
	for i := range b.c {
		if math.Float64bits(b.c[i]) != math.Float64bits(o.c[i]) {
			return false
		}
	}
	return true
}

func (b ball3) ExportState(w *snapshot.Writer) {
	w.Bool(b.set)
	b.ExportValue(w, b.c)
	w.Float64(b.r)
}

func (b ball3) ImportState(r *snapshot.Reader) (ball3, error) {
	out := ball3{set: r.Bool(), c: b.ImportValue(r), r: r.Float64()}
	return out, r.Err()
}

func (ball3) ExportValue(w *snapshot.Writer, v vec3) {
	for _, x := range v {
		w.Float64(x)
	}
}

func (ball3) ImportValue(r *snapshot.Reader) (v vec3) {
	for i := range v {
		v[i] = r.Float64()
	}
	return v
}

// center3 is a k-NN query point in space.
type center3 struct{ q vec3 }

var _ query.CenterOf[vec3, ball3] = center3{}

func (c center3) Dists(keys []float64, vals []vec3) {
	for i, v := range vals {
		keys[i] = dist3(c.q, v)
	}
}

func (c center3) BallConstraint(d float64) ball3 { return ball3{set: true, c: c.q, r: d} }
func (c center3) WideOpen() ball3                { return c.BallConstraint(math.Inf(1)) }
func (c center3) Shut() ball3                    { return c.BallConstraint(-1) }
func (c center3) IsNaN() bool                    { return c.q != c.q }
func (c center3) String() string                 { return fmt.Sprintf("q=%v", c.q) }

// walk3 hosts build on a bare cluster over n points uniform in [0, 100)³
// and moves them by a seeded σ = 6 walk, passing every point's true
// distance from q and the answer to check after initialization and after
// every event.
func walk3(t *testing.T, seed int64, q vec3, build func(server.HostOf[vec3, ball3]) server.ProtocolOf[vec3],
	check func(dists []float64, ans []int) error) {
	t.Helper()
	const n, events = 60, 4000
	rng := rand.New(rand.NewSource(seed))
	pts := make([]vec3, n)
	for i := range pts {
		pts[i] = vec3{rng.Float64() * 100, rng.Float64() * 100, rng.Float64() * 100}
	}
	c := server.NewClusterOf[vec3, ball3](append([]vec3(nil), pts...))
	p := build(c)
	c.SetProtocol(p)
	c.Initialize()
	dists := make([]float64, n)
	verify := func(step int) {
		for i, v := range pts {
			dists[i] = dist3(q, v)
		}
		if err := check(dists, p.Answer()); err != nil {
			t.Fatalf("event %d: %v", step, err)
		}
	}
	verify(-1)
	for ev := 0; ev < events; ev++ {
		id := rng.Intn(n)
		for i := range pts[id] {
			pts[id][i] += rng.NormFloat64() * 6
		}
		c.Deliver(id, pts[id])
		verify(ev)
	}
	if c.Counter().Maintenance() >= events {
		t.Fatalf("%d maintenance messages for %d events: the filters suppressed nothing", c.Counter().Maintenance(), events)
	}
}

func TestRankProtocolsInSpace(t *testing.T) {
	q := vec3{50, 50, 50}
	t.Run("rtp", func(t *testing.T) {
		tol := core.RankTolerance{K: 4, R: 3}
		var p *core.RTPOf[vec3, ball3]
		walk3(t, 41, q, func(h server.HostOf[vec3, ball3]) server.ProtocolOf[vec3] {
			p = core.NewRTP(h, center3{q}, tol)
			return p
		}, func(dists []float64, ans []int) error { return rankErr(dists, ans, tol) })
		if p.Deploys < 2 {
			t.Fatalf("%d deploys: the walk never moved the ball", p.Deploys)
		}
	})
	t.Run("ft-rp", func(t *testing.T) {
		tol := core.FractionTolerance{EpsPlus: 0.3, EpsMinus: 0.3}
		for _, sel := range []core.Selection{core.SelectBoundaryNearest, core.SelectRandom} {
			cfg := core.DefaultFTRPConfig(tol)
			cfg.Selection, cfg.Seed = sel, 5
			var p *core.FTRPOf[vec3, ball3]
			silent := -1 // silent filters deployed at t0
			walk3(t, 42, q, func(h server.HostOf[vec3, ball3]) server.ProtocolOf[vec3] {
				p = core.NewFTRP(h, center3{q}, 20, cfg)
				return p
			}, func(dists []float64, ans []int) error {
				if silent < 0 {
					silent = p.NPlus() + p.NMinus()
				}
				return fractionErr(dists, ans, 20, tol)
			})
			if p.Recomputes < 2 || silent == 0 {
				t.Fatalf("%v: %d recomputes, %d silent filters at t0: the walk proves nothing",
					sel, p.Recomputes, silent)
			}
		}
	})
}
