package multidim

import (
	"flag"
	"math/rand"
	"testing"

	"adaptivefilters/internal/core"
	"adaptivefilters/internal/pintest"
	"adaptivefilters/internal/server"
)

var updatePins = flag.Bool("update-pins", false, "rewrite testdata/protocol_pins.txt from the current code")

// pinWalk2D is the planar twin of internal/core's pinWalk: a seeded walk
// whose per-event digest of (answer, every message counter, ServerOps,
// rebuild counters) was recorded with the full-sort rank tables and must
// not move.
type pinWalk2D struct {
	name  string
	n     int
	seed  int64
	jumpy bool // redraw points uniformly instead of stepping them
	build func(c *server.SpatialCluster) (p server.SpatialProtocol, stats func() [2]uint64)
}

const (
	pinEvents = 20000
	pinEvery  = 2500
)

func rtp2dPin(tol core.RankTolerance) func(*server.SpatialCluster) (server.SpatialProtocol, func() [2]uint64) {
	return func(c *server.SpatialCluster) (server.SpatialProtocol, func() [2]uint64) {
		p := NewRTP2D(c, pt(250, 250), tol)
		return p, func() [2]uint64 { return [2]uint64{p.Deploys, p.Reinits} }
	}
}

func pinWalks2D() []pinWalk2D {
	return []pinWalk2D{
		{name: "rtp2d", n: 300, seed: 21, build: rtp2dPin(core.RankTolerance{K: 6, R: 4})},
		// r=0 and redrawn points: every departing answer runs the expanding
		// search over a useless stale ranking, far past its first prefix.
		{name: "rtp2d-expand", n: 120, seed: 22, jumpy: true, build: rtp2dPin(core.RankTolerance{K: 3, R: 0})},
		{name: "ft-rp2d", n: 300, seed: 23, build: func(c *server.SpatialCluster) (server.SpatialProtocol, func() [2]uint64) {
			p := NewFTRP2D(c, pt(250, 250), 12, core.FractionTolerance{EpsPlus: 0.2, EpsMinus: 0.2})
			return p, func() [2]uint64 { return [2]uint64{p.Recomputes, 0} }
		}},
	}
}

func (w pinWalk2D) run() (lines []string) {
	rng := rand.New(rand.NewSource(w.seed))
	// An integer grid makes equal distances common (3-4-5 and its kin), so
	// the id tie-break is exercised.
	draw := func() Point { return pt(float64(rng.Intn(500)), float64(rng.Intn(500))) }
	pts := make([]Point, w.n)
	for i := range pts {
		pts[i] = draw()
	}
	c := server.NewSpatialCluster(pts)
	p, st := w.build(c)
	c.SetProtocol(p)
	c.Initialize()

	d := pintest.NewDigest()
	for ev := 1; ev <= pinEvents; ev++ {
		id := rng.Intn(w.n)
		if w.jumpy {
			pts[id] = draw()
		} else {
			pts[id].X += float64(rng.Intn(81) - 40)
			pts[id].Y += float64(rng.Intn(81) - 40)
		}
		c.Deliver(id, pts[id])
		stats := st()
		d.Event(p.Answer(), c.Counter(), stats[0], stats[1])
		if ev%pinEvery == 0 {
			lines = append(lines, d.Checkpoint(w.name, ev, c.Counter(), stats[0], stats[1]))
		}
	}
	return lines
}

// TestProtocolPins replays every walk and compares its checkpoints with
// testdata/protocol_pins.txt.
func TestProtocolPins(t *testing.T) {
	const path = "testdata/protocol_pins.txt"
	var got []string
	for _, w := range pinWalks2D() {
		got = append(got, w.run()...)
	}
	pintest.Check(t, path, got, *updatePins)
}
