package core_test

import (
	"flag"
	"math/rand"
	"testing"

	"adaptivefilters/internal/core"
	"adaptivefilters/internal/filter"
	"adaptivefilters/internal/pintest"
	"adaptivefilters/internal/query"
	"adaptivefilters/internal/server"
)

var updatePins = flag.Bool("update-pins", false, "rewrite the testdata pin files from the current code")

// pinWalk is one seeded walk of a protocol whose whole observable
// trajectory is pinned: after every event the answer, every message
// counter, ServerOps and the protocol's own rebuild counters are folded
// into a running digest, and the digest is recorded every pinEvery events.
// The rank protocols' pins were recorded with the full-sort rank tables,
// so any ranking shortcut that changes a tie-break, a charge or a message
// shows up as the first differing checkpoint.
type pinWalk[V comparable, C filter.Of[V, C]] struct {
	name  string
	n     int
	seed  int64
	jumpy bool // redraw values uniformly instead of stepping them
	build func(c *server.ClusterOf[V, C]) (p server.ProtocolOf[V], stats func() [2]uint64)
}

const (
	pinEvents = 20000
	pinEvery  = 2500
)

func rtpPin(q query.Center, tol core.RankTolerance) func(*server.Cluster) (server.Protocol, func() [2]uint64) {
	return func(c *server.Cluster) (server.Protocol, func() [2]uint64) {
		p := core.NewRTP(c, q, tol)
		return p, func() [2]uint64 { return [2]uint64{p.Deploys, p.Reinits} }
	}
}

func ftrpPin(sel core.Selection) func(*server.Cluster) (server.Protocol, func() [2]uint64) {
	return func(c *server.Cluster) (server.Protocol, func() [2]uint64) {
		cfg := core.DefaultFTRPConfig(core.FractionTolerance{EpsPlus: 0.2, EpsMinus: 0.2})
		cfg.Selection, cfg.Seed = sel, 11
		p := core.NewFTRP(c, query.At(500), 12, cfg)
		return p, func() [2]uint64 { return [2]uint64{p.Recomputes, 0} }
	}
}

func pinWalks() []pinWalk[float64, filter.Constraint] {
	return []pinWalk[float64, filter.Constraint]{
		{name: "rtp", n: 300, seed: 1, build: rtpPin(query.At(500), core.RankTolerance{K: 6, R: 4})},
		{name: "rtp-top", n: 300, seed: 2, build: rtpPin(query.Top(), core.RankTolerance{K: 6, R: 4})},
		// r=0 keeps X−A empty, so every departing answer runs the expanding
		// search; redrawn values make the stale ranking useless, so the
		// search walks far past its first ordered prefix
		// (TestRTPExpandSearchGrowsPrefix checks that on the same walk).
		{name: "rtp-expand", n: 120, seed: 3, jumpy: true, build: rtpPin(query.At(500), core.RankTolerance{K: 3, R: 0})},
		{name: "zt-rp", n: 300, seed: 4, build: func(c *server.Cluster) (server.Protocol, func() [2]uint64) {
			p := core.NewZTRP(c, query.At(500), 6)
			return p, func() [2]uint64 { return [2]uint64{p.Recomputes, 0} }
		}},
		{name: "ft-rp", n: 300, seed: 5, build: ftrpPin(core.SelectBoundaryNearest)},
		{name: "ft-rp-random", n: 300, seed: 6, build: ftrpPin(core.SelectRandom)},
		// The k-NN baselines, recorded when they kept a sorted rank index:
		// one VB-kNN walk per branch of its KNearest (two-pointer walk,
		// top-k tie extension, bottom-k prefix), and the no-filter k-NN
		// under redrawn values, whose every update moved a stream far
		// through that index.
		{name: "vb-knn", n: 300, seed: 7, build: vbknnPin(query.At(500))},
		{name: "vb-knn-top", n: 300, seed: 8, build: vbknnPin(query.Top())},
		{name: "vb-knn-bottom", n: 300, seed: 9, build: vbknnPin(query.Bottom())},
		{name: "no-filter-knn", n: 300, seed: 10, jumpy: true, build: func(c *server.Cluster) (server.Protocol, func() [2]uint64) {
			return core.NewNoFilterKNN(c, query.NewKNN(query.At(500), 6)), func() [2]uint64 { return [2]uint64{} }
		}},
		// FT-NRP over [400, 600] under both heuristics, the pseudocode's
		// Fix_Error, and with re-initialization off. Redrawn values drain
		// the silent pools, so the first two walks re-initialize and pin a
		// redeploy's installs and selection draws.
		{name: "ft-nrp", n: 300, seed: 12, jumpy: true, build: ftnrpPin(core.FTNRPConfig{})},
		{name: "ft-nrp-random", n: 300, seed: 13, jumpy: true, build: ftnrpPin(core.FTNRPConfig{Selection: core.SelectRandom})},
		{name: "ft-nrp-faithful", n: 300, seed: 14, jumpy: true, build: ftnrpPin(core.FTNRPConfig{Faithful: true})},
		{name: "ft-nrp-reinit-never", n: 300, seed: 15, build: ftnrpPin(core.FTNRPConfig{Reinit: core.ReinitNever})},
	}
}

// ftnrpPin builds FT-NRP over [400, 600] at ε⁺ = ε⁻ = 0.1 with cfg's
// selection, Fix_Error variant and re-initialization policy.
func ftnrpPin(cfg core.FTNRPConfig) func(*server.Cluster) (server.Protocol, func() [2]uint64) {
	return func(c *server.Cluster) (server.Protocol, func() [2]uint64) {
		cfg.Tol, cfg.Seed = core.FractionTolerance{EpsPlus: 0.1, EpsMinus: 0.1}, 11
		p := core.NewFTNRP(c, query.NewRange(400, 600), cfg)
		return p, func() [2]uint64 { return [2]uint64{0, p.Reinits} }
	}
}

func vbknnPin(q query.Center) func(*server.Cluster) (server.Protocol, func() [2]uint64) {
	return func(c *server.Cluster) (server.Protocol, func() [2]uint64) {
		return core.NewVBKNN(c, query.NewKNN(q, 6), 20), func() [2]uint64 { return [2]uint64{} }
	}
}

// pinWalksPlanar are the planar rank protocols' walks around (250, 250).
func pinWalksPlanar() []pinWalk[filter.Point, filter.Region] {
	return []pinWalk[filter.Point, filter.Region]{
		{name: "rtp2d", n: 300, seed: 21, build: rtpPlanarPin(core.RankTolerance{K: 6, R: 4})},
		// r=0 and redrawn points: every departing answer runs the expanding
		// search over a useless stale ranking, far past its first prefix.
		{name: "rtp2d-expand", n: 120, seed: 22, jumpy: true, build: rtpPlanarPin(core.RankTolerance{K: 3, R: 0})},
		{name: "ft-rp2d", n: 300, seed: 23, build: func(c *server.SpatialCluster) (server.SpatialProtocol, func() [2]uint64) {
			p := core.NewFTRP(c, query.Around(pt(250, 250)), 12,
				core.DefaultFTRPConfig(core.FractionTolerance{EpsPlus: 0.2, EpsMinus: 0.2}))
			return p, func() [2]uint64 { return [2]uint64{p.Recomputes, 0} }
		}},
	}
}

func rtpPlanarPin(tol core.RankTolerance) func(*server.SpatialCluster) (server.SpatialProtocol, func() [2]uint64) {
	return func(c *server.SpatialCluster) (server.SpatialProtocol, func() [2]uint64) {
		p := core.NewRTP(c, query.Around(pt(250, 250)), tol)
		return p, func() [2]uint64 { return [2]uint64{p.Deploys, p.Reinits} }
	}
}

// A coarse grid makes equal distances common, so the id tie-break is
// exercised on every walk: half-units on [0, 1000) on the line, the
// integer grid [0, 500)² (3-4-5 and its kin) in the plane.
func pinDrawLine(rng *rand.Rand) float64 { return float64(rng.Intn(2000)) / 2 }

func pinStepLine(rng *rand.Rand, v float64) float64 { return v + float64(rng.Intn(121)-60)/2 }

func pinDrawPlanar(rng *rand.Rand) filter.Point {
	return pt(float64(rng.Intn(500)), float64(rng.Intn(500)))
}

func pinStepPlanar(rng *rand.Rand, p filter.Point) filter.Point {
	p.X += float64(rng.Intn(81) - 40)
	p.Y += float64(rng.Intn(81) - 40)
	return p
}

// run plays the walk — draw places a value, step moves one — and returns
// one line per checkpoint.
func (w pinWalk[V, C]) run(draw func(*rand.Rand) V, step func(*rand.Rand, V) V) (lines []string) {
	d := pintest.NewDigest()
	w.play(draw, step, func(ev int, c *server.ClusterOf[V, C], p server.ProtocolOf[V], stats [2]uint64) {
		d.Event(p.Answer(), c.Counter(), stats[0], stats[1])
		if ev%pinEvery == 0 {
			lines = append(lines, d.Checkpoint(w.name, ev, c.Counter(), stats[0], stats[1]))
		}
	})
	return lines
}

// play plays the walk and hands visit the host, the protocol and its
// rebuild counters after every event.
func (w pinWalk[V, C]) play(draw func(*rand.Rand) V, step func(*rand.Rand, V) V,
	visit func(ev int, c *server.ClusterOf[V, C], p server.ProtocolOf[V], stats [2]uint64)) {
	rng := rand.New(rand.NewSource(w.seed))
	vals := make([]V, w.n)
	for i := range vals {
		vals[i] = draw(rng)
	}
	c := server.NewClusterOf[V, C](vals)
	p, st := w.build(c)
	c.SetProtocol(p)
	c.Initialize()

	for ev := 1; ev <= pinEvents; ev++ {
		id := rng.Intn(w.n)
		if w.jumpy {
			vals[id] = draw(rng)
		} else {
			vals[id] = step(rng, vals[id])
		}
		c.Deliver(id, vals[id])
		visit(ev, c, p, st())
	}
}

// TestProtocolPins replays every walk and compares its checkpoints with
// testdata/protocol_pins.txt (the line) and testdata/planar_pins.txt.
func TestProtocolPins(t *testing.T) {
	t.Run("line", func(t *testing.T) {
		var got []string
		for _, w := range pinWalks() {
			got = append(got, w.run(pinDrawLine, pinStepLine)...)
		}
		pintest.Check(t, "testdata/protocol_pins.txt", got, *updatePins)
	})
	t.Run("planar", func(t *testing.T) {
		var got []string
		for _, w := range pinWalksPlanar() {
			got = append(got, w.run(pinDrawPlanar, pinStepPlanar)...)
		}
		pintest.Check(t, "testdata/planar_pins.txt", got, *updatePins)
	})
}
