package multidim

import (
	"testing"

	"adaptivefilters/internal/core"
	"adaptivefilters/internal/server"
	"adaptivefilters/internal/sim"
)

// stepCases are the planar rank protocols the step fixture hosts, at the
// query point (500, 500) and k = 20.
var stepCases = []struct {
	name  string
	build func(h server.SpatialHost) server.SpatialProtocol
}{
	{"rtp2d", func(h server.SpatialHost) server.SpatialProtocol {
		return NewRTP2D(h, pt(500, 500), core.RankTolerance{K: 20, R: 5})
	}},
	{"ft-rp2d", func(h server.SpatialHost) server.SpatialProtocol {
		return NewFTRP2D(h, pt(500, 500), 20, core.FractionTolerance{EpsPlus: 0.2, EpsMinus: 0.2})
	}},
}

// stepWalk is internal/core's step fixture in the plane: 2000 points
// uniform on [0, 1000]² and a seeded 20k-event σ = 20 walk over them.
func stepWalk() (pts []Point, ids []int, moves []Point) {
	const n, events = 2000, 20000
	rng := sim.NewRNG(11)
	pts = make([]Point, n)
	for i := range pts {
		pts[i] = pt(rng.Uniform(0, 1000), rng.Uniform(0, 1000))
	}
	cur := append([]Point(nil), pts...)
	ids, moves = make([]int, events), make([]Point, events)
	for i := range ids {
		id := rng.Intn(n)
		cur[id].X += rng.Normal(0, 20)
		cur[id].Y += rng.Normal(0, 20)
		ids[i], moves[i] = id, cur[id]
	}
	return pts, ids, moves
}

// warmStep hosts build on a fresh cluster over pts, initializes it and
// returns a pass delivering the whole walk, already run once to warm the
// protocol's scratch and the cluster's pending queue.
func warmStep(pts []Point, ids []int, moves []Point, build func(server.SpatialHost) server.SpatialProtocol) (pass func()) {
	c := server.NewSpatialCluster(pts)
	c.SetProtocol(build(c))
	c.Initialize()
	pass = func() {
		for i, id := range ids {
			c.Deliver(id, moves[i])
		}
	}
	pass()
	return pass
}

// TestProtocolStepAllocFree is internal/core's zero-allocation step pinned
// for the planar rank protocols: after one warm pass of a seeded 20k-event
// walk over 2000 points, further passes — rank-table rebuilds, disk
// installs, accounting — allocate nothing. RTP2D keeps its sets in maps,
// and Go's maps grow a table when deleted slots fill it (two objects, in
// about one pass in two hundred, wherever the hash seed puts them), so
// the count is AllocsPerRun's rounded-down average over five passes: that
// absorbs a rehash, never an allocation per event or per rebuild.
func TestProtocolStepAllocFree(t *testing.T) {
	pts, ids, moves := stepWalk()
	for _, tc := range stepCases {
		t.Run(tc.name, func(t *testing.T) {
			pass := warmStep(pts, ids, moves, tc.build)
			if allocs := testing.AllocsPerRun(5, pass); allocs != 0 {
				t.Errorf("a warm %d-event pass allocated %.1f objects, want 0", len(ids), allocs)
			}
		})
	}
}

// BenchmarkProtocolStep prices the same warm walk: one op is a whole
// 20k-event pass, reported as ns/event.
func BenchmarkProtocolStep(b *testing.B) {
	pts, ids, moves := stepWalk()
	for _, tc := range stepCases {
		b.Run(tc.name, func(b *testing.B) {
			pass := warmStep(pts, ids, moves, tc.build)
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				pass()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(ids)), "ns/event")
		})
	}
}
