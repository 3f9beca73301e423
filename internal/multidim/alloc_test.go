package multidim

import (
	"testing"

	"adaptivefilters/internal/core"
	"adaptivefilters/internal/server"
	"adaptivefilters/internal/sim"
)

// TestProtocolStepAllocFree is internal/core's zero-allocation step pinned
// for the planar rank protocols: after one warm pass of a seeded 20k-event
// walk over 2000 points, further passes — rank-table rebuilds, disk
// installs, accounting — allocate nothing. RTP2D keeps its sets in maps,
// and Go's maps grow a table when deleted slots fill it (two objects, in
// about one pass in two hundred, wherever the hash seed puts them), so
// the count is AllocsPerRun's rounded-down average over five passes: that
// absorbs a rehash, never an allocation per event or per rebuild.
func TestProtocolStepAllocFree(t *testing.T) {
	const n, events = 2000, 20000
	rng := sim.NewRNG(11)
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = pt(rng.Uniform(0, 1000), rng.Uniform(0, 1000))
	}
	cur := append([]Point(nil), pts...)
	ids, moves := make([]int, events), make([]Point, events)
	for i := range ids {
		id := rng.Intn(n)
		cur[id].X += rng.Normal(0, 20)
		cur[id].Y += rng.Normal(0, 20)
		ids[i], moves[i] = id, cur[id]
	}
	q := pt(500, 500)
	for _, tc := range []struct {
		name  string
		build func(h server.SpatialHost) server.SpatialProtocol
	}{
		{"rtp2d", func(h server.SpatialHost) server.SpatialProtocol {
			return NewRTP2D(h, q, core.RankTolerance{K: 20, R: 5})
		}},
		{"ft-rp2d", func(h server.SpatialHost) server.SpatialProtocol {
			return NewFTRP2D(h, q, 20, core.FractionTolerance{EpsPlus: 0.2, EpsMinus: 0.2})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := server.NewSpatialCluster(pts)
			c.SetProtocol(tc.build(c))
			c.Initialize()
			pass := func() {
				for i, id := range ids {
					c.Deliver(id, moves[i])
				}
			}
			pass()
			if allocs := testing.AllocsPerRun(5, pass); allocs != 0 {
				t.Errorf("a warm %d-event pass allocated %.1f objects, want 0", events, allocs)
			}
		})
	}
}
