package multidim

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"adaptivefilters/internal/core"
	"adaptivefilters/internal/filter"
	"adaptivefilters/internal/runtime"
	"adaptivefilters/internal/server"
	"adaptivefilters/internal/sim"
)

// TestFacadeMatchesRuntime drives the same deterministic 2-D event sequence
// through a bare synchronous server.SpatialCluster and through a
// runtime.Node hosting the same protocol as a spatial tenant — at shard
// counts 1 and 4 — and requires identical answers and identical message
// counters: the runtime adds placement, never semantics.
func TestFacadeMatchesRuntime(t *testing.T) {
	const n, steps = 30, 2000
	q := pt(500, 500)

	protocols := []struct {
		name string
		mk   func(h server.SpatialHost) server.SpatialProtocol
	}{
		{"rtp2d", func(h server.SpatialHost) server.SpatialProtocol {
			return NewRTP2D(h, q, core.RankTolerance{K: 4, R: 3})
		}},
		{"ft-rp2d", func(h server.SpatialHost) server.SpatialProtocol {
			return NewFTRP2D(h, q, 5, core.FractionTolerance{EpsPlus: 0.3, EpsMinus: 0.3})
		}},
	}
	for _, tc := range protocols {
		t.Run(tc.name, func(t *testing.T) {
			mkPoints := func() []filter.Point {
				rng := sim.NewRNG(51)
				pts := make([]filter.Point, n)
				for i := range pts {
					pts[i] = pt(rng.Uniform(0, 1000), rng.Uniform(0, 1000))
				}
				return pts
			}
			type move struct {
				id int
				p  filter.Point
			}
			mkMoves := func() []move {
				rng := sim.NewRNG(52)
				pts := mkPoints()
				moves := make([]move, steps)
				for j := range moves {
					id := rng.Intn(n)
					pts[id].X += rng.Normal(0, 30)
					pts[id].Y += rng.Normal(0, 30)
					moves[j] = move{id, pts[id]}
				}
				return moves
			}

			// Reference: the synchronous cluster.
			c := server.NewSpatialCluster(mkPoints())
			c.SetProtocol(tc.mk(c))
			c.Initialize()
			for _, m := range mkMoves() {
				c.Deliver(m.id, m.p)
			}
			wantAnswer := c.Protocol().Answer()
			wantCounter := fmt.Sprintf("%+v", *c.Counter())

			for _, shards := range []int{1, 4} {
				spec := runtime.TenantSpec{Name: "facade", SpatialInitial: mkPoints(),
					NewSpatial: func(h server.SpatialHost, seed int64) server.SpatialProtocol {
						return tc.mk(h)
					}}
				node, err := runtime.NewNode(runtime.Config{Shards: shards, Seed: 42},
					[]runtime.TenantSpec{spec})
				if err != nil {
					t.Fatal(err)
				}
				if err := node.Start(context.Background()); err != nil {
					t.Fatal(err)
				}
				evs := make([]runtime.Event, 0, steps)
				for _, m := range mkMoves() {
					evs = append(evs, runtime.Event{Stream: m.id, Value: m.p.X, Y: m.p.Y})
				}
				if err := node.Ingest(evs); err != nil {
					node.Stop()
					t.Fatal(err)
				}
				if err := node.Drain(); err != nil {
					node.Stop()
					t.Fatal(err)
				}
				if got := node.Answer(0); !reflect.DeepEqual(got, wantAnswer) {
					t.Errorf("shards=%d: answer = %v, cluster = %v", shards, got, wantAnswer)
				}
				if got := fmt.Sprintf("%+v", *node.Counter(0)); got != wantCounter {
					t.Errorf("shards=%d: counter = %s, cluster = %s", shards, got, wantCounter)
				}
				node.Stop()
			}
		})
	}
}
