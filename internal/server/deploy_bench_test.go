package server_test

import (
	"testing"

	"adaptivefilters/internal/comm"
	"adaptivefilters/internal/filter"
	"adaptivefilters/internal/server"
	"adaptivefilters/internal/stream"
)

// idle is a protocol that handles nothing: the deploy benchmark drives the
// cluster's primitives directly.
type idle[V any] struct{}

func (idle[V]) Name() string              { return "idle" }
func (idle[V]) Initialize()               {}
func (idle[V]) HandleUpdate(stream.ID, V) {}
func (idle[V]) Answer() []stream.ID       { return nil }

// deployStreams is the stream count of the rank protocols' step walk.
const deployStreams = 2000

// staleCluster returns a cluster over vals with cons installed everywhere
// and a table that is one-sixth stale: every sixth stream has moved to
// move(v), which stays on v's side of every constraint the benchmark
// deploys, so nothing reports and the table keeps the old value.
func staleCluster[V comparable, C filter.Of[V, C]](vals []V, cons C, move func(V) V) *server.ClusterOf[V, C] {
	c := server.NewClusterOf[V, C](append([]V(nil), vals...))
	c.SetProtocol(idle[V]{})
	c.Initialize()
	c.ProbeAll()
	c.InstallAll(cons)
	for i := 0; i < len(vals); i += 6 {
		c.Deliver(i, move(vals[i]))
	}
	return c
}

// benchDeploy prices InstallAll, InstallBatch over every other stream and
// ProbeAllInto on a fresh stale cluster each, alternating the two
// constraints so every install replaces a filter, and reports ns/stream.
// It fails if anything reported: the rows price the loops, not drains.
func benchDeploy[V comparable, C filter.Of[V, C]](b *testing.B, vals []V, cons [2]C, move func(V) V) {
	half := make([]stream.ID, 0, len(vals)/2)
	for id := 0; id < len(vals); id += 2 {
		half = append(half, id)
	}
	rows := []struct {
		name    string
		streams int
		op      func(c *server.ClusterOf[V, C], i int, buf *[]V)
	}{
		{"install-all", len(vals), func(c *server.ClusterOf[V, C], i int, _ *[]V) { c.InstallAll(cons[i&1]) }},
		{"install-batch-half", len(half), func(c *server.ClusterOf[V, C], i int, _ *[]V) { c.InstallBatch(half, cons[i&1]) }},
		{"probe-all-into", len(vals), func(c *server.ClusterOf[V, C], _ int, buf *[]V) { *buf = c.ProbeAllInto(*buf) }},
	}
	for _, row := range rows {
		b.Run(row.name, func(b *testing.B) {
			c := staleCluster(vals, cons[1], move)
			buf := make([]V, 0, len(vals))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				row.op(c, i, &buf)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(row.streams), "ns/stream")
			if got := c.Counter().Get(comm.Maintenance, comm.Update); got != 0 {
				b.Fatalf("%d streams reported: the stale table crossed a boundary", got)
			}
		})
	}
}

// BenchmarkDeploy prices a rank rebuild's per-stream loops — InstallAll,
// InstallBatch over half the ids, ProbeAllInto — at n = 2000 with a
// one-sixth stale table, in 1-D (intervals) and in the plane (disks).
// Every row is 0 allocs/op.
func BenchmarkDeploy(b *testing.B) {
	b.Run("1d", func(b *testing.B) {
		vals := make([]float64, deployStreams)
		for i := range vals {
			vals[i] = float64(i % 100) // integers: never within ¼ of a x.5 boundary
		}
		cons := [2]filter.Constraint{filter.NewInterval(20.5, 60.5), filter.NewInterval(30.5, 70.5)}
		benchDeploy(b, vals, cons, func(v float64) float64 { return v + 0.25 })
	})
	b.Run("2d", func(b *testing.B) {
		pts := make([]filter.Point, deployStreams)
		for i := range pts {
			pts[i] = filter.Point{X: float64(i % 50), Y: float64(i / 50)}
		}
		// Squared distances from an integer centre are integers, and the
		// radii sit between consecutive square roots, clear of a 1e-9 move.
		cons := [2]filter.Region{filter.NewDisk(filter.Point{X: 20, Y: 20}, 10.37), filter.NewDisk(filter.Point{X: 25, Y: 15}, 15.2)}
		benchDeploy(b, pts, cons, func(p filter.Point) filter.Point { p.X += 1e-9; return p })
	})
}
