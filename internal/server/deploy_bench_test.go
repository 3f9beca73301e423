package server_test

import (
	"math/rand"
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
// and a table in which a seeded-random share stale of the streams is
// stale: each has moved to move(v), which stays on v's side of every
// constraint the benchmark deploys, so nothing reports and the table keeps
// the old value.
func staleCluster[V comparable, C filter.Of[V, C]](vals []V, cons C, move func(V) V, stale float64) *server.ClusterOf[V, C] {
	c := server.NewClusterOf[V, C](append([]V(nil), vals...))
	c.SetProtocol(idle[V]{})
	c.Initialize()
	c.ProbeAllInto(nil)
	c.InstallAllExcept(nil, cons)
	rng := rand.New(rand.NewSource(2))
	for i := range vals {
		if rng.Float64() < stale {
			c.Deliver(i, move(vals[i]))
		}
	}
	return c
}

// deployRow is one per-stream loop of a rank rebuild: op runs it once on
// c (i alternates the constraint), over streams streams, on a table whose
// stale share is the one the rank protocols' walks meet there.
type deployRow[V comparable, C filter.Of[V, C]] struct {
	name    string
	streams int
	stale   float64
	op      func(c *server.ClusterOf[V, C], i int, buf *[]V)
}

// deployRows are InstallAllExcept over every stream, InstallBatch over
// every other stream, InstallAllExcept skipping every 16th stream and
// ProbeAllInto, alternating the two constraints so every install replaces
// a filter. RTP's install on every stream meets a table 97.6 % stale on
// the step walks (its values moved since the rank pass without
// reporting), FT-RP's and FT-NRP's
// InstallBatch and InstallAllExcept (the silent filters' holders skipped)
// a fresh one; the probe fan-out reads the sources, whatever the table
// holds.
func deployRows[V comparable, C filter.Of[V, C]](n int, cons [2]C) []deployRow[V, C] {
	half := make([]stream.ID, 0, n/2)
	for id := 0; id < n; id += 2 {
		half = append(half, id)
	}
	var skip []stream.ID
	for id := 0; id < n; id += 16 {
		skip = append(skip, id)
	}
	return []deployRow[V, C]{
		{"install-all", n, 0.976, func(c *server.ClusterOf[V, C], i int, _ *[]V) { c.InstallAllExcept(nil, cons[i&1]) }},
		{"install-batch-half", len(half), 0, func(c *server.ClusterOf[V, C], i int, _ *[]V) { c.InstallBatch(half, cons[i&1]) }},
		{"install-all-except", n - len(skip), 0, func(c *server.ClusterOf[V, C], i int, _ *[]V) {
			c.InstallAllExcept(skip, cons[i&1])
		}},
		{"probe-all-into", n, 0.976, func(c *server.ClusterOf[V, C], _ int, buf *[]V) { *buf = c.ProbeAllInto(*buf) }},
	}
}

// benchDeploy prices each deploy row on a fresh stale cluster and reports
// ns/stream. It fails if anything reported: the rows price the loops, not
// drains.
func benchDeploy[V comparable, C filter.Of[V, C]](b *testing.B, vals []V, cons [2]C, move func(V) V) {
	for _, row := range deployRows[V, C](len(vals), cons) {
		b.Run(row.name, func(b *testing.B) {
			c := staleCluster(vals, cons[1], move, row.stale)
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

// deployData is BenchmarkDeploy's population: n = 2000 seeded-random
// values on the line and in the plane, so a value falls on either side of
// a bound at random as in the real deploys, each with the two constraints
// its rows alternate and a move that stays on a value's side of both.
func deployData() (vals []float64, cons [2]filter.Constraint, move func(float64) float64,
	pts []filter.Point, regions [2]filter.Region, movePt func(filter.Point) filter.Point) {
	rng := rand.New(rand.NewSource(1))
	vals = make([]float64, deployStreams)
	for i := range vals {
		vals[i] = float64(rng.Intn(100)) // integers: never within ¼ of a x.5 boundary
	}
	cons = [2]filter.Constraint{filter.NewInterval(20.5, 60.5), filter.NewInterval(30.5, 70.5)}
	pts = make([]filter.Point, deployStreams)
	for i := range pts {
		pts[i] = filter.Point{X: float64(rng.Intn(50)), Y: float64(rng.Intn(40))}
	}
	// Squared distances from an integer centre are integers, and the radii
	// sit between consecutive square roots, clear of a 1e-9 move.
	regions = [2]filter.Region{filter.NewDisk(filter.Point{X: 20, Y: 20}, 10.37), filter.NewDisk(filter.Point{X: 25, Y: 15}, 15.2)}
	return vals, cons, func(v float64) float64 { return v + 0.25 },
		pts, regions, func(p filter.Point) filter.Point { p.X += 1e-9; return p }
}

// BenchmarkDeploy prices a rank rebuild's per-stream loops — InstallAllExcept(nil, …),
// InstallBatch over half the ids, InstallAllExcept, ProbeAllInto — at
// n = 2000 over the
// stale shares the rank protocols meet, in 1-D (intervals) and in the
// plane (disks).
// Every row is 0 allocs/op (TestDeployAllocFree).
func BenchmarkDeploy(b *testing.B) {
	vals, cons, move, pts, regions, movePt := deployData()
	b.Run("1d", func(b *testing.B) { benchDeploy(b, vals, cons, move) })
	b.Run("2d", func(b *testing.B) { benchDeploy(b, pts, regions, movePt) })
}

// TestDeployAllocFree pins every BenchmarkDeploy row at zero allocations:
// the column kernels keep their scratch in the cluster, not on the heap
// per call.
func TestDeployAllocFree(t *testing.T) {
	vals, cons, move, pts, regions, movePt := deployData()
	t.Run("1d", func(t *testing.T) { checkDeployAllocs(t, vals, cons, move) })
	t.Run("2d", func(t *testing.T) { checkDeployAllocs(t, pts, regions, movePt) })
}

func checkDeployAllocs[V comparable, C filter.Of[V, C]](t *testing.T, vals []V, cons [2]C, move func(V) V) {
	for _, row := range deployRows[V, C](len(vals), cons) {
		t.Run(row.name, func(t *testing.T) {
			c := staleCluster(vals, cons[1], move, row.stale)
			buf := make([]V, 0, len(vals))
			i := 0
			if allocs := testing.AllocsPerRun(20, func() { row.op(c, i, &buf); i++ }); allocs != 0 {
				t.Errorf("%s allocated %.1f objects per run, want 0", row.name, allocs)
			}
		})
	}
}
