package core_test

import (
	"math/rand"
	"testing"

	"adaptivefilters/internal/core"
	"adaptivefilters/internal/oracle"
	"adaptivefilters/internal/query"
	"adaptivefilters/internal/server"
)

func TestVBKNNZeroWidthReportsEverything(t *testing.T) {
	c := server.NewCluster([]float64{10, 20, 30})
	p := core.NewVBKNN(c, query.TopK(1), 0)
	c.SetProtocol(p)
	c.Initialize()
	before := c.Counter().Maintenance()
	c.Deliver(0, 11)
	c.Deliver(0, 12)
	if got := c.Counter().Maintenance() - before; got != 2 {
		t.Fatalf("zero-width band suppressed updates: %d messages for 2 moves", got)
	}
	if ans := p.Answer(); len(ans) != 1 || ans[0] != 2 {
		t.Fatalf("answer = %v, want [2]", ans)
	}
}

func TestVBKNNBandSuppressesSmallMoves(t *testing.T) {
	c := server.NewCluster([]float64{100, 200, 300})
	p := core.NewVBKNN(c, query.TopK(1), 50) // half-width 25
	c.SetProtocol(p)
	c.Initialize()
	before := c.Counter().Maintenance()
	c.Deliver(2, 310) // within ±25 of 300
	c.Deliver(2, 320) // still within ±25 of 300
	if got := c.Counter().Maintenance() - before; got != 0 {
		t.Fatalf("in-band moves cost %d messages", got)
	}
	c.Deliver(2, 340) // deviates 40 > 25: report and re-center at 340
	if got := c.Counter().Maintenance() - before; got != 1 {
		t.Fatalf("band crossing cost %d messages, want 1", got)
	}
	// The band re-centered locally: 330 is now inside (|330-340| <= 25).
	c.Deliver(2, 330)
	if got := c.Counter().Maintenance() - before; got != 1 {
		t.Fatal("band did not re-center at the source")
	}
}

func TestVBKNNValueErrorBounded(t *testing.T) {
	// The value-based guarantee: the server's table never deviates from the
	// truth by more than the half-width.
	rng := rand.New(rand.NewSource(9))
	n := 50
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = rng.Float64() * 1000
	}
	width := 80.0
	c := server.NewCluster(vals)
	p := core.NewVBKNN(c, query.TopK(5), width)
	c.SetProtocol(p)
	c.Initialize()
	cur := append([]float64(nil), vals...)
	for step := 0; step < 5000; step++ {
		id := rng.Intn(n)
		cur[id] += rng.NormFloat64() * 30
		c.Deliver(id, cur[id])
		if tv := c.Table(id); abs(tv-cur[id]) > width/2 {
			t.Fatalf("step %d: table error %g exceeds half-width %g",
				step, abs(tv-cur[id]), width/2)
		}
	}
}

func TestVBKNNRankUnbounded(t *testing.T) {
	// The paper's Figure 1 point: a wide value tolerance gives NO rank
	// guarantee. Construct values packed within the band width so the
	// server's view can be arbitrarily mis-ranked.
	vals := []float64{100, 101, 102, 103, 104}
	c := server.NewCluster(vals)
	p := core.NewVBKNN(c, query.TopK(1), 50)
	c.SetProtocol(p)
	chk := oracle.NewAuditor(vals, oracle.ValueKNN(query.TopK(1), 50), 1)
	c.Initialize()
	// Drop the server-believed maximum (id 4) to the true minimum without
	// leaving its band: no report, server still returns it as the top-1.
	chk.Apply(4, 90, 0)
	c.Deliver(4, 90)
	ans := p.Answer()
	if len(ans) != 1 || ans[0] != 4 {
		t.Fatalf("answer = %v, want stale [4]", ans)
	}
	if err := chk.Audit(1, ans); err != nil || chk.WorstRank != 5 {
		t.Fatalf("stale answer audits %v with true rank %d, want a pass at rank 5 (dead last)", err, chk.WorstRank)
	}
}

func TestVBKNNPanicsOnNegativeWidth(t *testing.T) {
	c := server.NewCluster(make([]float64, 3))
	defer func() {
		if recover() == nil {
			t.Error("negative width accepted")
		}
	}()
	core.NewVBKNN(c, query.TopK(1), -1)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
