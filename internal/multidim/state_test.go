package multidim

import (
	"bytes"
	"math/rand"
	"testing"

	"adaptivefilters/internal/comm"
	"adaptivefilters/internal/core"
	"adaptivefilters/internal/filter"
	"adaptivefilters/internal/server"
	"adaptivefilters/internal/snapshot"
	"adaptivefilters/internal/stream"
)

// countingHost wraps the cluster and independently tallies the
// charges each host primitive is specified to make, so the test can assert
// the cluster's counter equals the tally — i.e. that every message a 2-D
// protocol causes goes through the shared charge table and nothing pokes
// the counter directly (the legacy expandSearch drift).
type countingHost struct {
	c *server.SpatialCluster

	probes       uint64 // Probe messages
	replies      uint64 // ProbeReply messages
	installs     uint64 // Install messages
	probeIfCalls int
}

func (h *countingHost) N() int { return h.c.N() }

func (h *countingHost) Probe(id stream.ID) filter.Point {
	h.probes++
	h.replies++
	return h.c.Probe(id)
}

func (h *countingHost) ProbeIf(id stream.ID, reg filter.Region) (filter.Point, bool) {
	h.probeIfCalls++
	h.probes++
	p, ok := h.c.ProbeIf(id, reg)
	if ok {
		h.replies++
	}
	return p, ok
}

func (h *countingHost) ProbeAll() []filter.Point { return h.ProbeAllInto(nil) }

func (h *countingHost) ProbeAllInto(dst []filter.Point) []filter.Point {
	n := uint64(h.c.N())
	h.probes += n
	h.replies += n
	return h.c.ProbeAllInto(dst)
}

func (h *countingHost) ProbeBatch(ids []stream.ID) {
	h.probes += uint64(len(ids))
	h.replies += uint64(len(ids))
	h.c.ProbeBatch(ids)
}

func (h *countingHost) Install(id stream.ID, reg filter.Region, expectInside bool) {
	h.installs++
	h.c.Install(id, reg, expectInside)
}

func (h *countingHost) InstallBatch(ids []stream.ID, reg filter.Region) {
	h.installs += uint64(len(ids))
	h.c.InstallBatch(ids, reg)
}

func (h *countingHost) InstallAll(reg filter.Region) {
	h.installs += uint64(h.c.N())
	h.c.InstallAll(reg)
}

func (h *countingHost) Table(id stream.ID) (filter.Point, bool) { return h.c.Table(id) }
func (h *countingHost) TableValues(dst []filter.Point) []filter.Point {
	return h.c.TableValues(dst)
}
func (h *countingHost) AddServerOps(n int) { h.c.AddServerOps(n) }

// TestSpatialChargeParity runs RTP2D through a churn-heavy walk behind the
// counting wrapper and asserts the cluster's counter holds exactly the
// charges the host primitives specify, across both phases and including the
// conditional expanding-search probes (which must have fired).
func TestSpatialChargeParity(t *testing.T) {
	q := pt(0, 0)
	rng := rand.New(rand.NewSource(21))
	n := 30
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = pt(rng.Float64()*120-60, rng.Float64()*120-60)
	}
	c := server.NewSpatialCluster(append([]Point(nil), pts...))
	h := &countingHost{c: c}
	p := NewRTP2D(h, q, core.RankTolerance{K: 4, R: 3})
	c.SetProtocol(p)
	c.Initialize()
	for step := 0; step < 4000; step++ {
		id := rng.Intn(n)
		pts[id].X += rng.NormFloat64() * 15
		pts[id].Y += rng.NormFloat64() * 15
		c.Deliver(id, pts[id])
	}
	if h.probeIfCalls == 0 {
		t.Fatal("walk never exercised the conditional expanding search")
	}
	ctr := c.Counter()
	both := func(k comm.Kind) uint64 {
		return ctr.Get(comm.Init, k) + ctr.Get(comm.Maintenance, k)
	}
	if got := both(comm.Probe); got != h.probes {
		t.Errorf("Probe charges = %d, host primitives specify %d", got, h.probes)
	}
	if got := both(comm.ProbeReply); got != h.replies {
		t.Errorf("ProbeReply charges = %d, host primitives specify %d", got, h.replies)
	}
	if got := both(comm.Install); got != h.installs {
		t.Errorf("Install charges = %d, host primitives specify %d", got, h.installs)
	}
}

// exportAll snapshots cluster and protocol state as one record, the way
// runtime.Node composes them.
func exportAll(c *server.SpatialCluster, p server.SpatialStatefulProtocol) []byte {
	w := snapshot.NewWriter()
	c.ExportState(w)
	p.ExportState(w)
	return w.Bytes()
}

func importAll(c *server.SpatialCluster, p server.SpatialStatefulProtocol, data []byte) error {
	r := snapshot.NewReader(data)
	if err := c.ImportState(r); err != nil {
		return err
	}
	return p.ImportState(r)
}

// runRestoreCut drives proto construction twice over the same walk with a
// snapshot/restore cut at the midpoint, asserting the restored run is
// bit-identical to the uninterrupted one afterwards.
func runRestoreCut(t *testing.T, build func(h server.SpatialHost) server.SpatialStatefulProtocol) {
	t.Helper()
	rng := rand.New(rand.NewSource(33))
	n := 40
	initial := make([]Point, n)
	for i := range initial {
		initial[i] = pt(rng.Float64()*100-50, rng.Float64()*100-50)
	}
	type move struct {
		id   int
		x, y float64
	}
	moves := make([]move, 2400)
	for i := range moves {
		moves[i] = move{rng.Intn(n), rng.NormFloat64() * 10, rng.NormFloat64() * 10}
	}

	// Uninterrupted run.
	ptsA := append([]Point(nil), initial...)
	cA := server.NewSpatialCluster(append([]Point(nil), initial...))
	pA := build(cA)
	cA.SetProtocol(pA)
	cA.Initialize()
	// Restored run: same prefix, then a snapshot/restore cut.
	ptsB := append([]Point(nil), initial...)
	cB := server.NewSpatialCluster(append([]Point(nil), initial...))
	pB := build(cB)
	cB.SetProtocol(pB)
	cB.Initialize()

	half := len(moves) / 2
	apply := func(c *server.SpatialCluster, pts []Point, mv move) {
		pts[mv.id].X += mv.x
		pts[mv.id].Y += mv.y
		c.Deliver(mv.id, pts[mv.id])
	}
	for _, mv := range moves[:half] {
		apply(cA, ptsA, mv)
		apply(cB, ptsB, mv)
	}

	// Cut: export B, restore into a fresh cluster/protocol pair.
	cut := exportAll(cB, pB)
	cR := server.NewSpatialCluster(append([]Point(nil), initial...))
	pR := build(cR)
	cR.SetProtocol(pR)
	if err := importAll(cR, pR, cut); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if again := exportAll(cR, pR); !bytes.Equal(cut, again) {
		t.Fatal("re-export after restore differs")
	}

	for _, mv := range moves[half:] {
		apply(cA, ptsA, mv)
		apply(cR, ptsB, mv)
	}
	finalA, finalR := exportAll(cA, pA), exportAll(cR, pR)
	if !bytes.Equal(finalA, finalR) {
		t.Fatal("restored run diverged from uninterrupted run")
	}
	ansA, ansR := pA.Answer(), pR.Answer()
	if len(ansA) != len(ansR) {
		t.Fatalf("answer sizes diverged: %v vs %v", ansA, ansR)
	}
	for i := range ansA {
		if ansA[i] != ansR[i] {
			t.Fatalf("answers diverged: %v vs %v", ansA, ansR)
		}
	}
}

func TestRTP2DRestoreCut(t *testing.T) {
	runRestoreCut(t, func(h server.SpatialHost) server.SpatialStatefulProtocol {
		return NewRTP2D(h, pt(0, 0), core.RankTolerance{K: 4, R: 3})
	})
}

func TestFTRP2DRestoreCut(t *testing.T) {
	runRestoreCut(t, func(h server.SpatialHost) server.SpatialStatefulProtocol {
		return NewFTRP2D(h, pt(0, 0), 6, core.FractionTolerance{EpsPlus: 0.3, EpsMinus: 0.3})
	})
}

// TestImportStateRejectsCorruption sweeps truncations and a scrambled set
// through the protocol importers: errors, never panics.
func TestImportStateRejectsCorruption(t *testing.T) {
	c := server.NewSpatialCluster(ringPoints(8, Point{}))
	p := NewRTP2D(c, Point{}, core.RankTolerance{K: 2, R: 2})
	c.SetProtocol(p)
	c.Initialize()
	w := snapshot.NewWriter()
	p.ExportState(w)
	good := w.Bytes()

	fresh := func() *RTP2D {
		c2 := server.NewSpatialCluster(ringPoints(8, Point{}))
		p2 := NewRTP2D(c2, Point{}, core.RankTolerance{K: 2, R: 2})
		c2.SetProtocol(p2)
		return p2
	}
	if err := fresh().ImportState(snapshot.NewReader(good)); err != nil {
		t.Fatalf("good state rejected: %v", err)
	}
	for cut := 0; cut < len(good); cut += 5 {
		if err := fresh().ImportState(snapshot.NewReader(good[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// Out-of-range id in the first set.
	bad := snapshot.NewWriter()
	bad.Int(1)
	bad.Int(99)
	if err := fresh().ImportState(snapshot.NewReader(bad.Bytes())); err == nil {
		t.Fatal("out-of-range set member accepted")
	}
}
