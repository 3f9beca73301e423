package server_test

import (
	"math"
	"testing"

	"adaptivefilters/internal/comm"
	"adaptivefilters/internal/core"
	"adaptivefilters/internal/filter"
	"adaptivefilters/internal/query"
	"adaptivefilters/internal/server"
	"adaptivefilters/internal/snapshot"
	"adaptivefilters/internal/stream"
)

func pts(coords ...float64) []filter.Point {
	out := make([]filter.Point, len(coords)/2)
	for i := range out {
		out[i] = filter.Point{X: coords[2*i], Y: coords[2*i+1]}
	}
	return out
}

// recorderProto is a minimal spatial protocol capturing delivered updates.
type recorderProto struct {
	host     server.SpatialHost
	updates  []spatialEvent
	onUpdate func(id stream.ID, p filter.Point)
}

type spatialEvent struct {
	id stream.ID
	p  filter.Point
}

func (r *recorderProto) Name() string { return "recorder" }
func (r *recorderProto) Initialize()  {}
func (r *recorderProto) HandleUpdate(id stream.ID, p filter.Point) {
	r.updates = append(r.updates, spatialEvent{id, p})
	if r.onUpdate != nil {
		r.onUpdate(id, p)
	}
}
func (r *recorderProto) Answer() []stream.ID { return nil }

// TestSpatialClusterCharges pins the message prices of every SpatialHost
// primitive to the shared charge rules in charges.go: a completed probe is
// Probe+ProbeReply, a conditional probe always pays the request and pays
// the reply only on a hit, installs cost one message per stream. This is
// the accounting surface the legacy 2-D cluster drifted from (probes poked
// sources and the counter directly); the spatial plane now cannot diverge
// from server.Cluster's prices.
func TestSpatialClusterCharges(t *testing.T) {
	c := server.NewSpatialCluster(pts(0, 0, 10, 0, 20, 0))
	c.SetProtocol(&recorderProto{host: c})
	c.Initialize()
	get := func(k comm.Kind) uint64 { return c.Counter().Get(comm.Maintenance, k) }

	if p := c.Probe(1); p != (filter.Point{X: 10}) {
		t.Fatalf("Probe = %v", p)
	}
	if get(comm.Probe) != 1 || get(comm.ProbeReply) != 1 {
		t.Fatalf("probe charged %d/%d, want 1/1", get(comm.Probe), get(comm.ProbeReply))
	}
	if tp := c.Table(1); tp != (filter.Point{X: 10}) {
		t.Fatalf("table not refreshed: %v", tp)
	}

	// ProbeIf miss: request paid, no reply, no table refresh.
	if _, ok := c.ProbeIf(2, filter.NewDisk(filter.Point{}, 5)); ok {
		t.Fatal("ProbeIf hit outside the region")
	}
	if get(comm.Probe) != 2 || get(comm.ProbeReply) != 1 {
		t.Fatalf("ProbeIf miss charged %d/%d, want 2/1", get(comm.Probe), get(comm.ProbeReply))
	}
	if tp := c.Table(2); tp != (filter.Point{}) {
		t.Fatalf("ProbeIf miss refreshed the table to %v", tp)
	}

	// ProbeIf hit: request and reply paid, table refreshed.
	if p, ok := c.ProbeIf(2, filter.NewDisk(filter.Point{X: 20}, 5)); !ok || p != (filter.Point{X: 20}) {
		t.Fatalf("ProbeIf hit = %v %v", p, ok)
	}
	if get(comm.Probe) != 3 || get(comm.ProbeReply) != 2 {
		t.Fatalf("ProbeIf hit charged %d/%d, want 3/2", get(comm.Probe), get(comm.ProbeReply))
	}

	// ProbeAllInto: 2n messages, whole table refreshed.
	c.ProbeAllInto(nil)
	if get(comm.Probe) != 6 || get(comm.ProbeReply) != 5 {
		t.Fatalf("ProbeAllInto charged %d/%d, want 6/5", get(comm.Probe), get(comm.ProbeReply))
	}

	// ProbeBatch: 2·len(ids).
	c.ProbeBatch([]stream.ID{0, 2})
	if get(comm.Probe) != 8 || get(comm.ProbeReply) != 7 {
		t.Fatalf("ProbeBatch charged %d/%d, want 8/7", get(comm.Probe), get(comm.ProbeReply))
	}

	// Install / InstallAllExcept prices.
	c.Install(0, filter.WideOpenRegion(filter.Point{}), true)
	if get(comm.Install) != 1 {
		t.Fatalf("Install charged %d, want 1", get(comm.Install))
	}
	c.InstallAllExcept(nil, filter.WideOpenRegion(filter.Point{}))
	if get(comm.Install) != 4 {
		t.Fatalf("InstallAllExcept charged %d, want 1+n=4", get(comm.Install))
	}
	c.InstallBatch([]stream.ID{0, 2}, filter.NewDisk(filter.Point{}, 15))
	if get(comm.Install) != 6 {
		t.Fatalf("InstallBatch charged %d, want 4+len(ids)=6", get(comm.Install))
	}
	c.InstallBatch(nil, filter.NewDisk(filter.Point{}, 15))
	if get(comm.Install) != 6 {
		t.Fatalf("empty InstallBatch charged %d, want 0", get(comm.Install)-6)
	}
}

// TestSpatialClusterDeliverCascade checks the drain discipline: an install
// mismatch report raised while the protocol handles an update is queued
// behind the in-flight update and processed afterwards, in order.
func TestSpatialClusterDeliverCascade(t *testing.T) {
	c := server.NewSpatialCluster(pts(0, 0, 50, 50))
	rec := &recorderProto{host: c}
	first := true
	// When the protocol sees its first update, it installs a mismatched
	// region on stream 1 (which sits outside the disk while the server
	// expects inside): the convergence report must be queued behind the
	// in-flight update and delivered after this handler returns.
	rec.onUpdate = func(id stream.ID, p filter.Point) {
		if first {
			first = false
			c.Install(1, filter.NewDisk(filter.Point{}, 5), true)
		}
	}
	c.SetProtocol(rec)
	c.Initialize()

	c.Deliver(0, filter.Point{X: 2, Y: 2})
	if len(rec.updates) != 2 {
		t.Fatalf("delivered %d updates, want 2 (original + cascade)", len(rec.updates))
	}
	if rec.updates[0].id != 0 || rec.updates[1].id != 1 {
		t.Fatalf("cascade order wrong: %v", rec.updates)
	}
	if got := c.Counter().Get(comm.Maintenance, comm.Update); got != 2 {
		t.Fatalf("updates counted %d, want 2", got)
	}
}

func TestSpatialClusterStateRoundTrip(t *testing.T) {
	c := server.NewSpatialCluster(pts(0, 0, 10, 0, 20, 0))
	c.SetProtocol(&recorderProto{host: c})
	c.Initialize()
	c.ProbeAllInto(nil)
	c.InstallAllExcept(nil, filter.NewDisk(filter.Point{X: 5}, 8))
	c.Deliver(1, filter.Point{X: 30, Y: 0}) // crossing: report + table refresh

	w := snapshot.NewWriter()
	c.ExportState(w)

	restored := server.NewSpatialCluster(pts(0, 0, 0, 0, 0, 0))
	restored.SetProtocol(&recorderProto{host: restored})
	if err := restored.ImportState(snapshot.NewReader(w.Bytes())); err != nil {
		t.Fatal(err)
	}
	// A restored cluster must re-export to the identical bytes.
	w2 := snapshot.NewWriter()
	restored.ExportState(w2)
	if string(w.Bytes()) != string(w2.Bytes()) {
		t.Fatal("restored cluster re-exports different bytes")
	}
	for i := 0; i < c.N(); i++ {
		if restored.TrueValue(i) != c.TrueValue(i) || restored.Constraint(i) != c.Constraint(i) {
			t.Fatalf("stream %d state mismatch after restore", i)
		}
		if c.Table(i) != restored.Table(i) {
			t.Fatalf("stream %d table mismatch after restore", i)
		}
	}
	if c.Counter().Total() != restored.Counter().Total() {
		t.Fatal("counter mismatch after restore")
	}
}

func TestSpatialClusterImportRejectsCorruption(t *testing.T) {
	c := server.NewSpatialCluster(pts(0, 0, 10, 0))
	c.SetProtocol(&recorderProto{host: c})
	c.Initialize()
	w := snapshot.NewWriter()
	c.ExportState(w)
	good := w.Bytes()

	// Stream-count mismatch.
	other := server.NewSpatialCluster(pts(0, 0))
	if err := other.ImportState(snapshot.NewReader(good)); err == nil {
		t.Fatal("stream-count mismatch imported without error")
	}
	// Truncations never panic.
	for cut := 0; cut < len(good); cut += 7 {
		fresh := server.NewSpatialCluster(pts(0, 0, 10, 0))
		if err := fresh.ImportState(snapshot.NewReader(good[:cut])); err == nil {
			t.Fatalf("truncation at %d imported without error", cut)
		}
	}
}

// TestRTP2DBatchedCrossings delivers an answer-set member's exit and an
// X-set member's exit as one batch (both reports queued before the
// protocol handles either), exercising the drain ordering: the A-exit
// repair must see the already-recorded X-exit, and the invariant holds
// after the batch drains.
func TestRTP2DBatchedCrossings(t *testing.T) {
	q := filter.Point{}
	ring := make([]filter.Point, 10) // stream i at distance i+1
	for i := range ring {
		d, angle := float64(i+1), float64(i)*0.7
		ring[i] = filter.Point{X: d * math.Cos(angle), Y: d * math.Sin(angle)}
	}
	tol := core.RankTolerance{K: 2, R: 3}
	c := server.NewSpatialCluster(append([]filter.Point(nil), ring...))
	p := core.NewRTP(c, query.Around(q), tol)
	c.SetProtocol(p)
	c.Initialize()
	ans := p.Answer()
	inAns := map[int]bool{}
	for _, id := range ans {
		inAns[id] = true
	}
	xOnly := -1
	for _, id := range p.X() {
		if !inAns[id] {
			xOnly = id
			break
		}
	}
	if xOnly < 0 {
		t.Fatal("no X-only member at t0")
	}
	// Queue both exits before any protocol handling: the X member and an
	// answer member leave the disk in the same batch.
	ring[xOnly] = filter.Point{X: 500, Y: 500}
	ring[ans[0]] = filter.Point{X: -500, Y: -500}
	c.Queue(xOnly, ring[xOnly])     // queued, not yet drained
	c.Deliver(ans[0], ring[ans[0]]) // drains both, in queue order
	got := p.Answer()
	if len(got) != tol.K {
		t.Fatalf("|A| = %d, want %d", len(got), tol.K)
	}
	for _, id := range got {
		d, rank := filter.Dist(q, ring[id]), 1
		for j, pt := range ring {
			if j != id && filter.Dist(q, pt) < d {
				rank++
			}
		}
		if rank > tol.Eps() {
			t.Fatalf("stream %d has rank %d > ε=%d", id, rank, tol.Eps())
		}
	}
}

// TestSpatialClusterDeliverNaNPanics pins the cluster's ingest trust
// boundary: a NaN location is rejected at the source, before it can reach
// geometry.
func TestSpatialClusterDeliverNaNPanics(t *testing.T) {
	c := server.NewSpatialCluster(pts(0, 0, 1, 0, 2, 0, 3, 0))
	c.SetProtocol(&recorderProto{host: c})
	c.Initialize()
	defer func() {
		if recover() == nil {
			t.Error("NaN delivery did not panic")
		}
	}()
	c.Deliver(0, filter.Point{X: math.NaN()})
}
