package runtime

import (
	"context"
	"math"
	"strings"
	"testing"

	"adaptivefilters/internal/core"
	"adaptivefilters/internal/filter"
	"adaptivefilters/internal/query"
	"adaptivefilters/internal/server"
	"adaptivefilters/internal/sim"
)

// spatialSpec builds a spatial tenant spec over a deterministic point
// cloud.
func spatialSpec(name string, n int, seed int64) TenantSpec {
	rng := sim.NewRNG(seed)
	pts := make([]filter.Point, n)
	for i := range pts {
		pts[i] = filter.Point{X: rng.Uniform(0, 1000), Y: rng.Uniform(0, 1000)}
	}
	return TenantSpec{Name: name, SpatialInitial: pts,
		NewSpatial: func(h server.SpatialHost, seed int64) server.SpatialProtocol {
			return core.NewRTP(h, query.Around(filter.Point{X: 500, Y: 500}), core.RankTolerance{K: 3, R: 2})
		}}
}

// TestSpatialTenantOnNode runs a spatial tenant beside a 1-D tenant on the
// sharded runtime: ingest routes (Value, Y) locations, answers come back
// through the ordinary accessors, and the report renders it like any
// single-answer tenant.
func TestSpatialTenantOnNode(t *testing.T) {
	specs := []TenantSpec{
		spatialSpec("fleet", 20, 5),
		propSpec(0, []float64{100, 200, 300, 400, 500, 600, 700, 800, 900, 950}, nil),
	}
	node, err := NewNode(Config{Shards: 4, Seed: 42}, specs)
	if err != nil {
		t.Fatal(err)
	}
	if err := node.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer node.Stop()

	rng := sim.NewRNG(9)
	evs := make([]Event, 0, 200)
	for j := 0; j < 200; j++ {
		if j%3 == 0 {
			evs = append(evs, Event{Tenant: 1, Stream: rng.Intn(10), Value: rng.Uniform(0, 1000)})
			continue
		}
		evs = append(evs, Event{Tenant: 0, Stream: rng.Intn(20),
			Value: rng.Uniform(0, 1000), Y: rng.Uniform(0, 1000)})
	}
	if err := node.Ingest(evs); err != nil {
		t.Fatal(err)
	}
	if err := node.Drain(); err != nil {
		t.Fatal(err)
	}
	rep := node.Report()
	if !rep.Tenants[0].Alive || len(rep.Tenants[0].Answer) != 3 {
		t.Fatalf("report entry: %+v, want 3 members", rep.Tenants[0])
	}
	if rep.Tenants[0].MultiQuery {
		t.Fatal("spatial tenant reported as multi-query")
	}
	if !strings.Contains(rep.Text(), "tenant fleet") {
		t.Fatal("report text misses the spatial tenant")
	}
	if rep.Tenants[0].Counter.Maintenance() == 0 {
		t.Fatal("spatial tenant counted no maintenance messages")
	}
}

// TestSpatialIngestValidation pins the ingest trust boundary: NaN
// coordinates and Y values aimed at 1-D tenants are errors before anything
// is routed.
func TestSpatialIngestValidation(t *testing.T) {
	specs := []TenantSpec{
		spatialSpec("fleet", 8, 5),
		propSpec(0, []float64{100, 200, 300, 400, 500, 600, 700, 800, 900, 950}, nil),
	}
	node, err := NewNode(Config{Seed: 42}, specs)
	if err != nil {
		t.Fatal(err)
	}
	if err := node.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer node.Stop()

	cases := []struct {
		name string
		ev   Event
	}{
		{"nan-x", Event{Tenant: 0, Stream: 0, Value: math.NaN(), Y: 1}},
		{"nan-y", Event{Tenant: 0, Stream: 0, Value: 1, Y: math.NaN()}},
		{"y-for-1d", Event{Tenant: 1, Stream: 0, Value: 500, Y: 2}},
	}
	for _, tc := range cases {
		if err := node.Ingest([]Event{tc.ev}); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// A zero Y for a 1-D tenant stays valid.
	if err := node.Ingest([]Event{{Tenant: 1, Stream: 0, Value: 500}}); err != nil {
		t.Errorf("plain 1-D event rejected: %v", err)
	}
}

// TestSpatialSpecValidation pins admission-time spec errors.
func TestSpatialSpecValidation(t *testing.T) {
	good := spatialSpec("s", 8, 5)
	cases := []struct {
		name   string
		mutate func(*TenantSpec)
	}{
		{"no-factory", func(s *TenantSpec) { s.NewSpatial = nil }},
		{"mixed-initial", func(s *TenantSpec) { s.Initial = []float64{1, 2} }},
		{"mixed-protocol", func(s *TenantSpec) {
			s.NewProtocol = func(h server.Host, seed int64) server.Protocol { return nil }
		}},
		{"mixed-queries", func(s *TenantSpec) { s.Queries = []QuerySpec{{}} }},
		{"nan-point", func(s *TenantSpec) {
			s.SpatialInitial = append([]filter.Point(nil), s.SpatialInitial...)
			s.SpatialInitial[3] = filter.Point{X: math.NaN()}
		}},
		{"spatial-factory-without-points", func(s *TenantSpec) { s.SpatialInitial = nil }},
	}
	for _, tc := range cases {
		spec := good
		tc.mutate(&spec)
		if _, err := NewNode(Config{Seed: 1}, []TenantSpec{spec}); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if _, err := NewNode(Config{Seed: 1}, []TenantSpec{good}); err != nil {
		t.Errorf("good spatial spec rejected: %v", err)
	}
}

// TestSpatialTenantLifecycle admits and evicts a spatial tenant on a live
// node and snapshots through the cut, exercising the spatial
// record through AddTenant's shard-loop t0 path.
func TestSpatialTenantLifecycle(t *testing.T) {
	specs := []TenantSpec{
		propSpec(0, []float64{100, 200, 300, 400, 500, 600, 700, 800, 900, 950}, nil),
	}
	node, err := NewNode(Config{Shards: 2, Seed: 42}, specs)
	if err != nil {
		t.Fatal(err)
	}
	if err := node.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer node.Stop()

	ti, err := node.AddTenant(spatialSpec("late-fleet", 12, 8))
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(13)
	evs := make([]Event, 0, 100)
	for j := 0; j < 100; j++ {
		evs = append(evs, Event{Tenant: ti, Stream: rng.Intn(12),
			Value: rng.Uniform(0, 1000), Y: rng.Uniform(0, 1000)})
	}
	if err := node.Ingest(evs); err != nil {
		t.Fatal(err)
	}

	snap, err := node.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	allSpecs := append(append([]TenantSpec(nil), specs...), spatialSpec("late-fleet", 12, 8))
	restored, err := RestoreNode(Config{Shards: 1}, allSpecs, snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer restored.Stop()
	if err := restored.Drain(); err != nil {
		t.Fatal(err)
	}
	if got, want := fingerprint(restored), fingerprint(node); got != want {
		t.Fatalf("restored fingerprint diverged:\n%s\nwant:\n%s", got, want)
	}

	if err := node.RemoveTenant(ti); err != nil {
		t.Fatal(err)
	}
	if err := node.Ingest([]Event{{Tenant: ti, Stream: 0, Value: 1, Y: 1}}); err == nil {
		t.Fatal("event for removed spatial tenant accepted")
	}
}
