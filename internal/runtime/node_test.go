package runtime

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"adaptivefilters/internal/core"
	"adaptivefilters/internal/query"
	"adaptivefilters/internal/server"
	"adaptivefilters/internal/sim"
)

// testSpecs builds tenants with deliberately heterogeneous protocols and
// partition sizes, so shard loops do unequal work and any cross-tenant
// leakage would skew answers.
func testSpecs(tenants, streams int) []TenantSpec {
	specs := make([]TenantSpec, tenants)
	for i := range specs {
		rng := sim.NewRNG(sim.DeriveSeed(1000, int64(i)))
		initial := make([]float64, streams+i) // unequal partition sizes
		for s := range initial {
			initial[s] = rng.Uniform(0, 1000)
		}
		i := i
		specs[i] = TenantSpec{
			Name:    fmt.Sprintf("q%d", i),
			Initial: initial,
			NewProtocol: func(h server.Host, seed int64) server.Protocol {
				if i%2 == 0 {
					return core.NewFTNRP(h, query.NewRange(300, 700), core.FTNRPConfig{
						Tol:       core.FractionTolerance{EpsPlus: 0.3, EpsMinus: 0.3},
						Selection: core.SelectRandom, // exercises the seed path
						Seed:      seed,
					})
				}
				return core.NewRTP(h, query.At(500), core.RankTolerance{K: 5, R: 3})
			},
		}
	}
	return specs
}

// testEvents generates a per-tenant random walk and interleaves the tenants
// round-robin into ingest batches, mimicking a mixed ingress stream. A
// spatial tenant walks both coordinates.
func testEvents(specs []TenantSpec, perTenant, batchSize int) [][]Event {
	walks := make([][]float64, len(specs))
	ys := make([][]float64, len(specs))
	rngs := make([]*sim.RNG, len(specs))
	for i, spec := range specs {
		walks[i] = append([]float64(nil), spec.Initial...)
		for _, p := range spec.SpatialInitial {
			walks[i] = append(walks[i], p.X)
			ys[i] = append(ys[i], p.Y)
		}
		rngs[i] = sim.NewRNG(sim.DeriveSeed(2000, int64(i)))
	}
	var all []Event
	for e := 0; e < perTenant; e++ {
		for i := range specs {
			rng := rngs[i]
			s := rng.Intn(len(walks[i]))
			walks[i][s] += rng.Normal(0, 40)
			ev := Event{Tenant: i, Stream: s, Value: walks[i][s]}
			if ys[i] != nil {
				ys[i][s] += rng.Normal(0, 40)
				ev.Y = ys[i][s]
			}
			all = append(all, ev)
		}
	}
	return batched(all, batchSize)
}

// batched cuts events into ingest batches of at most size.
func batched(events []Event, size int) [][]Event {
	var out [][]Event
	for len(events) > 0 {
		n := min(size, len(events))
		out = append(out, events[:n])
		events = events[n:]
	}
	return out
}

// runNode drives one full node lifecycle and returns it quiesced (stopped).
func runNode(t *testing.T, shards int, specs []TenantSpec, batches [][]Event) *Node {
	t.Helper()
	node, err := NewNode(Config{Shards: shards, Seed: 42}, specs)
	if err != nil {
		t.Fatal(err)
	}
	if err := node.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		if err := node.Ingest(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := node.Drain(); err != nil {
		t.Fatal(err)
	}
	node.Stop()
	return node
}

// TestNodeMatchesIndependentClusters is the acceptance check: a multi-tenant
// Node must produce, for every tenant, the same answers and the same
// message counters as N independent single-tenant Clusters — at any shard
// count. Shard counts above GOMAXPROCS and above the tenant count are
// included deliberately.
func TestNodeMatchesIndependentClusters(t *testing.T) {
	specs := testSpecs(6, 40)
	batches := testEvents(specs, 400, 97)

	type ref struct {
		answer  []int
		counter interface{}
	}
	refs := make([]ref, len(specs))
	for i, spec := range specs {
		cluster := server.NewCluster(spec.Initial)
		proto := spec.NewProtocol(cluster, sim.DeriveSeed(42, tenantSeedStream, int64(i)))
		cluster.SetProtocol(proto)
		cluster.Initialize()
		for _, b := range batches {
			for _, ev := range b {
				if ev.Tenant == i {
					cluster.Deliver(ev.Stream, ev.Value)
				}
			}
		}
		refs[i] = ref{answer: proto.Answer(), counter: *cluster.Counter()}
	}

	for _, shards := range []int{1, 2, 3, 5, 8, 13} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			node := runNode(t, shards, specs, batches)
			if got := node.Shards(); got != shards {
				t.Fatalf("Shards() = %d, want %d", got, shards)
			}
			rep := node.Report()
			for i := range specs {
				if got := rep.Tenants[i].Answer; !reflect.DeepEqual(got, refs[i].answer) {
					t.Errorf("tenant %d answer = %v, want %v", i, got, refs[i].answer)
				}
				if got := rep.Tenants[i].Counter; !reflect.DeepEqual(got, refs[i].counter) {
					t.Errorf("tenant %d counter = %+v, want %+v", i, got, refs[i].counter)
				}
			}
		})
	}
}

// TestTotalsMergePerTenantCounters checks the node-level rollup equals the
// sum of the per-tenant counters, kind by kind and phase by phase.
func TestTotalsMergePerTenantCounters(t *testing.T) {
	specs := testSpecs(4, 30)
	batches := testEvents(specs, 200, 64)
	node := runNode(t, 3, specs, batches)

	rep := node.Report()
	total := rep.Totals
	var wantMaint, wantInit, wantOps uint64
	var wantEvents uint64
	for i := range specs {
		c := &rep.Tenants[i].Counter
		wantMaint += c.Maintenance()
		wantInit += c.PhaseTotal(0)
		wantOps += c.ServerOps
		wantEvents += rep.Tenants[i].Events
	}
	if total.Maintenance() != wantMaint || total.PhaseTotal(0) != wantInit || total.ServerOps != wantOps {
		t.Fatalf("Totals = %v; want maint=%d init=%d ops=%d", &total, wantMaint, wantInit, wantOps)
	}
	if wantEvents != uint64(4*200) {
		t.Fatalf("delivered events = %d, want %d", wantEvents, 4*200)
	}
}

// TestCancellationStopsIngest checks RunCells-style shutdown: cancelling
// the Start context makes Ingest refuse further work and Stop return
// promptly, and tenant state stays readable.
func TestCancellationStopsIngest(t *testing.T) {
	specs := testSpecs(3, 20)
	batches := testEvents(specs, 50, 32)
	node, err := NewNode(Config{Shards: 2, Seed: 7}, specs)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	if err := node.Start(ctx); err != nil {
		t.Fatal(err)
	}
	if err := node.Ingest(batches[0]); err != nil {
		t.Fatal(err)
	}
	cancel()
	// The loops race the cancellation; eventually every Ingest must fail.
	failed := false
	for i := 0; i < 1000 && !failed; i++ {
		failed = node.Ingest(batches[1]) != nil
	}
	node.Stop()
	if err := node.Ingest(batches[1]); err == nil {
		t.Fatal("Ingest after Stop succeeded")
	}
	if err := node.Drain(); err == nil {
		t.Fatal("Drain after Stop succeeded")
	}
	_ = node.Report() // must not panic or race after Stop
}

// TestValidation covers constructor and router error paths.
func TestValidation(t *testing.T) {
	if _, err := NewNode(Config{}, nil); err == nil {
		t.Fatal("empty tenant list accepted")
	}
	if _, err := NewNode(Config{}, []TenantSpec{{Initial: []float64{1}}}); err == nil {
		t.Fatal("nil protocol factory accepted")
	}
	specs := testSpecs(1, 10)
	if _, err := NewNode(Config{}, []TenantSpec{{NewProtocol: specs[0].NewProtocol}}); err == nil {
		t.Fatal("empty partition accepted")
	}
	node, err := NewNode(Config{}, specs)
	if err != nil {
		t.Fatal(err)
	}
	if err := node.Ingest([]Event{{Tenant: 0}}); err == nil {
		t.Fatal("Ingest before Start succeeded")
	}
	if err := node.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer node.Stop()
	if err := node.Start(context.Background()); err == nil {
		t.Fatal("double Start succeeded")
	}
	if err := node.Ingest([]Event{{Tenant: 99}}); err == nil {
		t.Fatal("unknown tenant accepted")
	}
	if err := node.Ingest([]Event{{Tenant: 0, Stream: len(specs[0].Initial)}}); err == nil {
		t.Fatal("out-of-range stream accepted")
	}
	if err := node.Ingest([]Event{{Tenant: 0, Stream: -1}}); err == nil {
		t.Fatal("negative stream accepted")
	}
	// Report wants a quiesced node: the shard loops may still be running
	// the tenants' t0 Initialize.
	if err := node.Drain(); err != nil {
		t.Fatal(err)
	}
	if name := node.Report().Tenants[0].Name; name != "q0" {
		t.Fatalf("tenant name = %q", name)
	}
	if node.NumTenants() != 1 {
		t.Fatalf("NumTenants = %d", node.NumTenants())
	}
}

// TestDefaultShardAndQueue checks Config resolution: zero values mean one
// shard, negative Shards means GOMAXPROCS.
func TestDefaultShardAndQueue(t *testing.T) {
	specs := testSpecs(2, 10)
	node, err := NewNode(Config{}, specs)
	if err != nil {
		t.Fatal(err)
	}
	if node.Shards() != 1 {
		t.Fatalf("default Shards = %d, want 1", node.Shards())
	}
	node2, err := NewNode(Config{Shards: -1}, specs)
	if err != nil {
		t.Fatal(err)
	}
	if node2.Shards() < 1 {
		t.Fatalf("GOMAXPROCS shards = %d", node2.Shards())
	}
}
