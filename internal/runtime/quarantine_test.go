package runtime

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"adaptivefilters/internal/filter"
	"adaptivefilters/internal/server"
	"adaptivefilters/internal/stream"
)

// bomb wraps a protocol and panics on its n-th report.
type bomb[V any] struct {
	server.ProtocolOf[V]
	n, seen int
}

func (b *bomb[V]) HandleUpdate(id stream.ID, v V) {
	if b.seen++; b.seen == b.n {
		panic(fmt.Sprintf("bomb at report %d", b.n))
	}
	b.ProtocolOf.HandleUpdate(id, v)
}

// initBomb is a query whose t0 phase panics.
type initBomb struct{ server.Protocol }

func (initBomb) Initialize() { panic("bomb in t0") }

// withoutTenant returns the events of batch not bound for tenant bad, with
// the tenants after it renumbered one down.
func withoutTenant(batch []Event, bad int) []Event {
	var out []Event
	for _, ev := range batch {
		if ev.Tenant == bad {
			continue
		}
		if ev.Tenant > bad {
			ev.Tenant--
		}
		out = append(out, ev)
	}
	return out
}

// ingestAround ingests batch, and if the node refuses it because tenant bad
// is quarantined, ingests the rest of it again without bad's events (keeping
// the slot numbers). Any other refusal fails the test.
func ingestAround(t *testing.T, node *Node, batch []Event, bad int) {
	t.Helper()
	err := node.Ingest(batch)
	if err == nil {
		return
	}
	if !strings.Contains(err.Error(), "quarantined") {
		t.Fatal(err)
	}
	var rest []Event
	for _, ev := range batch {
		if ev.Tenant != bad {
			rest = append(rest, ev)
		}
	}
	if err := node.Ingest(rest); err != nil {
		t.Fatal(err)
	}
}

// TestQuarantine hosts a faulting tenant between two healthy shard-mates on
// one shard — a 1-D tenant before it and a planar one after it, so every
// swap holds records of all three and a skipped planar record must still
// consume its Y. The fault is a panic at the bad tenant's 5th report (a 1-D
// and a planar tenant), or in the t0 phase of a query admitted onto a live
// multi-query tenant. The node must keep serving: the shard-mates' Report
// entries equal those of a node that never hosted the bad tenant, the bad
// tenant's next ingest is refused with its name and the panic value, and
// ShardStats, Report, Snapshot and ExportTenant all show the quarantine.
func TestQuarantine(t *testing.T) {
	mate := testSpecs(1, 30)[0]
	mate.Name = "mate-line"
	planarMate := spatialSpec("mate-plane", 20, 5)
	bad1D := testSpecs(1, 30)[0]
	bad1D.Name = "bad"
	build1D := bad1D.NewProtocol
	bad1D.NewProtocol = func(h server.Host, seed int64) server.Protocol {
		return &bomb[float64]{ProtocolOf: build1D(h, seed), n: 5}
	}
	badPlanar := spatialSpec("bad", 20, 6)
	buildPlanar := badPlanar.NewSpatial
	badPlanar.NewSpatial = func(h server.SpatialHost, seed int64) server.SpatialProtocol {
		return &bomb[filter.Point]{ProtocolOf: buildPlanar(h, seed), n: 5}
	}
	badMulti := qpSpec("bad", 3, 30, 7)
	for _, tc := range []struct {
		name  string
		bad   TenantSpec
		panic string
		// admit, when set, faults the bad tenant halfway through the run.
		admit bool
	}{
		{"line", bad1D, "bomb at report 5", false},
		{"planar", badPlanar, "bomb at report 5", false},
		{"query-init", badMulti, "bomb in t0", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const bad = 1
			specs := []TenantSpec{mate, tc.bad, planarMate}
			batches := testEvents(specs, 300, 48)
			cfg := Config{Shards: 1, Seed: 17}
			node, err := NewNode(cfg, specs)
			if err != nil {
				t.Fatal(err)
			}
			if err := node.Start(context.Background()); err != nil {
				t.Fatal(err)
			}
			defer node.Stop()
			ref, err := NewNodeLabeled(cfg, []TenantSpec{mate, planarMate}, []int64{0, 2})
			if err != nil {
				t.Fatal(err)
			}
			if err := ref.Start(context.Background()); err != nil {
				t.Fatal(err)
			}
			defer ref.Stop()
			for i, b := range batches {
				if tc.admit && i == len(batches)/2 {
					if err := node.Drain(); err != nil {
						t.Fatal(err)
					}
					if _, err := node.AddQuery(bad, QuerySpec{NewProtocol: func(h server.Host, _ int64) server.Protocol {
						return initBomb{}
					}}); err != nil {
						t.Fatalf("AddQuery: %v", err)
					}
				}
				ingestAround(t, node, b, bad)
				if err := ref.Ingest(withoutTenant(b, bad)); err != nil {
					t.Fatal(err)
				}
			}
			if err := node.Drain(); err != nil {
				t.Fatal(err)
			}
			if err := ref.Drain(); err != nil {
				t.Fatal(err)
			}

			got, want := node.Report(), ref.Report()
			for i, j := range map[int]int{0: 0, 2: 1} {
				if !reflect.DeepEqual(got.Tenants[i], want.Tenants[j]) {
					t.Fatalf("shard-mate %d diverges from a node without the bad tenant:\n got %+v\nwant %+v",
						i, got.Tenants[i], want.Tenants[j])
				}
			}
			br := got.Tenants[bad]
			if !br.Alive || !br.Quarantined || br.Answer != nil || br.Queries != nil {
				t.Fatalf("bad tenant's report entry = %+v, want alive, quarantined, no answers", br)
			}
			if line := fmt.Sprintf("tenant bad events=%d counter={%v} quarantined\n", br.Events, &br.Counter); !strings.Contains(got.Text(), line) {
				t.Fatalf("report text lacks %q:\n%s", line, got.Text())
			}
			if strings.Count(got.Text(), "quarantined") != 1 {
				t.Fatalf("only the bad tenant may render as quarantined:\n%s", got.Text())
			}

			err = node.Ingest([]Event{{Tenant: bad, Stream: 0, Value: 1}})
			if err == nil || !strings.Contains(err.Error(), "(bad)") || !strings.Contains(err.Error(), tc.panic) {
				t.Fatalf("ingest for the quarantined tenant: %v; want its name and %q", err, tc.panic)
			}
			if err := node.Ingest([]Event{{Tenant: 0, Stream: 0, Value: 1}}); err != nil {
				t.Fatalf("a shard-mate's ingest: %v", err)
			}
			if st := node.ShardStats()[0]; st.Tenants != 3 || st.Quarantined != 1 {
				t.Fatalf("shard stat %+v, want 3 tenants, 1 quarantined", st)
			}
			if _, err := node.Snapshot(); err == nil || !strings.Contains(err.Error(), "quarantined") {
				t.Fatalf("Snapshot with a quarantined tenant: %v", err)
			}
			if _, err := node.ExportTenant(bad); err == nil || !strings.Contains(err.Error(), "quarantined") {
				t.Fatalf("ExportTenant of the quarantined tenant: %v", err)
			}
			if tc.admit {
				if _, err := node.AddQuery(bad, qpQueries(1)[0]); err == nil {
					t.Fatal("AddQuery onto a quarantined tenant was accepted")
				}
			}
			if err := node.RemoveTenant(bad); err != nil {
				t.Fatal(err)
			}
			if st := node.ShardStats()[0]; st.Tenants != 2 || st.Quarantined != 0 {
				t.Fatalf("after eviction: shard stat %+v, want 2 tenants, none quarantined", st)
			}
			if _, err := node.Snapshot(); err != nil {
				t.Fatalf("Snapshot after evicting the quarantined tenant: %v", err)
			}
		})
	}
}

// TestQuarantineConcurrent quarantines three tenants on different shards
// while four ingesters route concurrently, each owning two tenants: the
// loops republish the routing table at once and the ingesters read the
// refusing records as they appear. Run under -race. The five healthy
// tenants must report exactly as on a node that never hosted the others.
func TestQuarantineConcurrent(t *testing.T) {
	specs := testSpecs(8, 25)
	bombs := map[int]int{1: 3, 3: 7, 6: 11} // tenant → report that panics
	var healthy []TenantSpec
	var labels []int64
	for ti := range specs {
		n, ok := bombs[ti]
		if !ok {
			healthy = append(healthy, specs[ti])
			labels = append(labels, int64(ti))
			continue
		}
		build := specs[ti].NewProtocol
		specs[ti].NewProtocol = func(h server.Host, seed int64) server.Protocol {
			return &bomb[float64]{ProtocolOf: build(h, seed), n: n}
		}
	}
	tb := perTenantBatches(specs, 240, 24)
	node, err := NewNode(Config{Shards: 4, Seed: 42}, specs)
	if err != nil {
		t.Fatal(err)
	}
	if err := node.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer node.Stop()
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			ing := node.NewIngester()
			for k := range tb[g] {
				for _, ti := range []int{g, g + 4} {
					err := ing.Ingest(tb[ti][k])
					if _, bomb := bombs[ti]; err != nil && !(bomb && strings.Contains(err.Error(), "quarantined")) {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	for range 4 {
		<-done
	}
	if err := node.Drain(); err != nil {
		t.Fatal(err)
	}
	ref, err := NewNodeLabeled(Config{Shards: 1, Seed: 42}, healthy, labels)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer ref.Stop()
	for j, label := range labels {
		for _, b := range tb[label] {
			batch := slices.Clone(b)
			for i := range batch {
				batch[i].Tenant = j
			}
			if err := ref.Ingest(batch); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := ref.Drain(); err != nil {
		t.Fatal(err)
	}
	got, want := node.Report(), ref.Report()
	j := 0
	for ti := range specs {
		if _, bomb := bombs[ti]; bomb {
			if !got.Tenants[ti].Quarantined {
				t.Fatalf("tenant %d was not quarantined", ti)
			}
			continue
		}
		if !reflect.DeepEqual(got.Tenants[ti], want.Tenants[j]) {
			t.Fatalf("healthy tenant %d diverges:\n got %+v\nwant %+v", ti, got.Tenants[ti], want.Tenants[j])
		}
		j++
	}
	quarantined := 0
	for _, st := range node.ShardStats() {
		quarantined += st.Quarantined
	}
	if quarantined != len(bombs) {
		t.Fatalf("ShardStats count %d quarantined tenants, want %d", quarantined, len(bombs))
	}
}
