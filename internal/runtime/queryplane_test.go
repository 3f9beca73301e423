package runtime

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"adaptivefilters/internal/comm"
	"adaptivefilters/internal/core"
	"adaptivefilters/internal/query"
	"adaptivefilters/internal/server"
	"adaptivefilters/internal/sim"
	"adaptivefilters/internal/snapshot"
)

// qpQueries is the standing-query mix the query-plane tests host on one
// composite tenant: overlapping range windows plus one rank query, so the
// composite fabric carries heterogeneous protocols.
func qpQueries(m int) []QuerySpec {
	specs := make([]QuerySpec, m)
	for j := 0; j < m; j++ {
		j := j
		if j%4 == 3 {
			specs[j] = QuerySpec{
				Name: fmt.Sprintf("rank-%d", j),
				NewProtocol: func(h server.Host, seed int64) server.Protocol {
					return core.NewRTP(h, query.At(500), core.RankTolerance{K: 4, R: 2})
				},
			}
			continue
		}
		lo := 100 + 150*float64(j)
		specs[j] = QuerySpec{
			Name: fmt.Sprintf("range-%d", j),
			NewProtocol: func(h server.Host, seed int64) server.Protocol {
				return core.NewFTNRP(h, query.NewRange(lo, lo+400), core.FTNRPConfig{
					Tol:       core.FractionTolerance{EpsPlus: 0.25, EpsMinus: 0.25},
					Selection: core.SelectRandom, // exercises the per-query seed path
					Seed:      seed,
				})
			},
		}
	}
	return specs
}

// qpSpec builds one multi-query tenant over `streams` streams with m
// standing queries.
func qpSpec(name string, m, streams int, walkSeed int64) TenantSpec {
	rng := sim.NewRNG(walkSeed)
	initial := make([]float64, streams)
	for i := range initial {
		initial[i] = rng.Uniform(0, 1000)
	}
	return TenantSpec{Name: name, Initial: initial, Queries: qpQueries(m)}
}

// qpMoves pre-generates a random walk over one tenant's partition.
func qpMoves(initial []float64, steps int, seed int64) []Event {
	rng := sim.NewRNG(seed)
	walk := append([]float64(nil), initial...)
	moves := make([]Event, steps)
	for i := range moves {
		s := rng.Intn(len(walk))
		walk[s] += rng.Normal(0, 45)
		moves[i] = Event{Tenant: 0, Stream: s, Value: walk[s]}
	}
	return moves
}

// TestMultiQueryMatchesSynchronousComposite is the routing acceptance
// check: a multi-query tenant on the sharded runtime must produce, for
// every query, the same answers and the same shared counter as the same
// composite fabric driven synchronously — at any shard count.
func TestMultiQueryMatchesSynchronousComposite(t *testing.T) {
	const m, streams, steps = 5, 60, 3000
	spec := qpSpec("mq", m, streams, 7)
	moves := qpMoves(spec.Initial, steps, 8)

	// Synchronous reference over the identical fabric. The protocol seeds
	// must match the node's derivation: tenant 0's label is 0, query j's
	// label is j.
	ref := server.NewComposite(spec.Initial)
	for j, qs := range spec.Queries {
		qs := qs
		seed := sim.DeriveSeed(42, tenantSeedStream, 0, querySeedStream, int64(j))
		ref.AddQuery(qs.Name, int64(j), func(h server.Host) server.Protocol {
			return qs.NewProtocol(h, seed)
		})
	}
	ref.Initialize()
	for _, mv := range moves {
		ref.Deliver(mv.Stream, mv.Value)
	}

	for _, shards := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			node, err := NewNode(Config{Shards: shards, Seed: 42}, []TenantSpec{spec})
			if err != nil {
				t.Fatal(err)
			}
			if err := node.Start(context.Background()); err != nil {
				t.Fatal(err)
			}
			defer node.Stop()
			for i := 0; i < len(moves); i += 97 {
				end := i + 97
				if end > len(moves) {
					end = len(moves)
				}
				if err := node.Ingest(moves[i:end]); err != nil {
					t.Fatal(err)
				}
			}
			if err := node.Drain(); err != nil {
				t.Fatal(err)
			}
			tr := node.Report().Tenants[0]
			if !tr.MultiQuery {
				t.Fatal("tenant 0 not multi-query")
			}
			for qi := 0; qi < m; qi++ {
				if got, want := tr.Queries[qi].Answer, ref.Answer(qi); !reflect.DeepEqual(got, want) {
					t.Errorf("query %d answer = %v, want %v", qi, got, want)
				}
			}
			if got, want := tr.Counter, *ref.Counter(); !reflect.DeepEqual(got, want) {
				t.Errorf("counter = %+v, want %+v", got, want)
			}
		})
	}
}

// TestQueryLifecycle drives AddQuery/RemoveQuery on a live node at several
// shard counts: trajectories must be identical everywhere, removed slots
// must become inert and never be reused, and admissions after a restore
// must continue the per-tenant seed-label sequence.
func TestQueryLifecycle(t *testing.T) {
	const streams = 40
	spec := qpSpec("lc", 2, streams, 21)
	p1 := qpMoves(spec.Initial, 800, 22)
	p2 := qpMoves(spec.Initial, 600, 23)
	p3 := qpMoves(spec.Initial, 500, 24)
	extra := qpQueries(4)[2:] // two more query specs, admitted live

	run := func(node *Node) string {
		t.Helper()
		if err := node.Ingest(p1); err != nil {
			t.Fatal(err)
		}
		if qi, err := node.AddQuery(0, extra[0]); err != nil || qi != 2 {
			t.Fatalf("AddQuery = %d, %v; want 2, nil", qi, err)
		}
		if err := node.Ingest(p2); err != nil {
			t.Fatal(err)
		}
		if err := node.RemoveQuery(0, 1); err != nil {
			t.Fatal(err)
		}
		if qi, err := node.AddQuery(0, extra[1]); err != nil || qi != 3 {
			t.Fatalf("AddQuery after removal = %d, %v; want 3, nil", qi, err)
		}
		if err := node.Ingest(p3); err != nil {
			t.Fatal(err)
		}
		if err := node.Drain(); err != nil {
			t.Fatal(err)
		}
		return node.Report().Text()
	}

	var refFP string
	for _, shards := range []int{1, 4, 8} {
		node, err := NewNode(Config{Shards: shards, Seed: 42}, []TenantSpec{spec})
		if err != nil {
			t.Fatal(err)
		}
		if err := node.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
		fp := run(node)
		node.Stop()
		if refFP == "" {
			refFP = fp
		} else if fp != refFP {
			t.Fatalf("shards=%d lifecycle fingerprint diverged:\n%s\nwant:\n%s", shards, fp, refFP)
		}
	}

	// Error paths and slot isolation.
	node, err := NewNode(Config{Shards: 2, Seed: 42}, []TenantSpec{spec})
	if err != nil {
		t.Fatal(err)
	}
	if err := node.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer node.Stop()
	if err := node.RemoveQuery(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := node.RemoveQuery(0, 1); err == nil {
		t.Fatal("double RemoveQuery succeeded")
	}
	if err := node.RemoveQuery(0, 99); err == nil {
		t.Fatal("RemoveQuery of unknown slot succeeded")
	}
	if _, err := node.AddQuery(0, QuerySpec{}); err == nil {
		t.Fatal("AddQuery with nil factory succeeded")
	}
	if _, err := node.AddQuery(99, extra[0]); err == nil {
		t.Fatal("AddQuery on unknown tenant succeeded")
	}
	if tr := node.Report().Tenants[0]; !reflect.DeepEqual(tr.Queries[1], QueryReport{}) || tr.Answer != nil {
		t.Errorf("removed query slot or multi-query answer reported: %+v", tr)
	}

	// Single-query tenants reject query-plane lifecycle calls.
	single := testSpecs(1, 10)
	sn, err := NewNode(Config{Shards: 1, Seed: 3}, single)
	if err != nil {
		t.Fatal(err)
	}
	if err := sn.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer sn.Stop()
	if _, err := sn.AddQuery(0, extra[0]); err == nil {
		t.Fatal("AddQuery on a single-query tenant succeeded")
	}
	if err := sn.RemoveQuery(0, 0); err == nil {
		t.Fatal("RemoveQuery on a single-query tenant succeeded")
	}
}

// TestMultiQuerySnapshotRestore cuts a mixed node (single + composite
// tenants, a removed query slot) at a barrier and restores at different
// shard counts: the continuation and the final snapshot bytes must be
// identical to the uninterrupted run's, and a query admitted after the
// restore must get the same seed label — hence the same trajectory — as
// one admitted at that point of the uninterrupted run.
func TestMultiQuerySnapshotRestore(t *testing.T) {
	mq := qpSpec("mq", 4, 35, 31)
	single := testSpecs(2, 20)
	specs := []TenantSpec{mq, single[0], single[1]}
	mqMoves := qpMoves(mq.Initial, 900, 32)
	sBatches := testEvents(single, 150, 41)
	extra := qpQueries(5)[4:5]

	mixFeed := func(node *Node, mvs []Event, bs [][]Event) {
		t.Helper()
		for i := 0; i < len(mvs); i += 90 {
			end := i + 90
			if end > len(mvs) {
				end = len(mvs)
			}
			if err := node.Ingest(mvs[i:end]); err != nil {
				t.Fatal(err)
			}
		}
		for _, b := range bs {
			shifted := make([]Event, len(b))
			for i, ev := range b {
				shifted[i] = Event{Tenant: ev.Tenant + 1, Stream: ev.Stream, Value: ev.Value}
			}
			if err := node.Ingest(shifted); err != nil {
				t.Fatal(err)
			}
		}
	}
	tail := func(node *Node) (string, []byte) {
		t.Helper()
		if qi, err := node.AddQuery(0, extra[0]); err != nil || qi != 4 {
			t.Fatalf("AddQuery = %d, %v; want 4, nil", qi, err)
		}
		mixFeed(node, mqMoves[450:], sBatches[len(sBatches)/2:])
		if err := node.Drain(); err != nil {
			t.Fatal(err)
		}
		snap, err := node.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		fp := fingerprint(node)
		return fp, snap
	}

	node, err := NewNode(Config{Shards: 2, Seed: 42}, specs)
	if err != nil {
		t.Fatal(err)
	}
	if err := node.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	mixFeed(node, mqMoves[:450], sBatches[:len(sBatches)/2])
	if err := node.RemoveQuery(0, 1); err != nil {
		t.Fatal(err)
	}
	cut, err := node.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	refFP, refSnap := tail(node)
	node.Stop()

	// The spec list for restore must cover every query slot ever admitted,
	// including the post-cut admission's slot.
	restoreSpecs := []TenantSpec{mq, single[0], single[1]}
	restoreSpecs[0].Queries = append(append([]QuerySpec(nil), mq.Queries...), extra[0])
	for _, shards := range []int{1, 5} {
		t.Run(fmt.Sprintf("restore-shards=%d", shards), func(t *testing.T) {
			rn, err := RestoreNode(Config{Shards: shards}, restoreSpecs, cut)
			if err != nil {
				t.Fatal(err)
			}
			if err := rn.Start(context.Background()); err != nil {
				t.Fatal(err)
			}
			fp, snap := tail(rn)
			rn.Stop()
			if fp != refFP {
				t.Errorf("restored fingerprint diverged:\n%s\nwant:\n%s", fp, refFP)
			}
			if !bytes.Equal(snap, refSnap) {
				t.Error("final snapshot after restore differs from uninterrupted run's")
			}
		})
	}

	// Mismatched restore specs must error, never panic.
	if _, err := RestoreNode(Config{}, specs, cut); err != nil {
		t.Fatalf("restoring with the original specs failed: %v", err)
	}
	wrongKind := []TenantSpec{single[0], single[0], single[1]}
	if _, err := RestoreNode(Config{}, wrongKind, cut); err == nil {
		t.Error("snapshot accepted with a single-query spec for a composite slot")
	}
	fewQueries := []TenantSpec{mq, single[0], single[1]}
	fewQueries[0].Queries = mq.Queries[:1]
	if _, err := RestoreNode(Config{}, fewQueries, cut); err == nil {
		t.Error("snapshot accepted with too few query specs")
	}
	for i := 0; i < len(cut) && i < 256; i += 7 {
		mut := append([]byte(nil), cut...)
		mut[i] ^= 0xA5
		_, _ = RestoreNode(Config{}, specs, mut) // must not panic
	}
}

// TestRestoreRefusesOldVersions: no snapshot was ever deployed at an
// earlier encoding version, so RestoreNode and ImportTenant refuse them by
// name instead of misdecoding them.
func TestRestoreRefusesOldVersions(t *testing.T) {
	seal := func(magic string, version uint64) []byte {
		w := snapshot.NewWriter()
		w.String(magic)
		w.Uint64(version)
		return sealed(w.Bytes())
	}
	for version := uint64(1); version < SnapshotVersion; version++ {
		_, err := RestoreNode(Config{}, testSpecs(1, 15), seal(snapshotMagic, version))
		if err == nil || !strings.Contains(err.Error(), "unsupported snapshot version") {
			t.Errorf("node version %d: err = %v, want unsupported snapshot version", version, err)
		}
	}
	dst, err := NewNodeLabeled(Config{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer dst.Stop()
	for version := uint64(1); version < TenantSnapshotVersion; version++ {
		_, err := dst.ImportTenant(testSpecs(1, 15)[0], seal(tenantSnapshotMagic, version))
		if err == nil || !strings.Contains(err.Error(), "unsupported tenant snapshot version") {
			t.Errorf("tenant version %d: err = %v, want unsupported tenant snapshot version", version, err)
		}
	}
}

// TestCompositeIngestStaysAllocationFree extends the zero-allocation
// invariant to the composite delivery path under backpressure: once warm,
// routing events through a multi-query tenant's fabric on the shard loops
// must not touch the allocator, even when every Ingest waits for room.
func TestCompositeIngestStaysAllocationFree(t *testing.T) {
	spec := qpSpec("alloc", 4, 50, 51)
	moves := qpMoves(spec.Initial, 2000, 52)
	// Queue counts events, so a 4-event mailbox is full after any 250-event
	// batch: each one waits for the loop's swap before it is admitted. This
	// is the only allocation test of the blocked-admission path (the others
	// size a pass to fit the default capacity).
	node, err := NewNode(Config{Shards: 2, Seed: 42, Queue: 4}, []TenantSpec{spec})
	if err != nil {
		t.Fatal(err)
	}
	if err := node.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer node.Stop()
	pass := func() {
		for i := 0; i < len(moves); i += 250 {
			end := i + 250
			if end > len(moves) {
				end = len(moves)
			}
			if err := node.Ingest(moves[i:end]); err != nil {
				t.Fatal(err)
			}
		}
		if err := node.Drain(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		pass() // warm the mailboxes and protocol scratch
	}
	allocs := testing.AllocsPerRun(3, pass)
	if allocs > 0 {
		t.Errorf("composite ingest allocated %.1f objects per pass, want 0", allocs)
	}
}

// TestMultiQueryValidation covers the spec error paths of the query plane.
func TestMultiQueryValidation(t *testing.T) {
	good := qpQueries(1)
	cases := map[string]TenantSpec{
		"both kinds": {
			Initial:     []float64{1, 2},
			NewProtocol: testSpecs(1, 2)[0].NewProtocol,
			Queries:     good,
		},
		"nil query factory": {
			Initial: []float64{1, 2},
			Queries: []QuerySpec{{Name: "broken"}},
		},
	}
	for name, spec := range cases {
		if _, err := NewNode(Config{}, []TenantSpec{spec}); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	node, err := NewNode(Config{}, []TenantSpec{qpSpec("ok", 2, 10, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(node.Report().Tenants[0].Queries); got != 2 {
		t.Fatalf("%d query slots, want 2", got)
	}
}

// TestCounterSharedAcrossQueries checks node-level accounting: a composite
// tenant contributes exactly one counter to Totals, shared by its queries,
// and phase totals stay consistent under lifecycle operations.
func TestCounterSharedAcrossQueries(t *testing.T) {
	spec := qpSpec("ctr", 3, 25, 61)
	node, err := NewNode(Config{Shards: 2, Seed: 42}, []TenantSpec{spec, testSpecs(1, 15)[0]})
	if err != nil {
		t.Fatal(err)
	}
	if err := node.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer node.Stop()
	if err := node.Ingest(qpMoves(spec.Initial, 300, 62)); err != nil {
		t.Fatal(err)
	}
	if err := node.Drain(); err != nil {
		t.Fatal(err)
	}
	rep := node.Report()
	var want comm.Counter
	want.Merge(&rep.Tenants[0].Counter)
	want.Merge(&rep.Tenants[1].Counter)
	if !reflect.DeepEqual(rep.Totals, want) {
		t.Fatalf("Totals = %+v, want %+v", rep.Totals, want)
	}
	// t0 of M queries over n streams costs 2n+n shared messages.
	n := uint64(len(spec.Initial))
	if got := rep.Tenants[0].Counter.PhaseTotal(comm.Init); got != 3*n {
		t.Fatalf("composite init total = %d, want %d", got, 3*n)
	}
}
