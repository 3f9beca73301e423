package runtime

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"

	"adaptivefilters/internal/server"
	"adaptivefilters/internal/sim"
)

// ingestAll feeds batches and fails the test on any error.
func ingestAll(t *testing.T, node *Node, batches [][]Event) {
	t.Helper()
	for _, b := range batches {
		if err := node.Ingest(b); err != nil {
			t.Fatal(err)
		}
	}
}

// compareLive asserts two quiesced nodes report the same slots: liveness,
// name, events, answers, full counter.
func compareLive(t *testing.T, got, want *Node) {
	t.Helper()
	g, w := got.Report(), want.Report()
	if len(g.Tenants) != len(w.Tenants) {
		t.Fatalf("%d tenant slots, want %d", len(g.Tenants), len(w.Tenants))
	}
	for ti := range w.Tenants {
		if !reflect.DeepEqual(g.Tenants[ti], w.Tenants[ti]) {
			t.Errorf("tenant %d = %+v, want %+v", ti, g.Tenants[ti], w.Tenants[ti])
		}
	}
}

// TestSnapshotRestoreBitIdentical is the tentpole acceptance check: cutting
// a run at a barrier with Snapshot and continuing on a RestoreNode'd node —
// at a different shard count — produces the same answers, counters and
// event counts as the uninterrupted run, and the final snapshots are
// byte-identical.
func TestSnapshotRestoreBitIdentical(t *testing.T) {
	specs := testSpecs(5, 30)
	batches := testEvents(specs, 300, 83)
	cut := len(batches) / 2

	// Uninterrupted reference (snapshotting must not perturb it, which the
	// comparison below also proves: the cut run drains mid-flight).
	ref := runNode(t, 3, specs, batches)

	node, err := NewNode(Config{Shards: 2, Seed: 42}, specs)
	if err != nil {
		t.Fatal(err)
	}
	if err := node.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	ingestAll(t, node, batches[:cut])
	snap, err := node.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	ingestAll(t, node, batches[cut:])
	finalSnap, err := node.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	node.Stop()
	compareLive(t, node, ref)

	for _, shards := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("restore-shards=%d", shards), func(t *testing.T) {
			rn, err := RestoreNode(Config{Shards: shards, Seed: 999 /* overridden */}, specs, snap)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := rn.TotalEvents(), uint64(cut*83); got != want {
				t.Fatalf("TotalEvents = %d, want %d", got, want)
			}
			if err := rn.Start(context.Background()); err != nil {
				t.Fatal(err)
			}
			ingestAll(t, rn, batches[cut:])
			rnSnap, err := rn.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			rn.Stop()
			compareLive(t, rn, ref)
			if !bytes.Equal(rnSnap, finalSnap) {
				t.Errorf("final snapshot after restore differs from uninterrupted run's (%d vs %d bytes)",
					len(rnSnap), len(finalSnap))
			}
		})
	}
}

// dropped returns the updates tenant ti's uplink has lost.
func dropped(node *Node, ti int) uint64 {
	return node.tenants[ti].backend.(interface{ DroppedUpdates() uint64 }).DroppedUpdates()
}

// TestLossyRestoreBitIdentical cuts a run with injected uplink loss: the
// loss position is the update count, which rides in the tenant record, so
// a node restored at another shard count drops exactly the updates the
// uninterrupted run drops. Every host writes the same uplink word, so the
// same check runs on a 1-D, a spatial and a multi-query tenant (the last
// compared through its report: it has no single answer).
func TestLossyRestoreBitIdentical(t *testing.T) {
	kinds := map[string]TenantSpec{
		"1d":      testSpecs(2, 30)[1],
		"spatial": spatialSpec("fleet", 30, 9),
		"multi":   qpSpec("mq", 3, 30, 5),
	}
	for name, spec := range kinds {
		t.Run(name, func(t *testing.T) {
			spec.UplinkLoss = 0.3
			specs := []TenantSpec{spec}
			batches := testEvents(specs, 2000, 83)
			cut := len(batches) / 2
			ref := runNode(t, 3, specs, batches)
			if dropped(ref, 0) == 0 {
				t.Fatal("the reference run dropped no update; loss was never injected")
			}

			node, err := NewNode(Config{Shards: 2, Seed: 42}, specs)
			if err != nil {
				t.Fatal(err)
			}
			if err := node.Start(context.Background()); err != nil {
				t.Fatal(err)
			}
			defer node.Stop()
			ingestAll(t, node, batches[:cut])
			snap, err := node.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			ingestAll(t, node, batches[cut:])
			finalSnap, err := node.Snapshot()
			if err != nil {
				t.Fatal(err)
			}

			rn, err := RestoreNode(Config{Shards: 4}, specs, snap)
			if err != nil {
				t.Fatal(err)
			}
			if err := rn.Start(context.Background()); err != nil {
				t.Fatal(err)
			}
			defer rn.Stop()
			ingestAll(t, rn, batches[cut:])
			rnSnap, err := rn.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if name == "multi" {
				if got, want := rn.Report().Text(), ref.Report().Text(); got != want {
					t.Errorf("restored report:\n%s\nwant:\n%s", got, want)
				}
			} else {
				compareLive(t, rn, ref)
			}
			if got, want := dropped(rn, 0), dropped(ref, 0); got != want {
				t.Errorf("restored tenant dropped %d updates, want %d", got, want)
			}
			if !bytes.Equal(rnSnap, finalSnap) {
				t.Error("final snapshot after a lossy restore differs from the uninterrupted run's")
			}
		})
	}
}

// lifecycleSchedule drives one full live-lifecycle schedule: 4 initial
// tenants, two live admissions, one eviction, mixed ingest phases. The
// returned node is quiesced but still running (caller stops it).
func lifecycleSchedule(t *testing.T, shards int) *Node {
	t.Helper()
	all := testSpecs(6, 25) // slots 0..3 initial; 4 and 5 admitted live
	p1 := testEvents(all[:4], 150, 71)
	p2 := testEvents(all[:5], 120, 64)
	p3 := testEvents(all, 100, 57)

	node, err := NewNode(Config{Shards: shards, Seed: 42}, all[:4])
	if err != nil {
		t.Fatal(err)
	}
	if err := node.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	ingestAll(t, node, p1)
	if ti, err := node.AddTenant(all[4]); err != nil || ti != 4 {
		t.Fatalf("AddTenant = %d, %v; want 4, nil", ti, err)
	}
	ingestAll(t, node, p2)
	if err := node.RemoveTenant(1); err != nil {
		t.Fatal(err)
	}
	if ti, err := node.AddTenant(all[5]); err != nil || ti != 5 {
		t.Fatalf("AddTenant = %d, %v; want 5, nil", ti, err)
	}
	for _, b := range p3 {
		kept := b[:0:0]
		for _, ev := range b {
			if ev.Tenant != 1 {
				kept = append(kept, ev)
			}
		}
		if err := node.Ingest(kept); err != nil {
			t.Fatal(err)
		}
	}
	if err := node.Drain(); err != nil {
		t.Fatal(err)
	}
	return node
}

// TestLifecycleMatchesIndependentClusters checks that tenants admitted and
// evicted on a live node behave exactly like independent single-tenant
// clusters — the same invariant the frozen-tenant-set runtime had — at
// several shard counts, and that the node's snapshot encoding is placement-
// free (byte-identical across shard counts).
func TestLifecycleMatchesIndependentClusters(t *testing.T) {
	all := testSpecs(6, 25)
	p1 := testEvents(all[:4], 150, 71)
	p2 := testEvents(all[:5], 120, 64)
	p3 := testEvents(all, 100, 57)

	// Reference: each slot as a private cluster, fed exactly the events the
	// node schedule feeds it. Slot seeds are the admission order, which
	// equals the slot index here.
	phases := map[int][][]Event{0: p1, 1: p2, 2: p3}
	present := map[int][]int{ // slot -> phases it is live in
		0: {0, 1, 2}, 1: {0, 1}, 2: {0, 1, 2}, 3: {0, 1, 2}, 4: {1, 2}, 5: {2},
	}
	type ref struct {
		answer  []int
		counter interface{}
	}
	refs := make(map[int]ref)
	for slot, phs := range present {
		cluster := server.NewCluster(all[slot].Initial)
		proto := all[slot].NewProtocol(cluster, sim.DeriveSeed(42, tenantSeedStream, int64(slot)))
		cluster.SetProtocol(proto)
		cluster.Initialize()
		for _, ph := range phs {
			for _, b := range phases[ph] {
				for _, ev := range b {
					if ev.Tenant == slot {
						cluster.Deliver(ev.Stream, ev.Value)
					}
				}
			}
		}
		refs[slot] = ref{answer: proto.Answer(), counter: *cluster.Counter()}
	}

	var firstSnap []byte
	for _, shards := range []int{1, 3, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			node := lifecycleSchedule(t, shards)
			defer node.Stop()
			if node.NumTenants() != 6 {
				t.Fatalf("NumTenants = %d, want 6", node.NumTenants())
			}
			if node.Alive(1) {
				t.Fatal("tenant 1 still alive after RemoveTenant")
			}
			rep := node.Report()
			for slot, want := range refs {
				if slot == 1 {
					continue // evicted; state intentionally unreachable
				}
				if got := rep.Tenants[slot].Answer; !reflect.DeepEqual(got, want.answer) {
					t.Errorf("slot %d answer = %v, want %v", slot, got, want.answer)
				}
				if got := rep.Tenants[slot].Counter; !reflect.DeepEqual(got, want.counter) {
					t.Errorf("slot %d counter = %+v, want %+v", slot, got, want.counter)
				}
			}
			snap, err := node.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if firstSnap == nil {
				firstSnap = snap
			} else if !bytes.Equal(snap, firstSnap) {
				t.Errorf("snapshot at %d shards differs from first shard count's", shards)
			}
		})
	}
}

// TestLifecycleAcrossRestore checks AddTenant/RemoveTenant keep working on
// a restored node, and that the admission counter carries across the cut:
// a tenant admitted after restore gets the same seed label — hence the same
// trajectory — as one admitted at that point of an uninterrupted run.
func TestLifecycleAcrossRestore(t *testing.T) {
	all := testSpecs(5, 20)
	p1 := testEvents(all[:4], 100, 53)
	p2 := testEvents(all, 80, 47)

	run := func(node *Node) *Node { // the post-cut tail of the schedule
		t.Helper()
		if ti, err := node.AddTenant(all[4]); err != nil || ti != 4 {
			t.Fatalf("AddTenant = %d, %v", ti, err)
		}
		if err := node.RemoveTenant(0); err != nil {
			t.Fatal(err)
		}
		for _, b := range p2 {
			kept := b[:0:0]
			for _, ev := range b {
				if ev.Tenant != 0 {
					kept = append(kept, ev)
				}
			}
			if err := node.Ingest(kept); err != nil {
				t.Fatal(err)
			}
		}
		if err := node.Drain(); err != nil {
			t.Fatal(err)
		}
		return node
	}

	// Uninterrupted.
	node, err := NewNode(Config{Shards: 2, Seed: 42}, all[:4])
	if err != nil {
		t.Fatal(err)
	}
	if err := node.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	ingestAll(t, node, p1)
	snap, err := node.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	ref := run(node)
	defer ref.Stop()

	// Cut at the snapshot, restore at another shard count, replay the tail.
	rn, err := RestoreNode(Config{Shards: 7}, all[:4], snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := rn.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	got := run(rn)
	defer got.Stop()
	compareLive(t, got, ref)
}

// TestRemoveTenantIsolation checks eviction semantics: events for the
// removed slot are rejected, Report shows it removed and leaves its counter
// out of the totals, re-removal errors, and slot ids are not reused.
func TestRemoveTenantIsolation(t *testing.T) {
	specs := testSpecs(3, 15)
	node, err := NewNode(Config{Shards: 2, Seed: 7}, specs)
	if err != nil {
		t.Fatal(err)
	}
	if err := node.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer node.Stop()
	if err := node.RemoveTenant(1); err != nil {
		t.Fatal(err)
	}
	if err := node.RemoveTenant(1); err == nil {
		t.Fatal("double remove succeeded")
	}
	if err := node.RemoveTenant(99); err == nil {
		t.Fatal("removing unknown tenant succeeded")
	}
	if err := node.Ingest([]Event{{Tenant: 1}}); err == nil {
		t.Fatal("Ingest for removed tenant succeeded")
	}
	ti, err := node.AddTenant(specs[1])
	if err != nil {
		t.Fatal(err)
	}
	if ti != 3 {
		t.Fatalf("AddTenant reused slot: got %d, want 3", ti)
	}
	if err := node.Drain(); err != nil {
		t.Fatal(err)
	}
	rep := node.Report()
	if !reflect.DeepEqual(rep.Tenants[1], TenantReport{}) {
		t.Errorf("removed slot reports %+v", rep.Tenants[1])
	}
	if got := rep.Tenants[0].Counter.Total() + rep.Tenants[2].Counter.Total() + rep.Tenants[3].Counter.Total(); rep.Totals.Total() != got {
		t.Fatalf("Totals %d includes removed tenant (live sum %d)", rep.Totals.Total(), got)
	}
}

// TestRestoreRejectsCorruption covers the decode error paths: truncation,
// bad magic, wrong version, spec mismatches. None may panic.
func TestRestoreRejectsCorruption(t *testing.T) {
	specs := testSpecs(2, 12)
	node, err := NewNode(Config{Shards: 1, Seed: 5}, specs)
	if err != nil {
		t.Fatal(err)
	}
	if err := node.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	snap, err := node.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	node.Stop()

	if _, err := RestoreNode(Config{}, specs, snap); err != nil {
		t.Fatalf("restoring a pristine snapshot failed: %v", err)
	}
	cases := map[string][]byte{
		"empty":     nil,
		"magic":     []byte("not a snapshot at all, definitely"),
		"truncated": snap[:len(snap)/2],
		"trailing":  append(append([]byte(nil), snap...), 0xFF),
	}
	for name, data := range cases {
		if _, err := RestoreNode(Config{}, specs, data); err == nil {
			t.Errorf("%s snapshot accepted", name)
		}
	}
	// Flip every byte in turn cheaply near the header to shake out panics.
	for i := 0; i < len(snap) && i < 64; i++ {
		mut := append([]byte(nil), snap...)
		mut[i] ^= 0xFF
		_, _ = RestoreNode(Config{}, specs, mut) // must not panic
	}
	if _, err := RestoreNode(Config{}, specs[:1], snap); err == nil {
		t.Error("snapshot accepted with wrong spec count")
	}
	wrongProto := []TenantSpec{specs[0], specs[0]} // slot 1 builds the wrong protocol
	if _, err := RestoreNode(Config{}, wrongProto, snap); err == nil {
		t.Error("snapshot accepted with mismatched protocol spec")
	}
	wrongStreams := []TenantSpec{specs[0], specs[1]}
	wrongStreams[1].Initial = wrongStreams[1].Initial[:10] // still valid for the factory
	if _, err := RestoreNode(Config{}, wrongStreams, snap); err == nil {
		t.Error("snapshot accepted with mismatched stream count")
	}
	if _, err := node.Snapshot(); err == nil {
		t.Error("Snapshot on a stopped node succeeded")
	}
}

// TestTotalEventsSurvivesEviction pins the -restore contract: the lifetime
// ingest counter keeps counting events for tenants that are later evicted,
// so a driver resuming from a snapshot skips exactly the right number of
// merged-stream events even when the tenant set shrank before the barrier.
func TestTotalEventsSurvivesEviction(t *testing.T) {
	specs := testSpecs(2, 15)
	node, err := NewNode(Config{Shards: 2, Seed: 9}, specs)
	if err != nil {
		t.Fatal(err)
	}
	if err := node.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer node.Stop()
	batches := testEvents(specs, 60, 24) // 120 events total, both tenants
	ingestAll(t, node, batches)
	if err := node.RemoveTenant(0); err != nil {
		t.Fatal(err)
	}
	snap, err := node.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got := node.TotalEvents(); got != 120 {
		t.Fatalf("TotalEvents after eviction = %d, want 120 (evicted tenant's events must count)", got)
	}
	rn, err := RestoreNode(Config{Shards: 1}, specs, snap)
	if err != nil {
		t.Fatal(err)
	}
	if got := rn.TotalEvents(); got != 120 {
		t.Fatalf("restored TotalEvents = %d, want 120", got)
	}
}
