package runtime

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"adaptivefilters/internal/sim"
)

// tenantState renders one live tenant's full observable state without its
// slot number, so a migrated tenant (living at a different slot on its new
// node) can be compared against the reference run.
func tenantState(t *TenantReport) string {
	var b strings.Builder
	if !t.MultiQuery {
		fmt.Fprintf(&b, "%s events=%d answer=%v counter=%+v\n", t.Name, t.Events, t.Answer, t.Counter)
		return b.String()
	}
	fmt.Fprintf(&b, "%s events=%d counter=%+v\n", t.Name, t.Events, t.Counter)
	for qi, q := range t.Queries {
		if !q.Alive {
			fmt.Fprintf(&b, "  query %d: removed\n", qi)
			continue
		}
		fmt.Fprintf(&b, "  query %d: %s answer=%v\n", qi, q.Name, q.Answer)
	}
	return b.String()
}

// migrationFixture builds a 4-tenant population (rotating through the
// stateful protocols, including a composite and a spatial tenant) plus
// deterministic prefix and tail event batches over per-tenant random walks.
func migrationFixture() (specs []TenantSpec, prefix, tail []Event) {
	rng := sim.NewRNG(7)
	var walks, walksY [][]float64
	for i := 0; i < 4; i++ {
		vals := make([]float64, 10+rng.Intn(5))
		ys := make([]float64, len(vals))
		for j := range vals {
			vals[j] = rng.Uniform(0, 1000)
			ys[j] = rng.Uniform(0, 1000)
		}
		spec := propSpec(i, vals, ys)
		specs = append(specs, spec)
		walks = append(walks, append([]float64(nil), vals...))
		if len(spec.SpatialInitial) > 0 {
			walksY = append(walksY, append([]float64(nil), ys...))
		} else {
			walksY = append(walksY, nil)
		}
	}
	gen := func(m int) []Event {
		evs := make([]Event, 0, m)
		for j := 0; j < m; j++ {
			ti := rng.Intn(len(walks))
			s := rng.Intn(len(walks[ti]))
			walks[ti][s] += rng.Normal(0, 35)
			ev := Event{Tenant: ti, Stream: s, Value: walks[ti][s]}
			if walksY[ti] != nil {
				walksY[ti][s] += rng.Normal(0, 35)
				ev.Y = walksY[ti][s]
			}
			evs = append(evs, ev)
		}
		return evs
	}
	return specs, gen(400), gen(400)
}

// TestTenantMigrationBitIdentity is the migration primitive's core claim:
// export a tenant mid-stream, import it onto a different node (different
// shard count, different slot), feed the tail there, and both the migrated
// tenant and the tenants left behind end bit-identical to an uninterrupted
// single-node run. Every tenant takes a turn migrating, so both the
// single-query and composite record layouts round-trip.
func TestTenantMigrationBitIdentity(t *testing.T) {
	specs, prefix, tail := migrationFixture()

	ref, err := NewNode(Config{Shards: 2, Seed: 42}, specs)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := ref.Ingest(prefix); err != nil {
		t.Fatal(err)
	}
	if err := ref.Ingest(tail); err != nil {
		t.Fatal(err)
	}
	if err := ref.Drain(); err != nil {
		t.Fatal(err)
	}
	refState := make([]string, len(specs))
	refSnaps := make([][]byte, len(specs))
	refRep := ref.Report()
	for ti := range specs {
		refState[ti] = tenantState(&refRep.Tenants[ti])
		if refSnaps[ti], err = ref.ExportTenant(ti); err != nil {
			t.Fatalf("reference export %d: %v", ti, err)
		}
	}
	ref.Stop()

	for migrate := range specs {
		migrate := migrate
		t.Run(fmt.Sprintf("tenant=%d", migrate), func(t *testing.T) {
			src, err := NewNode(Config{Shards: 3, Seed: 42}, specs)
			if err != nil {
				t.Fatal(err)
			}
			if err := src.Start(context.Background()); err != nil {
				t.Fatal(err)
			}
			defer src.Stop()
			if err := src.Ingest(prefix); err != nil {
				t.Fatal(err)
			}
			snap, err := src.ExportTenant(migrate)
			if err != nil {
				t.Fatal(err)
			}

			// A fresh, empty member joins and receives the tenant.
			dst, err := NewNodeLabeled(Config{Shards: 1, Seed: 42}, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := dst.Start(context.Background()); err != nil {
				t.Fatal(err)
			}
			defer dst.Stop()
			slot, err := dst.ImportTenant(specs[migrate], snap)
			if err != nil {
				t.Fatal(err)
			}
			if slot != 0 {
				t.Fatalf("ImportTenant slot = %d, want 0", slot)
			}
			if err := src.RemoveTenant(migrate); err != nil {
				t.Fatal(err)
			}

			// Route the tail: the migrated tenant's events go to its new home
			// under its new local slot, everything else stays on the source.
			var srcTail, dstTail []Event
			for _, ev := range tail {
				if ev.Tenant == migrate {
					ev.Tenant = slot
					dstTail = append(dstTail, ev)
					continue
				}
				srcTail = append(srcTail, ev)
			}
			if err := src.Ingest(srcTail); err != nil {
				t.Fatal(err)
			}
			if err := dst.Ingest(dstTail); err != nil {
				t.Fatal(err)
			}
			if err := src.Drain(); err != nil {
				t.Fatal(err)
			}
			if err := dst.Drain(); err != nil {
				t.Fatal(err)
			}

			if got := tenantState(&dst.Report().Tenants[slot]); got != refState[migrate] {
				t.Errorf("migrated tenant %d diverged:\n%swant:\n%s", migrate, got, refState[migrate])
			}
			srcRep := src.Report()
			for ti := range specs {
				if ti == migrate {
					continue
				}
				if got := tenantState(&srcRep.Tenants[ti]); got != refState[ti] {
					t.Errorf("left-behind tenant %d diverged:\n%swant:\n%s", ti, got, refState[ti])
				}
			}
			// The strongest form: the migrated tenant's own snapshot bytes —
			// which encode counters, RNG positions and filter state — must
			// match the reference's, proving the record carries no trace of
			// the move.
			endSnap, err := dst.ExportTenant(slot)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(endSnap, refSnaps[migrate]) {
				t.Errorf("migrated tenant %d snapshot differs from uninterrupted run", migrate)
			}
		})
	}
}

// TestTenantSnapshotRejections pins every ImportTenant validation path:
// corruption, truncation, seed and kind mismatches, label collisions, and
// lifecycle misuse — all errors, never panics, never partial admission.
func TestTenantSnapshotRejections(t *testing.T) {
	specs, prefix, _ := migrationFixture()
	src, err := NewNode(Config{Shards: 2, Seed: 42}, specs)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer src.Stop()
	if err := src.Ingest(prefix); err != nil {
		t.Fatal(err)
	}
	snap, err := src.ExportTenant(0)
	if err != nil {
		t.Fatal(err)
	}

	newDst := func(seed int64) *Node {
		dst, err := NewNodeLabeled(Config{Seed: seed}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := dst.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(dst.Stop)
		return dst
	}

	t.Run("export-bad-slot", func(t *testing.T) {
		if _, err := src.ExportTenant(-1); err == nil {
			t.Error("negative slot accepted")
		}
		if _, err := src.ExportTenant(len(specs)); err == nil {
			t.Error("out-of-range slot accepted")
		}
	})
	t.Run("corrupt", func(t *testing.T) {
		dst := newDst(42)
		bad := append([]byte(nil), snap...)
		bad[len(bad)/2] ^= 0x40
		if _, err := dst.ImportTenant(specs[0], bad); err == nil || !strings.Contains(err.Error(), "checksum") {
			t.Errorf("corrupt snapshot: err = %v, want checksum mismatch", err)
		}
		if dst.NumTenants() != 0 {
			t.Error("rejected import still admitted a tenant")
		}
	})
	t.Run("truncated", func(t *testing.T) {
		dst := newDst(42)
		for _, cut := range []int{0, 4, len(snap) / 2, len(snap) - 1} {
			if _, err := dst.ImportTenant(specs[0], snap[:cut]); err == nil {
				t.Errorf("truncation at %d accepted", cut)
			}
		}
	})
	t.Run("seed-mismatch", func(t *testing.T) {
		dst := newDst(43)
		if _, err := dst.ImportTenant(specs[0], snap); err == nil || !strings.Contains(err.Error(), "seed") {
			t.Errorf("cross-seed import: err = %v, want seed mismatch", err)
		}
	})
	t.Run("kind-mismatch", func(t *testing.T) {
		dst := newDst(42)
		// specs[2] is the composite tenant; snap holds single-query tenant 0.
		if _, err := dst.ImportTenant(specs[2], snap); err == nil || !strings.Contains(err.Error(), "multi") {
			t.Errorf("kind mismatch: err = %v, want kind error", err)
		}
	})
	t.Run("label-collision", func(t *testing.T) {
		dst := newDst(42)
		if _, err := dst.ImportTenant(specs[0], snap); err != nil {
			t.Fatal(err)
		}
		if _, err := dst.ImportTenant(specs[0], snap); err == nil || !strings.Contains(err.Error(), "label") {
			t.Errorf("duplicate label import: err = %v, want label collision", err)
		}
	})
	t.Run("not-running", func(t *testing.T) {
		dst, err := NewNodeLabeled(Config{Seed: 42}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dst.ImportTenant(specs[0], snap); err == nil {
			t.Error("import on a never-started node accepted")
		}
		if _, err := dst.ExportTenant(0); err == nil {
			t.Error("export on a never-started node accepted")
		}
	})
}
