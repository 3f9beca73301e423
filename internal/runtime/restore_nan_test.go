package runtime

import (
	"bytes"
	"context"
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"adaptivefilters/internal/sim"
	"adaptivefilters/internal/snapshot"
)

// TestRestoreRefusesNaN pins the restore trust boundary for 1-D tenants: a
// NaN in the server table, the pending queue or a source is refused by
// RestoreNode and ImportTenant. Accepted, it would sit in the rank table
// until the next RTP rebuild and panic the shard there (topk: NaN key).
func TestRestoreRefusesNaN(t *testing.T) {
	nan := binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.NaN()))
	checkRestoreRefuses(t, "NaN", func(rec []byte, n, pendingAt int) map[string]func() []byte {
		return map[string]func() []byte{
			"table": func() []byte {
				out := append([]byte(nil), rec...)
				copy(out[16+8*3:], nan) // table[3]
				return out
			},
			"pending": func() []byte {
				out := append([]byte(nil), rec[:pendingAt]...)
				out = binary.LittleEndian.AppendUint64(out, 1) // one queued update…
				out = binary.LittleEndian.AppendUint64(out, 2) // …for stream 2…
				out = append(out, nan...)                      // …carrying NaN
				return append(out, rec[pendingAt+8:]...)
			},
			"source": func() []byte {
				out := append([]byte(nil), rec...)
				copy(out[len(rec)-33*(n-5):], nan) // source 5's value
				return out
			},
		}
	})
}

// TestRestoreRefusesContradictedSide flips the recorded side of a source
// under the RTP tenant's interval filter. Accepted, the source would stay
// silent on the crossing that corrects it, and the server would keep a
// stream on the wrong side of R: RestoreNode and ImportTenant refuse it.
func TestRestoreRefusesContradictedSide(t *testing.T) {
	checkRestoreRefuses(t, "side", func(rec []byte, n, _ int) map[string]func() []byte {
		return map[string]func() []byte{
			"source": func() []byte {
				out := append([]byte(nil), rec...)
				out[len(rec)-33*(n-5)+32] ^= 1 // source 5's side, after value and interval
				return out
			},
		}
	})
}

// TestCompositeImportRefusesNaN pins the same boundary for a multi-query
// tenant: a NaN value or table entry in its composite record is refused by
// RestoreNode and ImportTenant, naming the stream. Accepted, it would reach
// the RTP query's probe and ranking kernel and quarantine the tenant. (A
// composite outside a node takes NaN deliveries, and its own snapshots
// round-trip them; a node admits none, so its records never hold one.)
func TestCompositeImportRefusesNaN(t *testing.T) {
	nan := binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.NaN()))
	rng := sim.NewRNG(9)
	initial := make([]float64, 13)
	for s := range initial {
		initial[s] = rng.Uniform(0, 1000)
	}
	specs := []TenantSpec{{Name: "mq", Initial: initial, Queries: propQueries()}}
	record := func(node *Node) []byte {
		w := snapshot.NewWriter()
		node.tenants[0].backend.(*multi).ExportState(w)
		return w.Bytes()
	}
	// The composite record opens with the stream count, the slot count and
	// the length-prefixed value and table columns.
	n := len(initial)
	poke := func(rec []byte, at ...int) []byte {
		out := append([]byte(nil), rec...)
		for _, i := range at {
			copy(out[i:], nan)
		}
		return out
	}
	// A NaN value may be refused first as contradicting a recorded side,
	// which names the stream too.
	checkRecordRefused(t, "stream 2", specs, 0, record, func(rec []byte) map[string]func() []byte {
		value, table := 24+8*2, 32+8*n+8*2
		return map[string]func() []byte{
			"value": func() []byte { return poke(rec, value) },
			"table": func() []byte { return poke(rec, table) },
			"both":  func() []byte { return poke(rec, value, table) },
		}
	})
}

// checkRestoreRefuses pokes the RTP tenant's cluster record inside a node
// snapshot and a tenant snapshot, and expects RestoreNode and ImportTenant
// to refuse every poked record with an error mentioning want, admitting
// nothing. pokes receives the record, its stream count and the offset of
// its pending-queue count.
func checkRestoreRefuses(t *testing.T, want string, pokes func(rec []byte, n, pendingAt int) map[string]func() []byte) {
	t.Helper()
	// Tenant 1 is the RTP tenant, n = 13. Its cluster record's layout is
	// fixed: stream count, length-prefixed table, …, pending count, then
	// 33 bytes per source starting with the source's value.
	record := func(node *Node) []byte {
		w := snapshot.NewWriter()
		node.tenants[1].backend.(*scalar).ExportState(w)
		return w.Bytes()
	}
	checkRecordRefused(t, want, testSpecs(2, 12), 1, record, func(rec []byte) map[string]func() []byte {
		n := 13
		return pokes(rec, n, len(rec)-33*n-8)
	})
}

// checkRecordRefused pokes tenant ti's record (record reads it off a node)
// inside a node snapshot and a tenant snapshot, and expects RestoreNode
// and ImportTenant to refuse every poked record with an error mentioning
// want, admitting nothing.
func checkRecordRefused(t *testing.T, want string, specs []TenantSpec, ti int,
	record func(*Node) []byte, pokes func(rec []byte) map[string]func() []byte) {
	t.Helper()
	node, err := NewNode(Config{Shards: 1, Seed: 5}, specs)
	if err != nil {
		t.Fatal(err)
	}
	if err := node.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer node.Stop()
	ingestAll(t, node, testEvents(specs, 40, 17))
	nodeSnap, err := node.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	tenantSnap, err := node.ExportTenant(ti)
	if err != nil {
		t.Fatal(err)
	}
	// The tenant's record as it sits inside both snapshots.
	rec := record(node)
	// splice swaps the record inside a checksummed snapshot for a poked
	// one and re-seals it, as FuzzRestoreNode's decoder path does.
	splice := func(snap, poked []byte) []byte {
		payload := snap[:len(snap)-8]
		at := bytes.Index(payload, rec)
		if at < 0 || bytes.Contains(payload[at+1:], rec) {
			t.Fatal("tenant record not found exactly once in the snapshot")
		}
		return sealed(append(append(append([]byte(nil), payload[:at]...), poked...), payload[at+len(rec):]...))
	}

	if _, err := RestoreNode(Config{}, specs, splice(nodeSnap, rec)); err != nil {
		t.Fatalf("splicing the unpoked record broke the snapshot: %v", err)
	}
	for name, poke := range pokes(rec) {
		t.Run(name, func(t *testing.T) {
			_, err := RestoreNode(Config{}, specs, splice(nodeSnap, poke()))
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("RestoreNode: err = %v, want a %s refusal", err, want)
			}
			dst, err := NewNodeLabeled(Config{Seed: 5}, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := dst.Start(context.Background()); err != nil {
				t.Fatal(err)
			}
			defer dst.Stop()
			_, err = dst.ImportTenant(specs[ti], splice(tenantSnap, poke()))
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("ImportTenant: err = %v, want a %s refusal", err, want)
			}
			if dst.NumTenants() != 0 {
				t.Error("refused import still admitted a tenant")
			}
		})
	}
}
