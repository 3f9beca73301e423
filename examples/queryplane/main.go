// Queryplane: the multi-query composite-filter plane on a serving node —
// many standing queries over one stream population, sharing one value
// table, one message counter and per-stream composite filters, with
// queries admitted and removed while traffic flows and the whole fabric
// snapshot/restored across a shard-count change.
//
// The walkthrough proves the three properties DESIGN.md §7 argues:
//
//  1. Sharing economics: M queries on one composite tenant initialize for
//     2n+n messages total (not M times that), and a value change crossing
//     several query boundaries costs one update message — strictly fewer
//     maintenance messages than M independent single-query tenants.
//  2. Live query lifecycle: AddQuery/RemoveQuery ride the same drain
//     barriers as the tenant lifecycle; a new query pays its own t0 and
//     siblings are unperturbed.
//  3. Durability: a snapshot cut through the composite fabric restores on
//     a different shard count and continues bit-identically.
//
// Run with: go run ./examples/queryplane
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

// rangeQuery watches [lo, hi] with 20% fraction tolerance.
func rangeQuery(name string, lo, hi float64) runtime.QuerySpec {
	return runtime.QuerySpec{
		Name: name,
		NewProtocol: func(h server.Host, seed int64) server.Protocol {
			return core.NewFTNRP(h, query.NewRange(lo, hi), core.FTNRPConfig{
				Tol:       core.FractionTolerance{EpsPlus: 0.2, EpsMinus: 0.2},
				Selection: core.SelectRandom,
				Seed:      seed,
			})
		},
	}
}

// rankQuery tracks the k readings nearest q with rank slack r.
func rankQuery(name string, q float64, k, r int) runtime.QuerySpec {
	return runtime.QuerySpec{
		Name: name,
		NewProtocol: func(h server.Host, seed int64) server.Protocol {
			return core.NewRTP(h, query.At(q), core.RankTolerance{K: k, R: r})
		},
	}
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}

func main() {
	const n = 120
	rng := sim.NewRNG(7)
	initial := make([]float64, n)
	for i := range initial {
		initial[i] = rng.Uniform(0, 1000)
	}
	// Three dashboards watch the same sensor population: two overlapping
	// alert bands and a nearest-to-setpoint ranking.
	queries := []runtime.QuerySpec{
		rangeQuery("alert-low", 150, 450),
		rangeQuery("alert-high", 350, 750),
		rankQuery("nearest-500", 500, 8, 3),
	}
	spec := runtime.TenantSpec{Name: "plant", Initial: initial, Queries: queries}

	// --- 1. sharing economics --------------------------------------------
	node, err := runtime.NewNode(runtime.Config{Shards: 2, Seed: 42}, []runtime.TenantSpec{spec})
	check(err)
	check(node.Start(context.Background()))
	check(node.Drain()) // wait out t0 on the shard loops
	t := node.Report().Tenants[0]
	init := t.Counter.PhaseTotal(0)
	fmt.Printf("t0 for %d queries over %d streams: %d messages (2n+n = %d — independent clusters would pay %d)\n",
		len(queries), n, init, 3*n, len(queries)*3*n)

	walk := append([]float64(nil), initial...)
	moves := make([]runtime.Event, 4000)
	for i := range moves {
		s := rng.Intn(n)
		walk[s] += rng.Normal(0, 40)
		moves[i] = runtime.Event{Tenant: 0, Stream: s, Value: walk[s]}
	}
	check(node.Ingest(moves[:2000]))
	check(node.Drain())
	t = node.Report().Tenants[0]
	fmt.Printf("after 2000 events: maintenance=%d messages shared across %d queries\n",
		t.Counter.Maintenance(), len(queries))
	for _, q := range t.Queries {
		fmt.Printf("  %-12s answer size %d\n", q.Name, len(q.Answer))
	}

	// --- 2. live query lifecycle -----------------------------------------
	before := t.Counter.Maintenance()
	qi, err := node.AddQuery(0, rangeQuery("alert-wide", 100, 900))
	check(err)
	t = node.Report().Tenants[0]
	fmt.Printf("admitted %q as slot %d (its t0 charged to init, not maintenance: maintenance still %d)\n",
		t.Queries[qi].Name, qi, t.Counter.Maintenance())
	if t.Counter.Maintenance() != before {
		panic("admission leaked into the maintenance metric")
	}
	check(node.RemoveQuery(0, 1)) // the high band is decommissioned
	fmt.Printf("removed slot 1; live queries now: ")
	t = node.Report().Tenants[0]
	for _, q := range t.Queries {
		if q.Alive {
			fmt.Printf("%s ", q.Name)
		}
	}
	fmt.Println()

	// --- 3. snapshot cut, restore on another shard count ------------------
	snap, err := node.Snapshot()
	check(err)
	fmt.Printf("snapshot: %d bytes (whole fabric: values, table, %d filter entries/stream, per-query state)\n",
		len(snap), len(t.Queries))

	check(node.Ingest(moves[2000:]))
	check(node.Drain())
	finalSnap, err := node.Snapshot()
	check(err)
	node.Stop()

	// The restore spec lists every query slot ever admitted, in order.
	rspec := spec
	rspec.Queries = append(append([]runtime.QuerySpec(nil), queries...), rangeQuery("alert-wide", 100, 900))
	restored, err := runtime.RestoreNode(runtime.Config{Shards: 8}, []runtime.TenantSpec{rspec}, snap)
	check(err)
	check(restored.Start(context.Background()))
	check(restored.Ingest(moves[2000:]))
	check(restored.Drain())
	restoredSnap, err := restored.Snapshot()
	check(err)
	restored.Stop()

	if !bytes.Equal(finalSnap, restoredSnap) {
		panic("restored continuation diverged from the uninterrupted run")
	}
	fmt.Println("restored on 8 shards, replayed the tail: final snapshots byte-identical — the cut is invisible")
}
