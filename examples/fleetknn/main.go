// Fleetknn runs the paper's continuous k-NN scenario (location monitoring,
// §1/§3.2) in two flavors:
//
//  1. 1-D: vehicles on a highway (positions are mile markers); a dispatcher
//     continuously wants the k vehicles nearest an incident with
//     fraction-based tolerance — FT-RP against the zero-tolerance ZT-RP.
//  2. 2-D: a moving-objects fleet on the real runtime — delivery drones
//     over a city hosted as a spatial tenant on a sharded runtime.Node,
//     with disk filters and rank-based tolerance (RTP around a planar
//     center: the same protocol as in 1-D, §7). The same event
//     sequence is ingested at two shard counts to show the spatial plane's
//     determinism guarantee: answers and message accounting are identical.
//
// Run with: go run ./examples/fleetknn
package main

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"

	"adaptivefilters/internal/core"
	"adaptivefilters/internal/filter"
	"adaptivefilters/internal/query"
	"adaptivefilters/internal/runtime"
	"adaptivefilters/internal/server"
)

func main() {
	highway()
	fmt.Println()
	drones()
}

func highway() {
	const (
		n        = 2000
		k        = 25
		incident = 500.0 // mile marker of the incident
		steps    = 100000
	)
	rng := rand.New(rand.NewSource(11))
	positions := make([]float64, n)
	for i := range positions {
		positions[i] = rng.Float64() * 1000
	}
	fmt.Printf("1-D fleet: %d vehicles, dispatcher wants the %d nearest to mile %g\n",
		n, k, incident)

	run := func(name string, build func(c *server.Cluster) server.Protocol) uint64 {
		c := server.NewCluster(positions)
		p := build(c)
		c.SetProtocol(p)
		c.Initialize()
		r := rand.New(rand.NewSource(77)) // identical movement for both runs
		cur := append([]float64(nil), positions...)
		for s := 0; s < steps; s++ {
			id := r.Intn(n)
			cur[id] += r.NormFloat64() * 2 // vehicles creep along the road
			c.Deliver(id, cur[id])
		}
		fmt.Printf("  %-28s %8d maintenance messages, answer size %d\n",
			name, c.Counter().Maintenance(), len(p.Answer()))
		return c.Counter().Maintenance()
	}

	zt := run("ZT-RP (exact)", func(c *server.Cluster) server.Protocol {
		return core.NewZTRP(c, query.At(incident), k)
	})
	tol := core.FractionTolerance{EpsPlus: 0.3, EpsMinus: 0.3}
	ft := run(fmt.Sprintf("FT-RP (%v)", tol), func(c *server.Cluster) server.Protocol {
		return core.NewFTRP(c, query.At(incident), k, core.DefaultFTRPConfig(tol))
	})
	fmt.Printf("  tolerance saves %.1fx communication\n", float64(zt)/float64(ft))
}

func drones() {
	const (
		n     = 400
		k     = 8
		steps = 40000
	)
	rng := rand.New(rand.NewSource(13))
	pts := make([]filter.Point, n)
	for i := range pts {
		pts[i] = filter.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
	}
	depot := filter.Point{X: 50, Y: 50}
	tol := core.RankTolerance{K: k, R: 6}
	fmt.Printf("2-D fleet on the runtime: %d drones, %d nearest to the depot, rank slack %d\n",
		n, k, tol.R)

	// The fleet is an ordinary spatial tenant: initial locations plus an
	// RTP factory around the depot, hosted on a sharded node exactly like the 1-D tenants
	// cmd/streamsim runs.
	spec := runtime.TenantSpec{
		Name:           "drones",
		SpatialInitial: pts,
		NewSpatial: func(h server.SpatialHost, seed int64) server.SpatialProtocol {
			return core.NewRTP(h, query.Around(depot), tol)
		},
	}
	// One deterministic movement batch, ingested at two shard counts.
	mkEvents := func() []runtime.Event {
		r := rand.New(rand.NewSource(29))
		cur := append([]filter.Point(nil), pts...)
		evs := make([]runtime.Event, 0, steps)
		for s := 0; s < steps; s++ {
			id := r.Intn(n)
			cur[id].X += r.NormFloat64() * 0.5
			cur[id].Y += r.NormFloat64() * 0.5
			evs = append(evs, runtime.Event{Stream: id, Value: cur[id].X, Y: cur[id].Y})
		}
		return evs
	}
	run := func(shards int) (answer []int, maint uint64) {
		node, err := runtime.NewNode(runtime.Config{Shards: shards, Seed: 42},
			[]runtime.TenantSpec{spec})
		if err != nil {
			panic(err)
		}
		if err := node.Start(context.Background()); err != nil {
			panic(err)
		}
		defer node.Stop()
		if err := node.Ingest(mkEvents()); err != nil {
			panic(err)
		}
		if err := node.Drain(); err != nil {
			panic(err)
		}
		t := node.Report().Tenants[0]
		return t.Answer, t.Counter.Maintenance()
	}

	ans1, maint1 := run(1)
	ans4, maint4 := run(4)
	fmt.Printf("  %d moves → %d maintenance messages (%.1f%% suppressed)\n",
		steps, maint1, 100*(1-float64(maint1)/float64(steps)))
	fmt.Printf("  drones on call: %v\n", ans1)
	if reflect.DeepEqual(ans1, ans4) && maint1 == maint4 {
		fmt.Printf("  shards=1 and shards=4 agree bit for bit (determinism guarantee)\n")
	} else {
		fmt.Printf("  DIVERGENCE between shard counts: %v/%d vs %v/%d\n", ans1, maint1, ans4, maint4)
	}
}
