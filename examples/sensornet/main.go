// Sensornet models the paper's sensor-network reading of fraction-based
// tolerance (§5.1.1): a field of temperature sensors, a standing range
// query ("which sensors read between 400 and 600?"), and silent
// false-positive/false-negative filters that effectively shut sensors down
// — "potentially beneficial for sensors with limited battery power".
//
// It also demonstrates the multi-query extension: several consoles watch
// different temperature bands over the same sensors with shared composite
// filters.
//
// Run with: go run ./examples/sensornet
package main

import (
	"fmt"

	"adaptivefilters/internal/core"
	"adaptivefilters/internal/query"
	"adaptivefilters/internal/server"
	"adaptivefilters/internal/workload"
)

func main() {
	cfg := workload.SyntheticConfig{
		N: 1000, Lo: 0, Hi: 1000, MeanGap: 20, Sigma: 40,
		Horizon: 1000, Seed: 9,
	}
	w, err := workload.NewSynthetic(cfg)
	if err != nil {
		panic(err)
	}
	rng := query.NewRange(400, 600)
	tol := core.FractionTolerance{EpsPlus: 0.3, EpsMinus: 0.3}

	// --- single query: count how many sensors the tolerance shuts down ----
	initial := w.Initial()
	cluster := server.NewCluster(initial)
	proto := core.NewFTNRP(cluster, rng, core.FTNRPConfig{
		Tol: tol, Selection: core.SelectBoundaryNearest, Seed: 2,
	})
	cluster.SetProtocol(proto)
	cluster.Initialize()

	silent := 0
	for id := 0; id < cluster.N(); id++ {
		if cluster.Constraint(id).Silent() {
			silent++
		}
	}
	fmt.Printf("single range query %v with %v over %d sensors\n", rng, tol, cfg.N)
	fmt.Printf("  sensors shut down by silent filters at t0: %d (%.1f%% battery saved)\n",
		silent, 100*float64(silent)/float64(cfg.N))

	evs := w.Events()
	events := len(evs)
	for _, ev := range evs {
		cluster.Deliver(ev.Stream, ev.Value)
	}
	fmt.Printf("  %d sensor updates → %d maintenance messages (%.1f%% suppressed)\n\n",
		events, cluster.Counter().Maintenance(),
		100*(1-float64(cluster.Counter().Maintenance())/float64(events)))

	// --- multiple consoles over the same sensors ---------------------------
	consoles := []struct {
		rng query.Range
		tol core.FractionTolerance
	}{
		{query.NewRange(0, 150), core.FractionTolerance{EpsPlus: 0.3, EpsMinus: 0.3}},    // frost watch
		{query.NewRange(400, 600), core.FractionTolerance{EpsPlus: 0.2, EpsMinus: 0.2}},  // comfort band
		{query.NewRange(850, 1000), core.FractionTolerance{EpsPlus: 0.4, EpsMinus: 0.4}}, // fire watch
	}
	comp := server.NewComposite(initial)
	for qi, c := range consoles {
		// ReinitNever: a re-initialization would cost a per-query ProbeAllInto,
		// defeating the shared-probe economics; a depleted query degrades to
		// ZT-NRP exactly as the single-query protocol would.
		comp.AddQuery(fmt.Sprintf("console-%d", qi), int64(qi), func(h server.Host) server.Protocol {
			return core.NewFTNRP(h, c.rng, core.FTNRPConfig{
				Tol: c.tol, Selection: core.SelectBoundaryNearest, Seed: 7, Reinit: core.ReinitNever,
			})
		})
	}
	comp.Initialize()
	for _, ev := range evs {
		comp.Deliver(ev.Stream, ev.Value)
	}
	fmt.Printf("three consoles sharing composite filters (multi-query extension):\n")
	fmt.Printf("  shared maintenance messages: %d for %d events\n",
		comp.Counter().Maintenance(), events)
	for qi, c := range consoles {
		fmt.Printf("  console %d %v → %d sensors in answer\n",
			qi, c.rng, len(comp.Answer(qi)))
	}
	fmt.Printf("  fully shut-down sensors: %d\n", comp.SilentStreams())
}
