// Quickstart: monitor a range query over a handful of streams with the
// fraction-based tolerance protocol (FT-NRP) and watch how few messages the
// server needs compared to hearing every update.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"

	"adaptivefilters/internal/core"
	"adaptivefilters/internal/experiment"
	"adaptivefilters/internal/oracle"
	"adaptivefilters/internal/query"
	"adaptivefilters/internal/server"
	"adaptivefilters/internal/workload"
)

func main() {
	// A small synthetic population: 500 streams random-walking in [0,1000],
	// one update every 20 time units on average (the paper's §6.2 model).
	cfg := workload.SyntheticConfig{
		N: 500, Lo: 0, Hi: 1000, MeanGap: 20, Sigma: 20,
		Horizon: 2000, Seed: 42,
	}
	w, err := workload.NewSynthetic(cfg)
	if err != nil {
		panic(err)
	}

	// The standing query: which streams currently read between 400 and 600?
	rng := query.NewRange(400, 600)

	// The user accepts up to 20% false positives and 20% false negatives.
	tol := core.FractionTolerance{EpsPlus: 0.2, EpsMinus: 0.2}

	run := func(name string, build func(c server.Host, seed int64) server.Protocol) experiment.Result {
		res := experiment.Run(experiment.Config{
			Workload:    w,
			NewProtocol: build,
			Seed:        1,
			// Validate every answer against ground truth while running.
			Check: oracle.NewAuditor(w.Initial(), oracle.FractionRange(rng, tol), 1),
		})
		fmt.Printf("%-22s %8d events %8d maintenance messages  (violations: %d)\n",
			name, res.Events, res.MaintMessages, res.Violations)
		return res
	}

	fmt.Printf("standing query %v with tolerance %v over %d streams\n\n", rng, tol, cfg.N)
	noFilter := run("no filter", func(c server.Host, seed int64) server.Protocol {
		return core.NewNoFilterRange(c, rng)
	})
	zt := run("ZT-NRP (zero tol.)", func(c server.Host, seed int64) server.Protocol {
		return core.NewZTNRP(c, rng)
	})
	ft := run("FT-NRP (ε=0.2)", func(c server.Host, seed int64) server.Protocol {
		return core.NewFTNRP(c, rng, core.FTNRPConfig{
			Tol: tol, Selection: core.SelectBoundaryNearest, Seed: seed,
		})
	})

	fmt.Printf("\nfilters cut traffic %.1fx; tolerance adds another %.1fx on top\n",
		float64(noFilter.MaintMessages)/float64(zt.MaintMessages),
		float64(zt.MaintMessages)/float64(ft.MaintMessages))
	fmt.Printf("final answer has %d streams (exact would list every stream in [400,600])\n",
		len(ft.FinalAnswer))
}
