package adaptivefilters_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"adaptivefilters/internal/core"
	"adaptivefilters/internal/experiment"
	"adaptivefilters/internal/query"
	"adaptivefilters/internal/server"
	"adaptivefilters/internal/workload"
)

// benchScale keeps each figure bench to a fraction of the default workload
// so `go test -bench=.` completes quickly; run cmd/figures for full-size
// tables.
const benchScale = 0.05

// benchFigure runs one paper figure per iteration and reports the total of
// its message cells so regressions in protocol efficiency show up as metric
// changes.
func benchFigure(b *testing.B, run func(experiment.Options) *experiment.Table, cols []string) {
	b.Helper()
	benchFigureWorkers(b, run, cols, 0)
}

// benchFigureWorkers is benchFigure with an explicit cell-engine pool size
// (0 = sequential).
func benchFigureWorkers(b *testing.B, run func(experiment.Options) *experiment.Table, cols []string, workers int) {
	b.Helper()
	opts := experiment.Options{Scale: benchScale, Seed: 1, Workers: workers}
	var total uint64
	for i := 0; i < b.N; i++ {
		tbl := run(opts)
		total = 0
		for _, col := range cols {
			series, err := experiment.ColumnUint(tbl, col)
			if err != nil {
				b.Fatal(err)
			}
			for _, v := range series {
				total += v
			}
		}
	}
	b.ReportMetric(float64(total), "maint-msgs")
}

// BenchmarkFigure01 regenerates the Figure 1 motivation experiment
// (value-based vs rank-based tolerance).
func BenchmarkFigure01(b *testing.B) {
	benchFigure(b, experiment.Figure1, []string{"maint msgs"})
}

// BenchmarkFigure09 regenerates Figure 9 (RTP: effect of r, TCP-like top-k).
func BenchmarkFigure09(b *testing.B) {
	benchFigure(b, experiment.Figure9, []string{"k=15", "k=20", "k=25", "k=30"})
}

// BenchmarkFigure10 regenerates Figure 10 (FT-NRP ε-surface, TCP-like).
func BenchmarkFigure10(b *testing.B) {
	benchFigure(b, experiment.Figure10, []string{"0.0", "0.5"})
}

// BenchmarkFigure11 regenerates Figure 11 (FT-NRP scalability).
func BenchmarkFigure11(b *testing.B) {
	benchFigure(b, experiment.Figure11, []string{"ε=0.0", "ε=0.5"})
}

// BenchmarkFigure12 regenerates Figure 12 (FT-NRP ε-surface, synthetic).
func BenchmarkFigure12(b *testing.B) {
	benchFigure(b, experiment.Figure12, []string{"0.0", "0.5"})
}

// BenchmarkFigure13 regenerates Figure 13 (FT-NRP under data fluctuation).
func BenchmarkFigure13(b *testing.B) {
	benchFigure(b, experiment.Figure13, []string{"σ=20", "σ=100"})
}

// BenchmarkFigure14 regenerates Figure 14 (selection heuristics).
func BenchmarkFigure14(b *testing.B) {
	benchFigure(b, experiment.Figure14, []string{"random", "boundary-nearest"})
}

// BenchmarkFigure15 regenerates Figure 15 (ZT-RP vs FT-RP).
func BenchmarkFigure15(b *testing.B) {
	benchFigure(b, experiment.Figure15, []string{"k=20", "k=60", "k=100"})
}

// BenchmarkFigureEngine compares the sequential and the parallel cell-engine
// paths regenerating the same figures: identical tables (the engine derives
// one seed per cell from the grid coordinates), wall-clock divided by the
// worker pool. Figure 13 (30 cells) and Figure 12 (36 cells) are the most
// cell-rich grids.
func BenchmarkFigureEngine(b *testing.B) {
	figs := []struct {
		name string
		run  func(experiment.Options) *experiment.Table
		cols []string
	}{
		{"Figure12", experiment.Figure12, []string{"0.0", "0.5"}},
		{"Figure13", experiment.Figure13, []string{"σ=20", "σ=100"}},
	}
	counts := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		counts = append(counts, n)
	}
	for _, f := range figs {
		for _, workers := range counts {
			b.Run(fmt.Sprintf("%s/workers=%d", f.name, workers), func(b *testing.B) {
				benchFigureWorkers(b, f.run, f.cols, workers)
			})
		}
	}
}

// --- ablation benches (design choices documented in DESIGN.md) --------------

func synWorkload(b *testing.B, n, events int, sigma float64) workload.Workload {
	b.Helper()
	cfg := workload.SyntheticConfig{
		N: n, Lo: 0, Hi: 1000, MeanGap: 20, Sigma: sigma,
		Horizon: float64(events) * 20 / float64(n), Seed: 11,
	}
	w, err := workload.NewSynthetic(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return w
}

// driftWorkload is an unbounded random walk: streams diffuse away from the
// query range over time, so answer removals outnumber insertions and the
// Fix_Error / re-initialization paths are exercised heavily.
func driftWorkload(b *testing.B, n, events int, sigma float64) workload.Workload {
	b.Helper()
	cfg := workload.SyntheticConfig{
		N: n, Lo: 0, Hi: 1000, MeanGap: 20, Sigma: sigma,
		Horizon: float64(events) * 20 / float64(n), Seed: 11, ClampOff: true,
	}
	w, err := workload.NewSynthetic(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return w
}

func reportMsgs(b *testing.B, run func() uint64) {
	b.Helper()
	var msgs uint64
	for i := 0; i < b.N; i++ {
		msgs = run()
	}
	b.ReportMetric(float64(msgs), "maint-msgs")
}

// BenchmarkAblationStrictVsFaithful compares the strict Fix_Error variant
// (close the false-negative accounting leak) against the pseudocode-faithful
// one.
func BenchmarkAblationStrictVsFaithful(b *testing.B) {
	for _, faithful := range []bool{false, true} {
		name := "strict"
		if faithful {
			name = "faithful"
		}
		b.Run(name, func(b *testing.B) {
			w := driftWorkload(b, 300, 60000, 80)
			rng := query.NewRange(400, 600)
			tol := core.FractionTolerance{EpsPlus: 0.3, EpsMinus: 0.3}
			reportMsgs(b, func() uint64 {
				res := experiment.Run(experiment.Config{
					Workload: w,
					NewProtocol: func(c server.Host, _ int64) server.Protocol {
						return core.NewFTNRP(c, rng, core.FTNRPConfig{
							Tol: tol, Selection: core.SelectBoundaryNearest,
							Faithful: faithful,
						})
					},
				})
				return res.MaintMessages
			})
		})
	}
}

// BenchmarkAblationReinit compares re-initializing on silent-filter
// depletion against letting FT-NRP degrade to ZT-NRP.
func BenchmarkAblationReinit(b *testing.B) {
	for _, policy := range []core.ReinitPolicy{core.ReinitAlways, core.ReinitNever} {
		policy := policy
		b.Run(policy.String(), func(b *testing.B) {
			w := driftWorkload(b, 300, 60000, 80)
			rng := query.NewRange(400, 600)
			tol := core.FractionTolerance{EpsPlus: 0.3, EpsMinus: 0.3}
			reportMsgs(b, func() uint64 {
				res := experiment.Run(experiment.Config{
					Workload: w,
					NewProtocol: func(c server.Host, _ int64) server.Protocol {
						return core.NewFTNRP(c, rng, core.FTNRPConfig{
							Tol: tol, Selection: core.SelectBoundaryNearest,
							Reinit: policy,
						})
					},
				})
				return res.MaintMessages
			})
		})
	}
}

// BenchmarkAblationRhoSplit sweeps the λ split of the Equation 16 frontier
// between false-positive and false-negative silent filters for FT-RP.
func BenchmarkAblationRhoSplit(b *testing.B) {
	for _, lambda := range []float64{0, 0.25, 0.5, 0.75, 1} {
		lambda := lambda
		b.Run(fmt.Sprintf("lambda=%.2f", lambda), func(b *testing.B) {
			w := synWorkload(b, 1000, 20000, 20)
			tol := core.FractionTolerance{EpsPlus: 0.4, EpsMinus: 0.4}
			reportMsgs(b, func() uint64 {
				res := experiment.Run(experiment.Config{
					Workload: w,
					NewProtocol: func(c server.Host, _ int64) server.Protocol {
						cfg := core.DefaultFTRPConfig(tol)
						cfg.Lambda = lambda
						return core.NewFTRP(c, query.At(500), 40, cfg)
					},
				})
				return res.MaintMessages
			})
		})
	}
}

// BenchmarkDeliverThroughput measures raw event-processing speed of the
// cluster + FT-NRP stack (events per op).
func BenchmarkDeliverThroughput(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	n := 5000
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = rng.Float64() * 1000
	}
	c := server.NewCluster(vals)
	p := core.NewFTNRP(c, query.NewRange(400, 600), core.FTNRPConfig{
		Tol:       core.FractionTolerance{EpsPlus: 0.3, EpsMinus: 0.3},
		Selection: core.SelectBoundaryNearest,
	})
	c.SetProtocol(p)
	c.Initialize()
	cur := append([]float64(nil), vals...)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		id := i % n
		cur[id] += rng.NormFloat64() * 20
		c.Deliver(id, cur[id])
	}
}
