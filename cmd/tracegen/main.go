// Command tracegen generates and inspects the workloads driving the
// experiments: it can dump events as CSV (time,stream,value) or print
// summary statistics (rates, value distribution, crossing counts for a
// range), which is how the TCP-like substitute documented in DESIGN.md §3
// was calibrated.
//
// Examples:
//
//	tracegen -workload tcp -events 10000 -stats
//	tracegen -workload synthetic -sigma 40 -events 5000 > trace.csv
package main

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"

	"adaptivefilters/internal/query"
	"adaptivefilters/internal/workload"
)

func main() {
	var (
		wl     = flag.String("workload", "tcp", "workload: synthetic | tcp")
		n      = flag.Int("n", 800, "number of streams")
		events = flag.Int("events", 10000, "number of events")
		sigma  = flag.Float64("sigma", 20, "synthetic step deviation")
		seed   = flag.Int64("seed", 1, "determinism seed")
		stats  = flag.Bool("stats", false, "print summary statistics instead of CSV")
		lo     = flag.Float64("lo", 400, "range lower bound for crossing stats")
		hi     = flag.Float64("hi", 600, "range upper bound for crossing stats")
	)
	flag.Parse()

	var w workload.Workload
	var err error
	switch *wl {
	case "synthetic":
		cfg := workload.SyntheticConfig{
			N: *n, Lo: 0, Hi: 1000, MeanGap: 20, Sigma: *sigma,
			Horizon: float64(*events) * 20 / float64(*n), Seed: *seed,
		}
		w, err = workload.NewSynthetic(cfg)
	case "tcp":
		cfg := workload.DefaultTCPLike(*events, *seed)
		cfg.N = *n
		w, err = workload.NewTCPLike(cfg)
	default:
		err = fmt.Errorf("unknown workload %q", *wl)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(2)
	}

	if !*stats {
		out := bufio.NewWriter(os.Stdout)
		defer out.Flush()
		fmt.Fprintln(out, "time,stream,value")
		for _, ev := range w.Events() {
			fmt.Fprintf(out, "%g,%d,%g\n", ev.Time, ev.Stream, ev.Value)
		}
		return
	}

	printStats(w, query.NewRange(*lo, *hi))
}

func printStats(w workload.Workload, rng query.Range) {
	initial := w.Initial()
	last := append([]float64(nil), initial...)
	counts := make([]int, w.N())
	crossings := 0
	inRange := 0
	evs := w.Events()
	total := len(evs)
	values := make([]float64, 0, total)
	var lastTime float64
	for _, ev := range evs {
		counts[ev.Stream]++
		if rng.Contains(last[ev.Stream]) != rng.Contains(ev.Value) {
			crossings++
		}
		last[ev.Stream] = ev.Value
		values = append(values, ev.Value)
		lastTime = ev.Time
	}
	for _, v := range last {
		if rng.Contains(v) {
			inRange++
		}
	}

	fmt.Printf("workload: %s\n", w.Name())
	fmt.Printf("streams: %d, events: %d, span: %.0f time units\n", w.N(), total, lastTime)
	if total == 0 {
		return
	}
	sort.Float64s(values)
	q := func(p float64) float64 { return values[int(p*float64(len(values)-1))] }
	fmt.Printf("value quantiles: p1=%.0f p25=%.0f p50=%.0f p75=%.0f p99=%.0f max=%.0f\n",
		q(0.01), q(0.25), q(0.5), q(0.75), q(0.99), values[len(values)-1])
	fmt.Printf("range %v: %d streams inside at end (%.1f%%), %d boundary crossings (%.1f%% of events)\n",
		rng, inRange, 100*float64(inRange)/float64(w.N()),
		crossings, 100*float64(crossings)/float64(total))

	sort.Sort(sort.Reverse(sort.IntSlice(counts)))
	top, tot := 0, 0
	for i, c := range counts {
		tot += c
		if i < len(counts)/10 {
			top += c
		}
	}
	fmt.Printf("activity skew: busiest 10%% of streams carry %.1f%% of events\n",
		100*float64(top)/float64(tot))
	gini := giniOfCounts(counts)
	fmt.Printf("activity gini: %.3f (0 = uniform, 1 = single stream)\n", gini)
}

func giniOfCounts(sortedDesc []int) float64 {
	n := len(sortedDesc)
	if n == 0 {
		return 0
	}
	asc := make([]float64, n)
	for i, c := range sortedDesc {
		asc[n-1-i] = float64(c)
	}
	var cum, weighted, totalF float64
	for i, v := range asc {
		cum += v
		weighted += float64(i+1) * v
		totalF += v
	}
	if totalF == 0 {
		return 0
	}
	return math.Abs((2*weighted)/(float64(n)*totalF) - float64(n+1)/float64(n))
}
