package main

import (
	"flag"
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"adaptivefilters/internal/bench"
)

// run is the whole gate, extracted from main so exit paths are unit
// testable: 0 = gate passes, 1 = violations, 2 = usage or unreadable
// input.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchgate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		baselinePath  = fs.String("baseline", "BENCH_baseline.json", "committed baseline suite")
		currentPath   = fs.String("current", "BENCH_suite.json", "freshly measured suite")
		maxRegress    = fs.Float64("max-regress", 0.15, "tolerated fractional events/sec drop")
		maxLatRegress = fs.Float64("max-lat-regress", 0.5,
			"tolerated fractional growth of recorded p50/p99/p999 latency")
		flatFactor = fs.Float64("flat-factor", 3,
			"per-event cost bound on the wide-M multi-query points, as a factor of m=1 (measured about 1.3; dispatching every report to all M queries costs 5 or more)")
		minScale = fs.Float64("min-scale", 1.8,
			"required events/sec speedup of ingesters=4/shards=8 over ingesters=1/shards=1 (enforced only at GOMAXPROCS >= 4)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	baseline, err := bench.LoadFile(*baselinePath)
	if err != nil {
		fmt.Fprintln(stderr, "benchgate:", err)
		return 2
	}
	current, err := bench.LoadFile(*currentPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchgate:", err)
		return 2
	}

	if baseline.GoMaxProcs != current.GoMaxProcs {
		fmt.Fprintf(stderr,
			"benchgate: baseline GOMAXPROCS=%d vs current %d — hardware mismatch, "+
				"throughput and latency rules are advisory until the baseline is refreshed "+
				"from this environment's artifact (allocs/op rules still enforced)\n",
			baseline.GoMaxProcs, current.GoMaxProcs)
	}
	const mqRef = "multi-query-sharing/composite/m=1"
	violations := bench.Compare(baseline, current, bench.GateConfig{
		MaxThroughputRegress: *maxRegress,
		MaxLatencyRegress:    *maxLatRegress,
		FlatRules: []bench.FlatRule{
			{Ref: mqRef, Scaled: "multi-query-sharing/composite/m=64", MaxFactor: *flatFactor},
			{Ref: mqRef, Scaled: "multi-query-sharing/composite/m=256", MaxFactor: *flatFactor},
		},
		ScaleRules: []bench.ScaleRule{
			{
				Ref:       "multi-tenant-ingest/ingesters=1/shards=1",
				Scaled:    "multi-tenant-ingest/ingesters=4/shards=8",
				MinFactor: *minScale,
				MinProcs:  4,
			},
		},
	})
	if len(violations) > 0 {
		fmt.Fprintf(stderr, "benchgate: %d violation(s) against %s:\n", len(violations), *baselinePath)
		for _, v := range violations {
			fmt.Fprintln(stderr, "  -", v)
		}
		return 1
	}
	fmt.Fprintf(stdout,
		"benchgate: %d benchmark(s) within %.0f%% of %s, ingest path allocation-clean, wide-M near-flat\n",
		len(baseline.Results), *maxRegress*100, *baselinePath)
	writeDeltaTable(stdout, baseline, current)
	return 0
}

// writeDeltaTable prints the per-benchmark baseline-vs-current summary a
// passing gate leaves in the CI log: throughput delta, per-op cost delta,
// allocation and latency movement at a glance.
func writeDeltaTable(w io.Writer, baseline, current *bench.Suite) {
	byName := make(map[string]bench.Result, len(current.Results))
	for _, r := range current.Results {
		byName[r.Name] = r
	}
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "benchmark\tevents/sec\tΔ\tns/op\tΔ\tallocs/op\tp99\t")
	for _, base := range baseline.Results {
		cur, ok := byName[base.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.0f\t%s\t%.2f\t%s\t\n",
			base.Name,
			throughputCell(cur.EventsPerSec),
			deltaCell(base.EventsPerSec, cur.EventsPerSec),
			cur.NsPerOp,
			deltaCell(base.NsPerOp, cur.NsPerOp),
			cur.AllocsPerOp,
			latencyCell(cur.P99Ns))
	}
	tw.Flush()
}

func throughputCell(v float64) string {
	if v <= 0 {
		return "—"
	}
	return fmt.Sprintf("%.0f", v)
}

// deltaCell renders the relative movement from base to cur, signed.
func deltaCell(base, cur float64) string {
	if base <= 0 || cur <= 0 {
		return "—"
	}
	return fmt.Sprintf("%+.1f%%", 100*(cur/base-1))
}

func latencyCell(ns float64) string {
	if ns <= 0 {
		return "—"
	}
	return time.Duration(ns).Round(time.Microsecond).String()
}
