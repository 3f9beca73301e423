// Command benchgate is the CI benchmark regression gate: it compares a
// fresh BENCH_*.json suite against the committed baseline and exits
// non-zero when throughput regressed beyond the tolerance, when a recorded
// serving-latency percentile (p50/p99/p999) grew past its allowance, when
// any ingest-path benchmark's allocs/op grew (the zero-allocation
// invariant), when a deterministic maintenance-message count grew, or when
// the multi-query scaling points stopped being near-flat.
//
// Usage:
//
//	benchgate -baseline BENCH_baseline.json -current BENCH_suite.json \
//	    [-max-regress 0.15] [-max-lat-regress 0.5] [-flat-factor 3]
//
// The near-flat rule is intra-run and machine-independent: within the
// current suite, the per-event cost of the M=64 and M=256 composite points
// must stay within -flat-factor of the M=1 point (measured about 1.3). A
// regression back to scanning every standing query per event, or to
// dispatching every report to all M queries (5.7× at M=256 when that was
// the design), scales per-event cost with M and cannot pass, no matter how
// fast the machine is.
//
// On a passing gate it prints a per-benchmark delta table (throughput,
// per-op cost, allocations, p99 latency against the baseline) so CI logs
// show the movement a green build ships with.
//
// To refresh the baseline after an intentional performance change, run the
// suite locally (or download the BENCH_suite artifact from a green main
// build) and commit it as BENCH_baseline.json — see DESIGN.md, "Hot path &
// benchmarking".
package main

import "os"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
