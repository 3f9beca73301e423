// Command benchmark is the repository's end-to-end benchmark: it drives the
// serving stack through its public surfaces (client → wire → netserve →
// Ingester → shard → protocol, and the cluster router above it) on four
// generated workloads, verifies every answer, and prints named metrics.
// BENCHMARK.json at the repository root declares the workloads, the
// end-to-end metrics with their regression bounds, and the per-layer
// metrics; benchmark/README.md defines them.
//
//	go run ./benchmark -workload wire-range -seed 1 -seconds 10 -trace 0
//	go run ./benchmark -workload node-rank -seed 1 -seconds 10 -trace 1
//	go run ./benchmark -compare a.jsonl b.jsonl
//
// With -trace 0 the last line of standard output carries the end-to-end
// metrics, measured with no tracing; with -trace 1 the workload is repeated
// with driver-side spans around every call and the outside-in cost ledger
// runs, and the last line carries the per-layer metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	goruntime "runtime"
)

// metric is one named measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome; its JSON form is the last line of standard
// output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	problems []string // verification failures, printed before the result
	notes    []string // context lines, printed before the result
}

// record is one line of a result-set file (-record, read by -compare).
type record struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Trace    int     `json:"trace"`
	Result   *result `json:"result"`
}

// setupRepeats is how many times the untraced run sets up; setup_s is the
// median.
const setupRepeats = 5

func main() {
	var (
		name     = flag.String("workload", "", "workload to run: wire-range | node-rank | node-multiquery | cluster-churn")
		seed     = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds  = flag.Float64("seconds", 10, "how long the timed phases measure")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run plus the cost ledger")
		traceOut = flag.String("trace-out", "", "with -trace 1, write the recorded spans to this file as JSON")
		recordTo = flag.String("record", "", "append this run's result to a result-set file for -compare")
		compare  = flag.Bool("compare", false, "compare two result-set files (arguments) against the bounds in BENCHMARK.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatalf("-compare takes two result-set files")
		}
		if err := compareSets(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1)); err != nil {
			fatalf("%v", err)
		}
		return
	}
	w, ok := workloadByName(*name)
	if !ok {
		fatalf("unknown workload %q", *name)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fatalf("-seconds must be positive and -trace 0 or 1")
	}
	fmt.Printf("env: nproc=%d GOMAXPROCS=%d %s workload=%s seed=%d seconds=%g trace=%d\n",
		goruntime.NumCPU(), goruntime.GOMAXPROCS(0), goruntime.Version(), w.name, *seed, *seconds, *trace)

	var res *result
	var err error
	if *trace == 0 {
		res, err = runEndToEnd(w, *seed, *seconds, setupRepeats)
	} else {
		res, err = runTraced(w, *seed, *seconds, *traceOut)
	}
	if err != nil {
		fatalf("%s: %v", w.name, err)
	}
	for _, n := range res.notes {
		fmt.Println(n)
	}
	for _, p := range res.problems {
		fmt.Println("VERIFICATION FAILED:", p)
	}
	if *recordTo != "" {
		if err := appendRecord(*recordTo, record{w.name, *seed, *trace, res}); err != nil {
			fatalf("%v", err)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
