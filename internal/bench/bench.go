// Package bench defines the repository's benchmark result schema, its JSON
// serialization, and the regression-gate comparison CI applies to it.
//
// Two things emit Suite documents: the steady-state benchmark suite in
// this package (BENCH_suite.json; its multi-tenant-ingest/shards=* rows are
// the runtime's throughput-vs-shards figures) and streamsim -connect
// -latency-out (BENCH_wire_*.json). The committed
// BENCH_baseline.json at the repository root pins the suite's expected
// numbers; cmd/benchgate compares a fresh run against it and fails CI on a
// throughput regression or any allocation creep on the ingest path. See
// DESIGN.md, "Hot path & benchmarking", for how to refresh the baseline.
package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// Result is one benchmark's steady-state measurement.
type Result struct {
	// Name identifies the benchmark (e.g. "multi-tenant-ingest/shards=8").
	Name string `json:"name"`
	// EventsPerOp is how many workload events one benchmark op processes.
	EventsPerOp int `json:"events_per_op,omitempty"`
	// NsPerOp is wall-clock nanoseconds per op.
	NsPerOp float64 `json:"ns_per_op"`
	// EventsPerSec is the headline throughput metric.
	EventsPerSec float64 `json:"events_per_sec,omitempty"`
	// BytesPerOp and AllocsPerOp are heap allocation costs per op, measured
	// across all goroutines (shard loops included).
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// IngestPath marks benchmarks that exercise the steady-state ingest hot
	// path, where the regression gate rejects any allocs/op increase (the
	// zero-allocation invariant), not just throughput loss.
	IngestPath bool `json:"ingest_path"`
	// P50Ns, P99Ns and P999Ns record wire-serving request latency
	// percentiles in nanoseconds, measured open-loop against intended send
	// deadlines (coordinated-omission aware; see DESIGN.md §9). Zero means
	// the benchmark does not measure latency. Like throughput they are
	// machine-dependent, so the gate's latency rule obeys the same
	// GOMAXPROCS guard.
	P50Ns  float64 `json:"p50_ns,omitempty"`
	P99Ns  float64 `json:"p99_ns,omitempty"`
	P999Ns float64 `json:"p999_ns,omitempty"`
	// MaintMessages records the benchmark workload's deterministic
	// maintenance-message count (the paper's headline metric), measured on a
	// fresh run of the benchmark's fixed event sequence. Zero means the
	// benchmark does not track messages. Unlike throughput it is noise-free
	// and machine-independent, so the gate rejects any increase outright —
	// a regression here means the filtering or sharing logic itself changed
	// (refresh the baseline only for deliberate accounting changes).
	MaintMessages uint64 `json:"maint_messages,omitempty"`
}

// Suite is one benchmark run's emitted document.
type Suite struct {
	// Benchmark labels the producing suite.
	Benchmark string `json:"benchmark"`
	// GoMaxProcs records the parallelism the numbers were taken at.
	GoMaxProcs int `json:"go_max_procs"`
	// Results holds one entry per benchmark, sorted by name on write.
	Results []Result `json:"results"`
}

// Add appends (or replaces, by name) a result.
func (s *Suite) Add(r Result) {
	for i := range s.Results {
		if s.Results[i].Name == r.Name {
			s.Results[i] = r
			return
		}
	}
	s.Results = append(s.Results, r)
}

// WriteFile stores the suite as deterministic, indented JSON.
func (s *Suite) WriteFile(path string) error {
	sort.Slice(s.Results, func(i, j int) bool { return s.Results[i].Name < s.Results[j].Name })
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadFile reads a suite document.
func LoadFile(path string) (*Suite, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Suite
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("bench: parsing %s: %w", path, err)
	}
	return &s, nil
}

// FlatRule pins near-flat scaling within one suite run: the Scaled
// benchmark's per-event cost (ns_per_op / events_per_op) must stay within
// MaxFactor of the Ref benchmark's. Both figures come from the same run on
// the same machine, so — like the alloc and message rules — the check is
// machine-independent and stays enforced even when a GOMAXPROCS mismatch
// downgrades the absolute-throughput rule to advisory. A rule whose Ref and
// Scaled are both absent from the current suite is skipped (the run tracks a
// different benchmark family); one present without the other is a violation.
type FlatRule struct {
	// Ref names the scaling reference point (e.g. the m=1 composite run).
	Ref string
	// Scaled names the point that must stay near the reference (e.g. m=256).
	Scaled string
	// MaxFactor bounds Scaled's per-event cost at MaxFactor × Ref's.
	MaxFactor float64
}

// ScaleRule pins a minimum intra-run speedup between two named results:
// Scaled's events/sec must reach at least MinFactor × Ref's. Both figures
// come from the same run on the same machine, so the bound is
// hardware-relative — but a parallel-ingest speedup cannot materialize
// without cores to run the ingesters on, so the rule is enforced only when
// the current run's GoMaxProcs is at least MinProcs (skipped below that,
// mirroring the GOMAXPROCS guard on the absolute-throughput rule). A rule
// whose Ref and Scaled are both absent from the current suite is skipped;
// one present without the other is a violation.
type ScaleRule struct {
	// Ref names the single-threaded reference point (e.g. ingesters=1).
	Ref string
	// Scaled names the point that must scale past the reference.
	Scaled string
	// MinFactor is the required events/sec ratio Scaled : Ref.
	MinFactor float64
	// MinProcs is the least GoMaxProcs at which the rule is enforced.
	MinProcs int
}

// GateConfig tunes Compare.
type GateConfig struct {
	// MaxThroughputRegress is the tolerated fractional events/sec drop
	// (0.15 = a current run may be up to 15% slower than the baseline).
	MaxThroughputRegress float64
	// MaxLatencyRegress is the tolerated fractional growth of any recorded
	// latency percentile (0.5 = a percentile may sit up to 50% above the
	// baseline). Latency is as machine-dependent as throughput, so the rule
	// shares the GOMAXPROCS guard: a mismatched baseline downgrades it to
	// advisory. Zero disables the rule.
	MaxLatencyRegress float64
	// FlatRules are intra-run scaling bounds checked against the current
	// suite only; the baseline plays no part in them.
	FlatRules []FlatRule
	// ScaleRules are intra-run minimum-speedup bounds, likewise checked
	// against the current suite only, and only at sufficient parallelism.
	ScaleRules []ScaleRule
}

// Compare checks current against baseline and returns one human-readable
// violation per failed rule (empty = gate passes):
//
//   - every baseline result must be present in current;
//   - events/sec must not drop more than MaxThroughputRegress below the
//     baseline (only for results that record throughput, and only when
//     baseline and current ran at the same GOMAXPROCS — absolute
//     throughput from different hardware classes is not comparable, so a
//     mismatched baseline downgrades the throughput rule to advisory
//     until it is refreshed from numbers measured where the gate runs);
//   - recorded latency percentiles (p50/p99/p999) must not sit more than
//     MaxLatencyRegress above the baseline — under the same GOMAXPROCS
//     guard as throughput, since both are machine-dependent;
//   - on ingest-path results, allocs/op must not exceed the baseline at
//     all — the zero-allocation invariant is exact, machine-independent,
//     and enforced unconditionally;
//   - on results recording maintenance messages, the count must not exceed
//     the baseline at all — message counts are deterministic, so growth is
//     a behavioral regression of the filtering/sharing logic, not noise;
//   - every FlatRule must hold within the current run: scaling up the
//     workload dimension the rule tracks must not inflate per-event cost
//     beyond the rule's factor of its reference point. This is the guard
//     for the sub-linear multi-query evaluation path — a return to linear
//     scanning blows the factor out regardless of the hardware the gate
//     happens to run on;
//   - every ScaleRule must hold within the current run when it ran with at
//     least the rule's MinProcs: the scaled result's events/sec must reach
//     MinFactor × the reference's. This is the guard for the concurrent
//     ingest plane — a hot-path lock that serializes the ingesters erases
//     the speedup wherever the cores exist to show it.
//
// Results present only in current are ignored, so new benchmarks can land
// before the baseline is refreshed.
func Compare(baseline, current *Suite, cfg GateConfig) []string {
	var violations []string
	compareThroughput := baseline.GoMaxProcs == current.GoMaxProcs
	byName := make(map[string]Result, len(current.Results))
	for _, r := range current.Results {
		byName[r.Name] = r
	}
	for _, base := range baseline.Results {
		cur, ok := byName[base.Name]
		if !ok {
			violations = append(violations,
				fmt.Sprintf("%s: missing from current run (baseline has it)", base.Name))
			continue
		}
		if compareThroughput && base.EventsPerSec > 0 {
			floor := base.EventsPerSec * (1 - cfg.MaxThroughputRegress)
			if cur.EventsPerSec < floor {
				violations = append(violations, fmt.Sprintf(
					"%s: throughput regressed %.1f%%: %.0f events/sec vs baseline %.0f (floor %.0f)",
					base.Name, 100*(1-cur.EventsPerSec/base.EventsPerSec),
					cur.EventsPerSec, base.EventsPerSec, floor))
			}
		}
		if compareThroughput && cfg.MaxLatencyRegress > 0 {
			for _, pc := range []struct {
				label     string
				base, cur float64
			}{
				{"p50", base.P50Ns, cur.P50Ns},
				{"p99", base.P99Ns, cur.P99Ns},
				{"p999", base.P999Ns, cur.P999Ns},
			} {
				if pc.base <= 0 {
					continue
				}
				ceil := pc.base * (1 + cfg.MaxLatencyRegress)
				if pc.cur > ceil {
					violations = append(violations, fmt.Sprintf(
						"%s: %s latency regressed %.1f%%: %.0f ns vs baseline %.0f (ceiling %.0f)",
						base.Name, pc.label, 100*(pc.cur/pc.base-1), pc.cur, pc.base, ceil))
				}
			}
		}
		if base.IngestPath && cur.AllocsPerOp > base.AllocsPerOp {
			violations = append(violations, fmt.Sprintf(
				"%s: ingest-path allocs/op grew: %.2f vs baseline %.2f",
				base.Name, cur.AllocsPerOp, base.AllocsPerOp))
		}
		if base.MaintMessages > 0 && cur.MaintMessages > base.MaintMessages {
			violations = append(violations, fmt.Sprintf(
				"%s: maintenance messages grew: %d vs baseline %d",
				base.Name, cur.MaintMessages, base.MaintMessages))
		}
	}
	for _, rule := range cfg.FlatRules {
		ref, refOK := byName[rule.Ref]
		scaled, scaledOK := byName[rule.Scaled]
		if !refOK && !scaledOK {
			continue // this run tracks a different benchmark family
		}
		if !refOK || !scaledOK {
			missing := rule.Ref
			if !scaledOK {
				missing = rule.Scaled
			}
			violations = append(violations, fmt.Sprintf(
				"flat rule %s vs %s: %s missing from current run", rule.Scaled, rule.Ref, missing))
			continue
		}
		if ref.EventsPerOp <= 0 || scaled.EventsPerOp <= 0 {
			violations = append(violations, fmt.Sprintf(
				"flat rule %s vs %s: results do not record events/op", rule.Scaled, rule.Ref))
			continue
		}
		perRef := ref.NsPerOp / float64(ref.EventsPerOp)
		perScaled := scaled.NsPerOp / float64(scaled.EventsPerOp)
		if perScaled > perRef*rule.MaxFactor {
			violations = append(violations, fmt.Sprintf(
				"%s: per-event cost not near-flat: %.1f ns/event vs %.1f at %s — factor %.1fx exceeds %.1fx",
				rule.Scaled, perScaled, perRef, rule.Ref, perScaled/perRef, rule.MaxFactor))
		}
	}
	for _, rule := range cfg.ScaleRules {
		if current.GoMaxProcs < rule.MinProcs {
			continue // no cores to scale onto; the bound is unmeasurable here
		}
		ref, refOK := byName[rule.Ref]
		scaled, scaledOK := byName[rule.Scaled]
		if !refOK && !scaledOK {
			continue // this run tracks a different benchmark family
		}
		if !refOK || !scaledOK {
			missing := rule.Ref
			if !scaledOK {
				missing = rule.Scaled
			}
			violations = append(violations, fmt.Sprintf(
				"scale rule %s vs %s: %s missing from current run", rule.Scaled, rule.Ref, missing))
			continue
		}
		if ref.EventsPerSec <= 0 || scaled.EventsPerSec <= 0 {
			violations = append(violations, fmt.Sprintf(
				"scale rule %s vs %s: results do not record events/sec", rule.Scaled, rule.Ref))
			continue
		}
		if scaled.EventsPerSec < ref.EventsPerSec*rule.MinFactor {
			violations = append(violations, fmt.Sprintf(
				"%s: concurrent ingest did not scale: %.0f events/sec vs %.0f at %s — factor %.2fx below required %.2fx",
				rule.Scaled, scaled.EventsPerSec, ref.EventsPerSec,
				rule.Ref, scaled.EventsPerSec/ref.EventsPerSec, rule.MinFactor))
		}
	}
	return violations
}
