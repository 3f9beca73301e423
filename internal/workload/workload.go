// Package workload generates the stream update sequences driving the
// experiments: the paper's synthetic random-walk model (§6.2) and a
// TCP-trace-like model substituting for the LBL Internet Traffic Archive
// traces of §6.1 (see DESIGN.md §3 for the substitution rationale).
//
// A workload exposes the number of streams, their initial values at time
// t0, and its trace: the time-ordered slice of value-change events,
// generated once on first use and shared read-only by every caller. All
// generators are fully deterministic for a given seed.
package workload

import (
	"math"
	"sync"
)

// Event is one stream value change at a simulation time strictly after t0.
// For spatial workloads Value is the X coordinate and Y the second one; 1-D
// generators leave Y zero, matching runtime.Event's convention.
type Event struct {
	Time   float64
	Stream int
	Value  float64
	Y      float64
}

// Workload describes a reproducible stream update sequence.
type Workload interface {
	// Name identifies the workload in reports.
	Name() string
	// N returns the number of streams.
	N() int
	// Initial returns the true stream values at time t0. The slice is owned
	// by the caller.
	Initial() []float64
	// Events returns the update sequence in non-decreasing time order. The
	// first call generates it; every call returns the same slice, which
	// callers must not modify. Safe for concurrent use.
	Events() []Event
}

// trace is a workload's event slice, generated on first use.
type trace struct {
	once   sync.Once
	events []Event
}

func (tr *trace) get(gen func() []Event) []Event {
	tr.once.Do(func() { tr.events = gen() })
	return tr.events
}

// mergeRuns merges time-ordered runs into one time-ordered slice, ties
// going to the earlier run, then to arrival within it. Run i is
// s[ends[i-1]:ends[i]] (run 0 starts at 0). Adjacent runs merge pairwise,
// so k runs take log2(k) linear passes between s and one scratch slice;
// the result is one of the two.
func mergeRuns[T any](s []T, ends []int, time func(*T) float64) []T {
	if len(ends) < 2 {
		return s
	}
	buf := make([]T, len(s))
	for len(ends) > 1 {
		next, lo := ends[:0], 0
		for i := 0; i < len(ends); i += 2 {
			hi := ends[i]
			if i+1 < len(ends) {
				hi = ends[i+1]
				merge2(buf[lo:hi], s[lo:ends[i]], s[ends[i]:hi], time)
			} else {
				copy(buf[lo:hi], s[lo:hi])
			}
			next, lo = append(next, hi), hi
		}
		ends, s, buf = next, buf, s
	}
	return s
}

// merge2 merges time-ordered a and b into dst, ties to a.
func merge2[T any](dst, a, b []T, time func(*T) float64) {
	k := 0
	for len(a) > 0 && len(b) > 0 {
		if time(&b[0]) < time(&a[0]) {
			dst[k], b = b[0], b[1:]
		} else {
			dst[k], a = a[0], a[1:]
		}
		k++
	}
	k += copy(dst[k:], a)
	copy(dst[k:], b)
}

func eventTime(ev *Event) float64 { return ev.Time }

// Merge merges per-source traces, each in time order, into one globally
// time-ordered sequence — ties go to the lower source index, then to
// arrival within the source, the rule the generators' own per-stream walks
// follow — and returns it as sources: the i-th merged event is the next
// unread event of traces[order[i]]. cmd/streamsim merges its tenants so.
func Merge(traces [][]Event) (order []int) {
	type key struct {
		time   float64
		source int
	}
	n := 0
	for _, tr := range traces {
		n += len(tr)
	}
	keys := make([]key, 0, n)
	ends := make([]int, len(traces))
	for s, tr := range traces {
		for _, ev := range tr {
			keys = append(keys, key{ev.Time, s})
		}
		ends[s] = len(keys)
	}
	order = make([]int, n)
	for i, k := range mergeRuns(keys, ends, func(k *key) float64 { return k.time }) {
		order[i] = k.source
	}
	return order
}

// walkCap is the capacity to reserve for n per-stream walks of mean gap
// meanGap up to horizon: the expected count plus a margin of a few
// standard deviations, so the trace is rarely regrown.
func walkCap(n int, horizon, meanGap float64) int {
	want := float64(n) * horizon / meanGap
	return int(min(want+4*math.Sqrt(want)+16, 1<<24))
}
