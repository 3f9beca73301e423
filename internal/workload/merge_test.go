package workload

import (
	"cmp"
	"slices"
	"testing"

	"adaptivefilters/internal/sim"
)

// TaggedEvent is a merged event and the index of its trace.
type TaggedEvent struct {
	Source int
	Event  Event
}

// scanMerge is Merge's reference, by another algorithm: it repeatedly takes
// the head of the source whose next event is earliest, the lowest source
// index among equal times.
func scanMerge(traces [][]Event) []TaggedEvent {
	at := make([]int, len(traces))
	var out []TaggedEvent
	for {
		best := -1
		for s, tr := range traces {
			if at[s] < len(tr) && (best < 0 || tr[at[s]].Time < traces[best][at[best]].Time) {
				best = s
			}
		}
		if best < 0 {
			return out
		}
		out = append(out, TaggedEvent{Source: best, Event: traces[best][at[best]]})
		at[best]++
	}
}

// merge runs Merge, replays its order over the traces, and checks the
// result against scanMerge.
func merge(t *testing.T, traces ...[]Event) []TaggedEvent {
	t.Helper()
	order := Merge(traces)
	at := make([]int, len(traces))
	got := make([]TaggedEvent, len(order))
	for i, s := range order {
		got[i] = TaggedEvent{Source: s, Event: traces[s][at[s]]}
		at[s]++
	}
	if want := scanMerge(traces); !slices.Equal(got, want) {
		t.Fatalf("Merge\n%v\ndiffers from the scan merge\n%v", got, want)
	}
	return got
}

func TestMergeIteratorsEmptySet(t *testing.T) {
	if got := merge(t); len(got) != 0 {
		t.Fatalf("merge of no traces yielded %v", got)
	}
	// Present-but-empty sources behave the same as none.
	if got := merge(t, nil, []Event{}); len(got) != 0 {
		t.Fatalf("merge of empty traces yielded %v", got)
	}
}

func TestMergeIteratorsSingleIterator(t *testing.T) {
	events := []Event{
		{Time: 1, Stream: 0, Value: 10},
		{Time: 2, Stream: 1, Value: 20},
		{Time: 3, Stream: 0, Value: 30},
	}
	got := merge(t, events)
	if len(got) != len(events) {
		t.Fatalf("single-trace merge yielded %d events, want %d", len(got), len(events))
	}
	for i, ev := range got {
		if ev.Source != 0 || ev.Event != events[i] {
			t.Fatalf("event %d = %+v, want source 0 of %+v", i, ev, events[i])
		}
	}
}

// TestMergeIteratorsEqualTimestamps pins the tie-break rule: events with
// equal times drain in source-index order, regardless of the order the
// ties become visible in.
func TestMergeIteratorsEqualTimestamps(t *testing.T) {
	got := merge(t,
		[]Event{{Time: 5, Stream: 0, Value: 1}, {Time: 7, Stream: 0, Value: 4}},
		[]Event{{Time: 5, Stream: 1, Value: 2}, {Time: 5, Stream: 1, Value: 3}},
		[]Event{{Time: 5, Stream: 2, Value: 5}},
	)
	wantSources := []int{0, 1, 1, 2, 0}
	if len(got) != len(wantSources) {
		t.Fatalf("merged %d events, want %d (%v)", len(got), len(wantSources), got)
	}
	for i, ev := range got {
		if ev.Source != wantSources[i] {
			t.Fatalf("event %d came from source %d, want %d (%v)", i, ev.Source, wantSources[i], got)
		}
	}
	// Within one source, arrival order is preserved for equal times.
	if got[1].Event.Value != 2 || got[2].Event.Value != 3 {
		t.Fatalf("source-1 ties reordered: %v", got)
	}
}

// TestMergeIteratorsExhaustionMidMerge ends sources at different points
// and checks the remaining sources keep merging in time order.
func TestMergeIteratorsExhaustionMidMerge(t *testing.T) {
	got := merge(t,
		[]Event{{Time: 1}, {Time: 9}},
		[]Event{{Time: 2}}, // ends first
		[]Event{{Time: 3}, {Time: 4}, {Time: 8}},
	)
	wantTimes := []float64{1, 2, 3, 4, 8, 9}
	wantSources := []int{0, 1, 2, 2, 2, 0}
	if len(got) != len(wantTimes) {
		t.Fatalf("merged %d events, want %d (%v)", len(got), len(wantTimes), got)
	}
	for i, ev := range got {
		if ev.Event.Time != wantTimes[i] || ev.Source != wantSources[i] {
			t.Fatalf("event %d = (t=%v, src=%d), want (t=%v, src=%d)",
				i, ev.Event.Time, ev.Source, wantTimes[i], wantSources[i])
		}
	}
}

// TestMergeIteratorsMatchesSequentialSort cross-checks the merge: many
// interleaved sources with unique times must yield a globally sorted
// sequence containing every event exactly once.
func TestMergeIteratorsMatchesSequentialSort(t *testing.T) {
	const sources = 7
	traces := make([][]Event, sources)
	total := 0
	for s := range traces {
		// Source s emits times s, s+sources, s+2·sources, … — fully
		// interleaved across sources, length varying per source.
		for i := 0; i < 5+s; i++ {
			traces[s] = append(traces[s], Event{Time: float64(s + i*sources), Stream: s})
		}
		total += len(traces[s])
	}
	got := merge(t, traces...)
	if len(got) != total {
		t.Fatalf("merged %d events, want %d", len(got), total)
	}
	for i := 1; i < len(got); i++ {
		if got[i].Event.Time < got[i-1].Event.Time {
			t.Fatalf("out of order at %d: %v after %v", i, got[i], got[i-1])
		}
	}
}

// TestMergeHeapMatchesStableSort holds the merge to its definition on
// seeded sources of 1 to 40 traces whose times tie often: the merge is
// every event stably sorted by time, then source, then arrival, and it
// agrees with the scan merge.
func TestMergeHeapMatchesStableSort(t *testing.T) {
	rng := sim.NewRNG(46)
	for round := 0; round < 200; round++ {
		traces := make([][]Event, 1+rng.Intn(40))
		var want []TaggedEvent
		for s := range traces {
			at := float64(rng.Intn(5))
			for i := rng.Intn(12); i > 0; i-- {
				at += float64(rng.Intn(3)) // ties within and across sources
				ev := Event{Time: at, Stream: s, Value: float64(len(traces[s]))}
				traces[s] = append(traces[s], ev)
				want = append(want, TaggedEvent{Source: s, Event: ev})
			}
		}
		slices.SortStableFunc(want, func(a, b TaggedEvent) int {
			return cmp.Or(cmp.Compare(a.Event.Time, b.Event.Time), cmp.Compare(a.Source, b.Source))
		})
		if got := merge(t, traces...); !slices.Equal(got, want) {
			t.Fatalf("round %d (%d sources): merged\n%v\nwant\n%v", round, len(traces), got, want)
		}
	}
}
