package workload

import (
	"cmp"
	"slices"
	"testing"

	"adaptivefilters/internal/sim"
)

// sliceIter returns a fresh Iterator over the given events.
func sliceIter(events ...Event) Iterator {
	i := 0
	return iteratorFunc(func() (Event, bool) {
		if i >= len(events) {
			return Event{}, false
		}
		ev := events[i]
		i++
		return ev, true
	})
}

func collect(t *testing.T, ti *TaggedIterator) []TaggedEvent {
	t.Helper()
	var out []TaggedEvent
	for {
		ev, ok := ti.Next()
		if !ok {
			// Exhaustion must be stable: further calls keep returning !ok.
			if _, again := ti.Next(); again {
				t.Fatal("exhausted iterator yielded another event")
			}
			return out
		}
		out = append(out, ev)
	}
}

func TestMergeIteratorsEmptySet(t *testing.T) {
	if got := collect(t, MergeIterators(nil)); len(got) != 0 {
		t.Fatalf("merge of no iterators yielded %v", got)
	}
	// Present-but-empty sources behave the same as none.
	if got := collect(t, MergeIterators([]Iterator{sliceIter(), sliceIter()})); len(got) != 0 {
		t.Fatalf("merge of empty iterators yielded %v", got)
	}
}

func TestMergeIteratorsSingleIterator(t *testing.T) {
	events := []Event{
		{Time: 1, Stream: 0, Value: 10},
		{Time: 2, Stream: 1, Value: 20},
		{Time: 3, Stream: 0, Value: 30},
	}
	got := collect(t, MergeIterators([]Iterator{sliceIter(events...)}))
	if len(got) != len(events) {
		t.Fatalf("single-iterator merge yielded %d events, want %d", len(got), len(events))
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
	its := []Iterator{
		sliceIter(Event{Time: 5, Stream: 0, Value: 1}, Event{Time: 7, Stream: 0, Value: 4}),
		sliceIter(Event{Time: 5, Stream: 1, Value: 2}, Event{Time: 5, Stream: 1, Value: 3}),
		sliceIter(Event{Time: 5, Stream: 2, Value: 5}),
	}
	got := collect(t, MergeIterators(its))
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

// TestMergeIteratorsExhaustionMidMerge retires sources at different points
// and checks the remaining sources keep merging in time order (covering the
// heap's root-drop path).
func TestMergeIteratorsExhaustionMidMerge(t *testing.T) {
	its := []Iterator{
		sliceIter(Event{Time: 1}, Event{Time: 9}),
		sliceIter(Event{Time: 2}), // retires first
		sliceIter(Event{Time: 3}, Event{Time: 4}, Event{Time: 8}),
	}
	got := collect(t, MergeIterators(its))
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

// TestMergeIteratorsMatchesSequentialSort cross-checks the heap merge
// against a reference: interleaving many sources with unique times must
// yield a globally sorted sequence containing every event exactly once.
func TestMergeIteratorsMatchesSequentialSort(t *testing.T) {
	const sources = 7
	its := make([]Iterator, sources)
	total := 0
	for s := 0; s < sources; s++ {
		var evs []Event
		// Source s emits times s, s+sources, s+2·sources, … — fully
		// interleaved across sources, length varying per source.
		for i := 0; i < 5+s; i++ {
			evs = append(evs, Event{Time: float64(s + i*sources), Stream: s})
		}
		total += len(evs)
		its[s] = sliceIter(evs...)
	}
	got := collect(t, MergeIterators(its))
	if len(got) != total {
		t.Fatalf("merged %d events, want %d", len(got), total)
	}
	for i := 1; i < len(got); i++ {
		if got[i].Event.Time < got[i-1].Event.Time {
			t.Fatalf("out of order at %d: %v after %v", i, got[i], got[i-1])
		}
	}
}

// TestMergeHeapMatchesStableSort holds the typed heap to its definition
// on seeded sources of 1 to 40 iterators whose times tie often: the merge
// is every event stably sorted by time, then source, then arrival — as
// the (Time, seq) order makes it under any correct priority queue.
func TestMergeHeapMatchesStableSort(t *testing.T) {
	rng := sim.NewRNG(46)
	for round := 0; round < 200; round++ {
		sources := 1 + rng.Intn(40)
		its := make([]Iterator, sources)
		var want []TaggedEvent
		for s := range its {
			var evs []Event
			at := float64(rng.Intn(5))
			for i := rng.Intn(12); i > 0; i-- {
				at += float64(rng.Intn(3)) // ties within and across sources
				evs = append(evs, Event{Time: at, Stream: s, Value: float64(len(evs))})
				want = append(want, TaggedEvent{Source: s, Event: evs[len(evs)-1]})
			}
			its[s] = sliceIter(evs...)
		}
		slices.SortStableFunc(want, func(a, b TaggedEvent) int {
			return cmp.Or(cmp.Compare(a.Event.Time, b.Event.Time), cmp.Compare(a.Source, b.Source))
		})
		if got := collect(t, MergeIterators(its)); !slices.Equal(got, want) {
			t.Fatalf("round %d (%d sources): merged\n%v\nwant\n%v", round, sources, got, want)
		}
	}
}
