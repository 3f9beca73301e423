// Package workload generates the stream update sequences driving the
// experiments: the paper's synthetic random-walk model (§6.2) and a
// TCP-trace-like model substituting for the LBL Internet Traffic Archive
// traces of §6.1 (see DESIGN.md §3 for the substitution rationale).
//
// A workload exposes the number of streams, their initial values at time t0,
// and a time-ordered iterator of value-change events. All generators are
// fully deterministic for a given seed.
package workload

// Event is one stream value change at a simulation time strictly after t0.
// For spatial workloads Value is the X coordinate and Y the second one; 1-D
// generators leave Y zero, matching runtime.Event's convention.
type Event struct {
	Time   float64
	Stream int
	Value  float64
	Y      float64
}

// Iterator yields events in non-decreasing time order.
type Iterator interface {
	// Next returns the next event; ok is false when the workload ends.
	Next() (ev Event, ok bool)
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
	// Events returns a fresh iterator over the update sequence. Each call
	// restarts the same deterministic sequence.
	Events() Iterator
}

// perStream is a lazily merged iterator over independent per-stream event
// generators, used by the random-walk model: each stream proposes its next
// event and a binary heap picks the globally earliest.
type perStream struct {
	h mergeHeap
}

// streamGen produces the next event for one stream; ok=false retires it.
type streamGen func() (Event, bool)

func newPerStream(gens []streamGen) *perStream {
	return &perStream{h: newMergeHeap(gens)}
}

// Next implements Iterator.
func (ps *perStream) Next() (Event, bool) {
	ev, _, ok := ps.h.next()
	return ev, ok
}

type mergeItem struct {
	ev  Event
	gen streamGen
	seq int
}

// TaggedEvent is an Event plus the index of the source iterator that
// produced it, for consumers merging several workloads (one per tenant in
// cmd/streamsim's driver).
type TaggedEvent struct {
	Source int
	Event  Event
}

// TaggedIterator yields tagged events in non-decreasing time order, ties
// broken by source index.
type TaggedIterator struct {
	h mergeHeap
}

// MergeIterators merges per-source event iterators into one globally
// time-ordered stream over the same heap the random-walk model uses
// internally, so both merge paths share one tie-break rule.
func MergeIterators(its []Iterator) *TaggedIterator {
	gens := make([]streamGen, len(its))
	for i, it := range its {
		gens[i] = it.Next
	}
	return &TaggedIterator{h: newMergeHeap(gens)}
}

// Next returns the globally earliest pending event and its source index;
// ok is false when every source is exhausted.
func (ti *TaggedIterator) Next() (TaggedEvent, bool) {
	ev, src, ok := ti.h.next()
	return TaggedEvent{Source: src, Event: ev}, ok
}

// mergeHeap is a binary min-heap of sources ordered by (ev.Time, seq). The
// order is total — no two sources share a seq — so the merged sequence is
// the same under any correct priority queue. A source's next event
// replaces the root and sifts down: no interface calls, one move per level.
type mergeHeap []mergeItem

// before reports whether a comes out of the merge ahead of b.
func before(a, b *mergeItem) bool {
	if a.ev.Time != b.ev.Time {
		return a.ev.Time < b.ev.Time
	}
	return a.seq < b.seq
}

// newMergeHeap draws each generator's first event, retires the empty ones
// and heapifies the rest; a source's seq is its index in gens.
func newMergeHeap(gens []streamGen) mergeHeap {
	var h mergeHeap
	for i, g := range gens {
		if ev, ok := g(); ok {
			h = append(h, mergeItem{ev: ev, gen: g, seq: i})
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	return h
}

// next returns the earliest pending event and its source's seq, and puts
// that source's following event in its place (or retires the source); ok
// is false when every source is exhausted.
func (h *mergeHeap) next() (ev Event, seq int, ok bool) {
	if len(*h) == 0 {
		return Event{}, 0, false
	}
	top := &(*h)[0]
	ev, seq = top.ev, top.seq
	if nxt, more := top.gen(); more {
		top.ev = nxt
		h.down(0)
	} else {
		h.dropRoot()
	}
	return ev, seq, true
}

// down sifts item i toward the leaves until neither child comes before it.
func (h mergeHeap) down(i int) {
	n := len(h)
	it := h[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && before(&h[r], &h[c]) {
			c = r
		}
		if !before(&h[c], &it) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = it
}

// dropRoot removes a retired source: the last leaf moves to the root and
// sifts down.
func (h *mergeHeap) dropRoot() {
	old := *h
	n := len(old) - 1
	old[0] = old[n]
	old[n] = mergeItem{}
	*h = old[:n]
	if n > 0 {
		h.down(0)
	}
}
