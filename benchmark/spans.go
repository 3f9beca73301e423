package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the driver around the
// call (the program under test carries no tracing of its own).
type span struct {
	Name   string
	Start  int64 // ns since the tracer's epoch
	End    int64
	Parent int32  // index of the causing span, -1 for a root
	Seq    uint64 // batch sequence number; spans of one batch share it
}

// Spans live in pre-sized memory. Each kind of span (one name) may store
// kindSpans of them, so a frequent call cannot crowd the rarer ones out of
// the trace; running sums, counts and up to kindSamples durations per kind
// keep going past that, so per-layer figures never depend on the caps.
const (
	maxSpans    = 1 << 17
	kindSpans   = 1 << 14
	kindSamples = 1 << 16
)

// spanKind is the running account of the spans of one name.
type spanKind struct {
	name   string
	sum    int64 // ns
	count  int64
	stored int
	durs   []float64 // ns, the first kindSamples of them
}

// tracer records spans. A nil tracer records nothing, so the untraced run
// pays one nil check per call site. Not safe for concurrent use: one
// goroutine (the sender) owns it.
type tracer struct {
	epoch time.Time
	spans []span
	kinds map[string]*spanKind
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, maxSpans), kinds: make(map[string]*spanKind)}
}

// kind returns name's account (nil on a nil tracer). Hot call sites look
// it up once and keep the pointer.
func (t *tracer) kind(name string) *spanKind {
	if t == nil {
		return nil
	}
	k := t.kinds[name]
	if k == nil {
		k = &spanKind{name: name}
		t.kinds[name] = k
	}
	return k
}

// store appends a span if both caps allow and returns its index, or -1.
func (t *tracer) store(k *spanKind, s span) int32 {
	if k.stored == kindSpans || len(t.spans) == cap(t.spans) {
		return -1
	}
	k.stored++
	t.spans = append(t.spans, s)
	return int32(len(t.spans) - 1)
}

func (k *spanKind) account(d int64) {
	k.sum += d
	k.count++
	if len(k.durs) < kindSamples {
		k.durs = append(k.durs, float64(d))
	}
}

// open starts a parent span (a phase or a segment) now and returns its
// index, or -1 when it is not stored.
func (t *tracer) open(name string, parent int32) int32 {
	if t == nil {
		return -1
	}
	return t.store(t.kind(name), span{Name: name, Start: int64(time.Since(t.epoch)), Parent: parent})
}

// close ends a span started by open.
func (t *tracer) close(id int32) {
	if id < 0 {
		return
	}
	s := &t.spans[id]
	s.End = int64(time.Since(t.epoch))
	t.kind(s.Name).account(s.End - s.Start)
}

// add records one measured call: a leaf span.
func (t *tracer) add(k *spanKind, start time.Time, d time.Duration, parent int32, seq uint64) {
	if t == nil {
		return
	}
	s := int64(start.Sub(t.epoch))
	t.store(k, span{Name: k.name, Start: s, End: s + int64(d), Parent: parent, Seq: seq})
	k.account(int64(d))
}

// selfTimes returns, per span, its duration minus the part of its interval
// covered by its direct children (children may overlap one another, as
// pipelined batches do, so the cover is the union of their intervals).
func selfTimes(spans []span) []int64 {
	kids := make(map[int32][]int32)
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		ks := kids[int32(i)]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].Start < spans[ks[b]].Start })
		covered := s.Start
		for _, k := range ks {
			lo, hi := max(spans[k].Start, covered), min(spans[k].End, s.End)
			if hi > lo {
				self[i] -= hi - lo
				covered = hi
			}
		}
	}
	return self
}

// writeJSON dumps the spans, with self times, as one JSON array.
func (t *tracer) writeJSON(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	self := selfTimes(t.spans)
	fmt.Fprint(w, "[")
	for i, s := range t.spans {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		fmt.Fprintf(w, "\n{\"id\":%d,\"name\":%q,\"start_ns\":%d,\"end_ns\":%d,\"self_ns\":%d,\"parent\":%d,\"seq\":%d}",
			i, s.Name, s.Start, s.End, self[i], s.Parent, s.Seq)
	}
	fmt.Fprint(w, "\n]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
