package workload

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Replay is a workload backed by a recorded trace, so real data (e.g. the
// actual LBL Internet Traffic Archive connections the paper used, when
// available) can drive the protocols instead of the synthetic substitutes.
// Traces use the same CSV schema cmd/tracegen emits: a `time,stream,value`
// header followed by one event per line, time-ordered or not (events are
// sorted on load with a stable order for ties).
type Replay struct {
	name    string
	initial []float64
	events  []Event
}

// NewReplay builds a replay workload over explicit initial values and
// events. Events are sorted by (time, original position); a negative,
// infinite or NaN time is refused.
func NewReplay(name string, initial []float64, events []Event) (*Replay, error) {
	if len(initial) == 0 {
		return nil, fmt.Errorf("workload: replay needs at least one stream")
	}
	for i, ev := range events {
		if ev.Stream < 0 || ev.Stream >= len(initial) {
			return nil, fmt.Errorf("workload: replay event %d references stream %d of %d",
				i, ev.Stream, len(initial))
		}
		if !validTime(ev.Time) {
			return nil, fmt.Errorf("workload: replay event %d has invalid time %v", i, ev.Time)
		}
	}
	sorted := append([]Event(nil), events...)
	sort.SliceStable(sorted, func(a, b int) bool { return sorted[a].Time < sorted[b].Time })
	return &Replay{name: name, initial: append([]float64(nil), initial...), events: sorted}, nil
}

// ParseCSV reads a `time,stream,value` trace. The initial value of each
// stream is its first event's value (streams never seen start at 0); the
// remaining events become the update sequence. n fixes the stream-id space;
// pass 0 to size it from the largest id seen. A NaN value, a time that is
// NaN, negative or infinite, a negative id, or one outside a given n, is
// refused with its line number — a row seeding an initial value included.
// An infinite value is accepted: the runtime takes ±Inf updates, and a
// filter decides them like any other value.
func ParseCSV(name string, r io.Reader, n int) (*Replay, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	lineNo := 0
	var events []Event
	maxID := -1
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if lineNo == 1 && strings.HasPrefix(strings.ToLower(line), "time,") {
			continue // header
		}
		parts := strings.Split(line, ",")
		if len(parts) != 3 {
			return nil, fmt.Errorf("workload: %s line %d: want 3 fields, got %d",
				name, lineNo, len(parts))
		}
		t, err := parseNumber(parts[0])
		if err != nil {
			return nil, fmt.Errorf("workload: %s line %d: time: %w", name, lineNo, err)
		}
		if !validTime(t) {
			return nil, fmt.Errorf("workload: %s line %d: time %v is negative or infinite", name, lineNo, t)
		}
		id, err := strconv.Atoi(strings.TrimSpace(parts[1]))
		if err != nil {
			return nil, fmt.Errorf("workload: %s line %d: stream: %w", name, lineNo, err)
		}
		if id < 0 {
			return nil, fmt.Errorf("workload: %s line %d: stream %d is negative", name, lineNo, id)
		}
		if n > 0 && id >= n {
			return nil, fmt.Errorf("workload: %s line %d: stream %d of %d", name, lineNo, id, n)
		}
		v, err := parseNumber(parts[2])
		if err != nil {
			return nil, fmt.Errorf("workload: %s line %d: value: %w", name, lineNo, err)
		}
		if id > maxID {
			maxID = id
		}
		events = append(events, Event{Time: t, Stream: id, Value: v})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("workload: %s: %w", name, err)
	}
	if n <= 0 {
		n = maxID + 1
	}
	if n <= 0 {
		return nil, fmt.Errorf("workload: %s: empty trace and no stream count", name)
	}
	sort.SliceStable(events, func(a, b int) bool { return events[a].Time < events[b].Time })

	// First observation of each stream seeds its initial value; the rest
	// replay as updates.
	initial := make([]float64, n)
	seen := make([]bool, n)
	updates := events[:0]
	for _, ev := range events {
		if !seen[ev.Stream] {
			seen[ev.Stream] = true
			initial[ev.Stream] = ev.Value
			continue
		}
		updates = append(updates, ev)
	}
	return NewReplay(name, initial, updates)
}

// parseNumber parses a time or value field, refusing NaN: no stream may
// hold one, and no time order can place one.
func parseNumber(field string) (float64, error) {
	f, err := strconv.ParseFloat(strings.TrimSpace(field), 64)
	if err == nil && math.IsNaN(f) {
		err = errors.New("NaN")
	}
	return f, err
}

// validTime says whether t can be an event time: finite and not negative.
func validTime(t float64) bool { return t >= 0 && !math.IsInf(t, 1) }

// Name implements Workload.
func (r *Replay) Name() string { return fmt.Sprintf("replay(%s,n=%d)", r.name, len(r.initial)) }

// N implements Workload.
func (r *Replay) N() int { return len(r.initial) }

// Initial implements Workload.
func (r *Replay) Initial() []float64 { return append([]float64(nil), r.initial...) }

// Events implements Workload: the parsed or given events, sorted on load.
func (r *Replay) Events() []Event { return r.events }
