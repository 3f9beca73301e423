// Package stream implements the filter-equipped remote stream sources of the
// paper's system model (§3.1, Figure 3).
//
// Each source holds its current value and an adaptive filter constraint. When
// the value changes it owes the server a report only if the filter is
// violated (the value crossed the constraint boundary) or if no filter is
// installed. Sources also answer server probes and accept filter
// installations.
//
// A source is plain data: it holds no identity and no uplink. Set and
// Install return whether a report is owed, and the caller — the server's
// cluster, which knows the stream's index — delivers it; the batch installs
// (InstallAll, InstallEach) take that uplink once per batch.
package stream

import (
	"fmt"

	"adaptivefilters/internal/filter"
	"adaptivefilters/internal/snapshot"
)

// ID identifies a stream source. IDs are dense indices 0..n-1.
type ID = int

// Source is one remote data stream with its adaptive filter, over values of
// type V filtered by constraints of type C: float64 and filter.Constraint
// for the paper's 1-D model, filter.Point and filter.Region for the §7
// planar extension. V is comparable so that NaN — a value unequal to itself
// — is recognised without knowing V's shape; a NaN reaching a source is a
// caller bug and panics, because validation belongs to the trust boundaries
// in front of it (runtime admission and ingest, snapshot restore).
//
// Under a crossing-mode constraint the recorded side always equals the side
// the constraint puts the value on: Set and every install establish it, and
// ImportState refuses a record that breaks it. So a probe is a plain read.
type Source[V comparable, C filter.Of[V, C]] struct {
	val    V
	cons   C
	inside bool // side of the constraint of the last value known to the server
	mode   mode
	// Updates counts value changes applied to the source (its raw stream
	// rate); Reports counts how many were actually sent to the server.
	Updates uint64
	Reports uint64
}

// mode is how a source reacts to its installed constraint, classified once
// per Install so that Set and Probe do not ask the constraint again.
type mode uint8

const (
	unfiltered mode = iota // report every update
	crossing               // report when the recorded side flips
	following              // report a deviation and re-centre (filter.Of.Recentre)
	silent                 // never report: a wide-open or shut constraint
)

func classify[V any, C filter.Of[V, C]](c C, v V) mode {
	if c.Unfiltered() {
		return unfiltered
	}
	if _, ok := c.Recentre(v); ok {
		return following
	}
	if c.Silent() {
		return silent
	}
	return crossing
}

// NewSource returns a source with the given initial value and no filter
// installed. An unfiltered source reports every update (paper §3.1: "If no
// filter is installed at a stream, all updates from the stream are
// reported").
func NewSource[V comparable, C filter.Of[V, C]](initial V) Source[V, C] {
	if initial != initial {
		panic("stream: NaN initial value")
	}
	return Source[V, C]{val: initial}
}

// New returns a 1-D source (see NewSource).
func New(initial float64) Source[float64, filter.Constraint] {
	return NewSource[float64, filter.Constraint](initial)
}

// NewSpatial returns a planar source (see NewSource).
func NewSpatial(initial filter.Point) Source[filter.Point, filter.Region] {
	return NewSource[filter.Point, filter.Region](initial)
}

// Value returns the true current value. Only the workload driver, probes and
// the ground-truth oracle may call this; protocols must rely on reported
// data.
func (s *Source[V, C]) Value() V { return s.val }

// Constraint returns the currently installed filter constraint.
func (s *Source[V, C]) Constraint() C { return s.cons }

// Inside reports the source's recorded side of its constraint — i.e. the
// side the server believes the stream is on.
func (s *Source[V, C]) Inside() bool { return s.inside }

// Set applies a new value from the workload. It returns whether the server
// is owed a report of the new value: when the filter is violated, or
// always, when unfiltered. The caller delivers it; Reports already counts
// it.
func (s *Source[V, C]) Set(v V) bool {
	if v != v {
		panic("stream: NaN value delivered to source")
	}
	s.Updates++
	s.val = v
	switch s.mode {
	case unfiltered:
	case silent:
		// Shut is [+∞, +∞], so a value can reach it, but a silent
		// constraint owes no report.
		return false
	case following:
		// Value-based filter: report on deviation beyond the half-width and
		// re-center locally (no server round-trip; Olston-style).
		if s.cons.Contains(v) {
			return false
		}
		s.cons, _ = s.cons.Recentre(v)
	default:
		nowInside := s.cons.Contains(v)
		if nowInside == s.inside {
			return false
		}
		s.inside = nowInside
	}
	s.Reports++
	return true
}

// Install sets a new filter constraint. expectInside is the side of the new
// constraint the server believes this stream is on (from its value table).
// If the true side differs, the source owes the server an immediate report
// of its value so the server's view converges — unless the constraint is
// silent (wide-open and shut constraints never owe a report, here or in
// Set); the report travels through the normal uplink and is counted as
// an update message. Install returns whether such a mismatch report is
// owed; the caller delivers it.
//
// The paper's correctness argument assumes stream values do not change
// during constraint resolution; this handshake is what makes the assumption
// implementable when bounds are computed from partially stale values (see
// DESIGN.md §3).
func (s *Source[V, C]) Install(c C, expectInside bool) bool {
	if m := classify(c, s.val); m != crossing {
		return s.installOther(c, m)
	}
	if !s.cross(c, expectInside, c.Contains(s.val)) {
		return false
	}
	s.Reports++
	return true
}

// InstallAll installs c on every source, expecting source i on the side c
// puts believed[i] — the server's table — and hands every owed mismatch
// report to report, in source order. It is Install in a loop with c
// classified once, which is most of what a broadcast deployment costs.
//
// Under a crossing constraint each source costs one Contains, on its table
// value: when the source's value equals it (NaN never reaches a source, so
// == is exact) that side is also the true one, and only a stale source
// pays a second Contains.
func InstallAll[V comparable, C filter.Of[V, C]](sources []Source[V, C], believed []V, c C, report func(ID, V)) {
	var zero V
	if m := classify(c, zero); m != crossing {
		for i := range sources {
			if sources[i].installOther(c, m) {
				report(i, sources[i].val)
			}
		}
		return
	}
	believed = believed[:len(sources)]
	for i := range sources {
		s, b := &sources[i], believed[i]
		expect := c.Contains(b)
		actual := expect
		if s.val != b {
			actual = c.Contains(s.val)
		}
		if s.cross(c, expect, actual) {
			s.Reports++
			report(i, s.val)
		}
	}
}

// InstallEach is InstallAll restricted to the listed sources: source id
// expects the side c puts believed[id] on, and c is classified once for
// the whole batch.
func InstallEach[V comparable, C filter.Of[V, C]](sources []Source[V, C], ids []ID, believed []V, c C, report func(ID, V)) {
	var zero V
	if m := classify(c, zero); m != crossing {
		for _, id := range ids {
			if sources[id].installOther(c, m) {
				report(id, sources[id].val)
			}
		}
		return
	}
	for _, id := range ids {
		s, b := &sources[id], believed[id]
		expect := c.Contains(b)
		actual := expect
		if s.val != b {
			actual = c.Contains(s.val)
		}
		if s.cross(c, expect, actual) {
			s.Reports++
			report(id, s.val)
		}
	}
}

// cross is the crossing-mode install rule, the one every install path
// shares: install c, record actual — the side c puts the value on — and
// say whether a report is owed to a server that expects expect. The rule
// is small enough to inline into the batch loops; the caller counts the
// report it owes.
func (s *Source[V, C]) cross(c C, expect, actual bool) bool {
	s.cons, s.mode, s.inside = c, crossing, actual
	return actual != expect
}

// installOther installs an unfiltered, silent or following constraint c
// (mode m) and says whether a report is owed.
func (s *Source[V, C]) installOther(c C, m mode) bool {
	s.cons = c
	s.mode = m
	switch m {
	case unfiltered:
		s.inside = false
		return false
	case silent:
		s.inside = c.Contains(s.val)
		return false
	}
	// Following: if the server centered the band on a stale value the
	// stream is already outside it, so it reports and re-centers at once.
	s.inside = true
	if c.Contains(s.val) {
		return false
	}
	s.cons, _ = c.Recentre(s.val)
	s.Reports++
	return true
}

// Probe returns the current value, modelling a server probe request plus the
// stream's reply. Message accounting is done by the caller (the cluster).
// The recorded side needs no refresh: it already is the value's side.
func (s *Source[V, C]) Probe() V { return s.val }

// ExportState appends the source's full dynamic state — value, installed
// constraint, recorded side, update/report counters — to a snapshot.
func (s *Source[V, C]) ExportState(w *snapshot.Writer) {
	s.cons.ExportValue(w, s.val)
	s.cons.ExportState(w)
	w.Bool(s.inside)
	w.Uint64(s.Updates)
	w.Uint64(s.Reports)
}

// ImportState restores state written by ExportState, overwriting the
// source's value, constraint, side and counters. Restore is a trust
// boundary, so it refuses a NaN value and, under a crossing constraint, a
// recorded side that contradicts the value: the source would stay silent
// on the crossing that fixes it. It returns an error on corrupted input,
// leaving the source untouched, and never panics.
func (s *Source[V, C]) ImportState(r *snapshot.Reader) error {
	val := s.cons.ImportValue(r)
	cons, err := s.cons.ImportState(r)
	if err != nil {
		return err
	}
	inside := r.Bool()
	updates := r.Uint64()
	reports := r.Uint64()
	if err := r.Err(); err != nil {
		return err
	}
	if val != val {
		return fmt.Errorf("stream: snapshot holds NaN value")
	}
	m := classify(cons, val)
	if m == crossing && inside != cons.Contains(val) {
		return fmt.Errorf("stream: snapshot records side inside=%v of %v for value %v", inside, cons, val)
	}
	s.val = val
	s.cons = cons
	s.mode = m
	s.inside = inside
	s.Updates = updates
	s.Reports = reports
	return nil
}

// String renders the source state for debugging.
func (s *Source[V, C]) String() string {
	return fmt.Sprintf("S{v=%v cons=%v inside=%v}", s.val, s.cons, s.inside)
}
