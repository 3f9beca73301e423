// Package stream implements the filter-equipped remote stream sources of the
// paper's system model (§3.1, Figure 3).
//
// Each source holds its current value and an adaptive filter constraint. When
// the value changes it reports to the server only if the filter is violated
// (the value crossed the constraint boundary) or if no filter is installed.
// Sources also answer server probes and accept filter installations.
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
type Source[V comparable, C filter.Of[V, C]] struct {
	id     ID
	val    V
	cons   C
	inside bool // side of the constraint of the last value known to the server
	mode   mode
	report func(id ID, v V)
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
)

func classify[V any, C filter.Of[V, C]](c C, v V) mode {
	if c.Unfiltered() {
		return unfiltered
	}
	if _, ok := c.Recentre(v); ok {
		return following
	}
	return crossing
}

// NewSource returns a source with the given initial value and no filter
// installed; report is its uplink to the server, which counts the message
// and queues it for protocol handling. An unfiltered source reports every
// update (paper §3.1: "If no filter is installed at a stream, all updates
// from the stream are reported").
func NewSource[V comparable, C filter.Of[V, C]](id ID, initial V, report func(id ID, v V)) *Source[V, C] {
	if report == nil {
		panic("stream: nil report func")
	}
	if initial != initial {
		panic("stream: NaN initial value")
	}
	return &Source[V, C]{id: id, val: initial, report: report}
}

// New returns a 1-D source (see NewSource).
func New(id ID, initial float64, report func(ID, float64)) *Source[float64, filter.Constraint] {
	return NewSource[float64, filter.Constraint](id, initial, report)
}

// NewSpatial returns a planar source (see NewSource).
func NewSpatial(id ID, initial filter.Point, report func(ID, filter.Point)) *Source[filter.Point, filter.Region] {
	return NewSource[filter.Point, filter.Region](id, initial, report)
}

// ID returns the source identifier.
func (s *Source[V, C]) ID() ID { return s.id }

// Value returns the true current value. Only the workload driver, probes and
// the ground-truth oracle may call this; protocols must rely on reported
// data.
func (s *Source[V, C]) Value() V { return s.val }

// Constraint returns the currently installed filter constraint.
func (s *Source[V, C]) Constraint() C { return s.cons }

// Inside reports the source's recorded side of its constraint — i.e. the
// side the server believes the stream is on.
func (s *Source[V, C]) Inside() bool { return s.inside }

// Set applies a new value from the workload. It reports to the server when
// the filter is violated (or always, when unfiltered) and returns whether a
// report was sent.
func (s *Source[V, C]) Set(v V) bool {
	if v != v {
		panic("stream: NaN value delivered to source")
	}
	s.Updates++
	s.val = v
	switch s.mode {
	case unfiltered:
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
	s.send()
	return true
}

// Install sets a new filter constraint. expectInside is the side of the new
// constraint the server believes this stream is on (from its value table).
// If the true side differs, the source immediately reports its value so the
// server's view converges — unless the constraint is silent (wide-open or
// shut constraints can never be violated, so no report is owed); the report
// travels through the normal uplink and is counted as an update message.
// Install returns whether such a mismatch report was sent.
//
// The paper's correctness argument assumes stream values do not change
// during constraint resolution; this handshake is what makes the assumption
// implementable when bounds are computed from partially stale values (see
// DESIGN.md §3).
func (s *Source[V, C]) Install(c C, expectInside bool) bool {
	return s.install(c, classify(c, s.val), expectInside)
}

// InstallAll installs c on every source, expecting source i on the side c
// puts believed[i] — the server's table. It is Install in a loop with c
// classified once, which is most of what a broadcast deployment costs.
func InstallAll[V comparable, C filter.Of[V, C]](sources []Source[V, C], believed []V, c C) {
	var v V
	m := classify(c, v)
	for i := range sources {
		sources[i].install(c, m, c.Contains(believed[i]))
	}
}

// InstallEach is InstallAll restricted to the listed sources: source id
// expects the side c puts believed[id] on, and c is classified once for
// the whole batch.
func InstallEach[V comparable, C filter.Of[V, C]](sources []Source[V, C], ids []ID, believed []V, c C) {
	var v V
	m := classify(c, v)
	for _, id := range ids {
		sources[id].install(c, m, c.Contains(believed[id]))
	}
}

func (s *Source[V, C]) install(c C, m mode, expectInside bool) bool {
	s.cons = c
	s.mode = m
	switch m {
	case unfiltered:
		s.inside = false
		return false
	case following:
		// If the server centered the band on a stale value the stream is
		// already outside it: report and re-center immediately.
		s.inside = true
		if c.Contains(s.val) {
			return false
		}
		s.cons, _ = c.Recentre(s.val)
		s.send()
		return true
	}
	actual := c.Contains(s.val)
	s.inside = actual
	if actual != expectInside && !c.Silent() {
		s.send()
		return true
	}
	return false
}

// Probe returns the current value, modelling a server probe request plus the
// stream's reply. Message accounting is done by the caller (the cluster).
// Probing refreshes the recorded side of the constraint.
func (s *Source[V, C]) Probe() V {
	if s.mode == crossing {
		s.inside = s.cons.Contains(s.val)
	}
	return s.val
}

func (s *Source[V, C]) send() {
	s.Reports++
	s.report(s.id, s.val)
}

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
// source's value, constraint, side and counters (id and uplink are kept).
// A NaN value is refused: restore is a trust boundary. It returns an error
// on corrupted input and never panics.
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
		return fmt.Errorf("stream: snapshot holds NaN value for source %d", s.id)
	}
	s.val = val
	s.cons = cons
	s.mode = classify(cons, val)
	s.inside = inside
	s.Updates = updates
	s.Reports = reports
	return nil
}

// String renders the source state for debugging.
func (s *Source[V, C]) String() string {
	return fmt.Sprintf("S%d{v=%v cons=%v inside=%v}", s.id, s.val, s.cons, s.inside)
}
