// Package stream implements the filter-equipped remote stream sources of the
// paper's system model (§3.1, Figure 3).
//
// Each source holds its current value and an adaptive filter constraint. When
// the value changes it owes the server a report only if the filter is
// violated (the value crossed the constraint boundary) or if no filter is
// installed. Sources also answer server probes and accept filter
// installations.
//
// A cluster's n sources are one Sources value: a column per field (values,
// recorded sides, modes), addressed by stream index, and their constraints
// stored as one broadcast constraint plus a column of exceptions. The rank
// protocols deploy one region to every stream, so a deploy stores it once
// and writes only the one-byte mode column; it scans one or two columns
// over every stream, contiguously, and decides a whole column's sides in
// one filter.Of.Sides call. Sources hold no uplink: Set and Install return
// whether a report is owed, and the caller — the server's cluster —
// delivers it; the batch installs (InstallAllExcept, InstallEach) take
// that uplink once per batch.
package stream

import (
	"fmt"

	"adaptivefilters/internal/filter"
	"adaptivefilters/internal/snapshot"
)

// ID identifies a stream source. IDs are dense indices 0..n-1.
type ID = int

// Sources is n remote data streams with their adaptive filters, over values
// of type V filtered by constraints of type C: float64 and
// filter.Constraint for the paper's 1-D model, filter.Point and
// filter.Region for the §7 planar extension. V is comparable so that NaN —
// a value unequal to itself — is recognised without knowing V's shape; a
// NaN reaching a source is a caller bug and panics, because validation
// belongs to the trust boundaries in front of it (runtime admission and
// ingest, snapshot restore).
//
// Under a crossing-mode constraint a source's recorded side always equals
// the side the constraint puts its value on: Set and every install
// establish it, and ImportState refuses a record that breaks it. So a
// probe is a plain read.
//
// A source in mode broadcast holds def, the last crossing constraint
// InstallAllExcept deployed; every other source holds its own constraint
// in cons, its exception. An install files an exception only for a
// constraint that is not def's bits (filter.Of.Same), so re-installing the
// broadcast stays on it. cons is nil, every exception the zero C, until a
// source first holds a constraint that is neither def nor the zero C.
type Sources[V comparable, C filter.Of[V, C]] struct {
	vals   []V
	inside []bool // side of the constraint of the last value known to the server
	modes  []mode
	def    C
	cons   []C
	// Scratch for the batch installs, kept here because a Sides call
	// through a type parameter makes its arguments escape: InstallAllExcept's
	// sides of the n table values, and InstallEach's chunk of gathered
	// table entries and moved values, their sides, and the moved values'
	// places in the chunk.
	sides  []bool // n + min(n, chunk)
	gather []V    // 2·min(n, chunk)
	at     []int  // min(n, chunk)
}

// mode is how a source reacts to its installed constraint, classified once
// per install so that Set does not ask the constraint again.
type mode uint8

const (
	unfiltered mode = iota // report every update
	crossing               // report when the recorded side flips
	following              // report a deviation and re-centre (filter.Of.Recentre)
	silent                 // never report: a wide-open or shut constraint
	broadcast              // crossing under def
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

// chunk is how many listed streams InstallEach gathers per Sides call.
const chunk = 64

// NewSources returns one source per initial value, with no filter
// installed. An unfiltered source reports every update (paper §3.1: "If no
// filter is installed at a stream, all updates from the stream are
// reported").
func NewSources[V comparable, C filter.Of[V, C]](initial []V) Sources[V, C] {
	for _, v := range initial {
		if v != v {
			panic("stream: NaN initial value")
		}
	}
	n := len(initial)
	return Sources[V, C]{
		vals:   append([]V(nil), initial...),
		inside: make([]bool, n),
		modes:  make([]mode, n),
		sides:  make([]bool, n+min(n, chunk)),
		gather: make([]V, 2*min(n, chunk)),
		at:     make([]int, min(n, chunk)),
	}
}

// New returns 1-D sources (see NewSources).
func New(initial ...float64) Sources[float64, filter.Constraint] {
	return NewSources[float64, filter.Constraint](initial)
}

// NewSpatial returns planar sources (see NewSources).
func NewSpatial(initial ...filter.Point) Sources[filter.Point, filter.Region] {
	return NewSources[filter.Point, filter.Region](initial)
}

// Len returns the number of sources.
func (s *Sources[V, C]) Len() int { return len(s.vals) }

// Value returns source id's true current value, modelling a server probe
// and the stream's reply (the caller accounts the messages). Only the
// workload driver, probes and the ground-truth oracle may call it;
// protocols must rely on reported data.
func (s *Sources[V, C]) Value(id ID) V { return s.vals[id] }

// Values returns the value column itself, for a probe of every stream to
// copy. The caller must not write it.
func (s *Sources[V, C]) Values() []V { return s.vals }

// Constraint returns the filter constraint installed at source id.
func (s *Sources[V, C]) Constraint(id ID) C {
	if s.modes[id] == broadcast {
		return s.def
	}
	if s.cons == nil {
		var zero C
		return zero
	}
	return s.cons[id]
}

// keep files c as source id's exception, allocating the exception column
// for the first one that is not the zero C.
func (s *Sources[V, C]) keep(id ID, c C) {
	if s.cons == nil {
		var zero C
		if c.Same(zero) {
			return
		}
		s.cons = make([]C, len(s.vals))
	}
	s.cons[id] = c
}

// Inside reports source id's recorded side of its constraint — i.e. the
// side the server believes the stream is on.
func (s *Sources[V, C]) Inside(id ID) bool { return s.inside[id] }

// Set applies a new value from the workload to source id. It returns
// whether the server is owed a report of the new value: when the filter is
// violated, or always, when unfiltered. The caller delivers it.
func (s *Sources[V, C]) Set(id ID, v V) bool {
	if v != v {
		panic("stream: NaN value delivered to source")
	}
	s.vals[id] = v
	var c C
	switch s.modes[id] {
	case unfiltered:
		return true
	case silent:
		// Shut is [+∞, +∞], so a value can reach it, but a silent
		// constraint owes no report.
		return false
	case following:
		// Value-based filter: report on deviation beyond the half-width and
		// re-center locally (no server round-trip; Olston-style).
		if s.cons[id].Contains(v) {
			return false
		}
		s.cons[id], _ = s.cons[id].Recentre(v)
		return true
	case crossing:
		c = s.cons[id]
	default:
		c = s.def
	}
	nowInside := c.Contains(v)
	if nowInside == s.inside[id] {
		return false
	}
	s.inside[id] = nowInside
	return true
}

// Install sets a new filter constraint at source id. expectInside is the
// side of the new constraint the server believes this stream is on (from
// its value table). If the true side differs, the source owes the server
// an immediate report of its value so the server's view converges —
// unless the constraint is silent (wide-open and shut constraints never
// owe a report, here or in Set); the report travels through the normal
// uplink and is counted as an update message. Install returns whether such
// a mismatch report is owed; the caller delivers it.
//
// The paper's correctness argument assumes stream values do not change
// during constraint resolution; this handshake is what makes the assumption
// implementable when bounds are computed from partially stale values (see
// DESIGN.md §3).
func (s *Sources[V, C]) Install(id ID, c C, expectInside bool) bool {
	if m := classify(c, s.vals[id]); m != crossing {
		return s.installOther(id, c, m)
	}
	m := broadcast
	if !c.Same(s.def) {
		s.keep(id, c)
		m = crossing
	}
	actual := c.Contains(s.vals[id])
	s.modes[id], s.inside[id] = m, actual
	return actual != expectInside
}

// InstallAllExcept installs c on every source not listed in skip, whose
// ids must be strictly ascending, expecting source i on the side c puts
// believed[i] — the server's table — and hands every owed mismatch report
// to report, in source order. It is Install in a loop with c classified
// once; a listed source keeps its constraint.
//
// Under a crossing constraint c becomes the broadcast constraint def, and
// a listed source still on the old one keeps it as its exception. The
// rest is two Sides calls — over the table column into scratch and over
// the value column straight into the recorded sides, the listed sources'
// sides parked in the scratch meanwhile — the mode column filled between
// the listed sources, and a scan that reports each source whose two sides
// differ. No constraint is written per source.
func (s *Sources[V, C]) InstallAllExcept(skip []ID, believed []V, c C, report func(ID, V)) {
	n := len(s.vals)
	var zero V
	if m := classify(c, zero); m != crossing {
		next := 0
		for i := range s.vals {
			if next < len(skip) && skip[next] == i {
				next++
			} else if s.installOther(i, c, m) {
				report(i, s.vals[i])
			}
		}
		if next != len(skip) {
			panic("stream: skip list is not strictly ascending")
		}
		return
	}
	if !c.Same(s.def) {
		for _, id := range skip {
			if s.modes[id] == broadcast {
				s.keep(id, s.def)
				s.modes[id] = crossing
			}
		}
		s.def = c
	}
	expect := s.sides[:n]
	c.Sides(expect, believed[:n])
	for _, id := range skip {
		expect[id] = s.inside[id]
	}
	c.Sides(s.inside, s.vals)
	from := 0
	for _, id := range skip {
		if id < from {
			panic("stream: skip list is not strictly ascending")
		}
		fill(s.modes[from:id], broadcast)
		s.inside[id] = expect[id]
		from = id + 1
	}
	fill(s.modes[from:], broadcast)
	for i, in := range s.inside {
		if in != expect[i] {
			report(i, s.vals[i])
		}
	}
}

// fill sets every element of dst to v, doubling a copied prefix: a
// memmove per doubling instead of a store per element.
func fill[T any](dst []T, v T) {
	if len(dst) == 0 {
		return
	}
	dst[0] = v
	for k := 1; k < len(dst); k *= 2 {
		copy(dst[k:], dst[:k])
	}
}

// InstallEach is InstallAllExcept restricted to the listed sources, which
// must be distinct: source id expects the side c puts believed[id] on, c is
// classified once for the whole batch, and reports come in list order. It
// leaves def alone: a listed source holds c as its exception unless c is
// def.
//
// Under a crossing constraint it works a chunk of listed ids at a time:
// one Sides call over their gathered table entries decides the expected
// sides, which are also the true sides of every source whose value is its
// table entry (a batch follows a probe of every stream in each protocol
// that deploys one, so that is nearly all of them); the sources that moved
// off their entry are gathered and decided in one more Sides call.
func (s *Sources[V, C]) InstallEach(ids []ID, believed []V, c C, report func(ID, V)) {
	var zero V
	if m := classify(c, zero); m != crossing {
		for _, id := range ids {
			if s.installOther(id, c, m) {
				report(id, s.vals[id])
			}
		}
		return
	}
	n := len(s.vals)
	m := broadcast
	if !c.Same(s.def) {
		m = crossing
		if s.cons == nil {
			s.cons = make([]C, n)
		}
	}
	vals, table := s.vals, believed[:n]
	cons, modes, inside := s.cons, s.modes[:n], s.inside[:n]
	for len(ids) > 0 {
		part := ids[:min(len(ids), chunk)]
		ids = ids[len(part):]
		k := len(part)
		want, moved := s.gather[:k], s.gather[k:2*k]
		expect, sides := s.sides[:k], s.sides[k:2*k]
		at, mv := s.at[:k], 0
		for j, id := range part {
			w, v := table[id], vals[id]
			want[j] = w
			if v != w {
				moved[mv], at[mv] = v, j
				mv++
			}
			modes[id] = m
			if m == crossing {
				cons[id] = c
			}
		}
		c.Sides(expect, want)
		c.Sides(sides[:mv], moved[:mv])
		for j, id := range part {
			inside[id] = expect[j]
		}
		for i, j := range at[:mv] {
			if sides[i] != expect[j] {
				id := part[j]
				inside[id] = sides[i]
				report(id, moved[i])
			}
		}
	}
}

// installOther installs an unfiltered, silent or following constraint c
// (mode m) at source id and says whether a report is owed.
func (s *Sources[V, C]) installOther(id ID, c C, m mode) bool {
	s.keep(id, c)
	s.modes[id] = m
	switch m {
	case unfiltered:
		s.inside[id] = false
		return false
	case silent:
		s.inside[id] = c.Contains(s.vals[id])
		return false
	}
	// Following: if the server centered the band on a stale value the
	// stream is already outside it, so it reports and re-centers at once.
	s.inside[id] = true
	if c.Contains(s.vals[id]) {
		return false
	}
	c, _ = c.Recentre(s.vals[id])
	s.cons[id] = c
	return true
}

// ExportState appends every source's full dynamic state to a snapshot, in
// source order: value, installed constraint and recorded side. A broadcast
// source writes def, so the record does not say how constraints are
// stored.
func (s *Sources[V, C]) ExportState(w *snapshot.Writer) {
	for i, v := range s.vals {
		c := s.Constraint(i)
		c.ExportValue(w, v)
		c.ExportState(w)
		w.Bool(s.inside[i])
	}
}

// ImportState restores state written by ExportState from a set of as many
// sources. Restore is a trust boundary, so it refuses a NaN value and,
// under a crossing constraint, a recorded side that contradicts the value:
// the source would stay silent on the crossing that fixes it. It returns
// an error on corrupted input, leaving every source untouched, and never
// panics. It decodes every record first, then takes as def the majority
// crossing constraint (a Boyer–Moore vote under Same) and files only the
// rest as exceptions, so a restored broadcast is stored once again.
func (s *Sources[V, C]) ImportState(r *snapshot.Reader) error {
	n := len(s.vals)
	vals, cons := make([]V, n), make([]C, n)
	inside, modes := make([]bool, n), make([]mode, n)
	var codec C
	for i := range n {
		val := codec.ImportValue(r)
		c, err := codec.ImportState(r)
		if err != nil {
			return fmt.Errorf("source %d: %w", i, err)
		}
		in := r.Bool()
		if err := r.Err(); err != nil {
			return fmt.Errorf("source %d: %w", i, err)
		}
		if val != val {
			return fmt.Errorf("source %d: stream: snapshot holds NaN value", i)
		}
		m := classify(c, val)
		if m == crossing && in != c.Contains(val) {
			return fmt.Errorf("source %d: stream: snapshot records side inside=%v of %v for value %v", i, in, c, val)
		}
		vals[i], cons[i], modes[i], inside[i] = val, c, m, in
	}
	var def C
	votes := 0
	for i, c := range cons {
		switch {
		case modes[i] != crossing:
		case votes == 0:
			def, votes = c, 1
		case c.Same(def):
			votes++
		default:
			votes--
		}
	}
	var zero C
	exceptions := false
	for i, c := range cons {
		if modes[i] == crossing && c.Same(def) {
			modes[i] = broadcast
		} else if !c.Same(zero) {
			exceptions = true
		}
	}
	if !exceptions {
		cons = nil
	}
	copy(s.vals, vals)
	copy(s.inside, inside)
	copy(s.modes, modes)
	s.def, s.cons = def, cons
	return nil
}

// String renders source id's state for debugging.
func (s *Sources[V, C]) String(id ID) string {
	return fmt.Sprintf("S{v=%v cons=%v inside=%v}", s.vals[id], s.Constraint(id), s.inside[id])
}
