package server

import (
	"math"
	"math/bits"

	"adaptivefilters/internal/filter"
)

// This file makes Composite.Deliver sub-linear in the number of standing
// queries M. The linear fabric walks all M constraint entries of the
// delivered stream on every update; at M=256 that scan dominates ingest
// even though almost no entry can possibly cross. The query index replaces
// that crossing-detection scan and, for a stream that reports, hands back
// the slot bitmap of the queries whose own entry fired, so Composite.Deliver
// dispatches to those (plus the protocols that are not CrossingDriven)
// instead of to all M. Message accounting, server ops and protocol
// trajectories stay bit-identical to the linear evaluation (pinned by the
// equivalence tests and the runtime property harness).
//
// Two structures per stream:
//
//   - A planner groups that stream's live entries into evaluation classes:
//     entries whose constraints are bit-identical (and, for intervals, whose
//     recorded sides agree) share one class and are evaluated once per
//     update instead of once per query. M queries installing the same band
//     cost one check, not M. A class's members are a slot bitmap, so a
//     class that fires updates its members' recorded sides and the fired
//     set a word at a time; an interval class caches the side its members
//     share, which recordInside's resync hook re-reads whenever a probe
//     re-records the stream's sides.
//
//   - The finite boundaries of each class's inside region live in a sorted
//     flat list (boundList) keyed by (boundary value, class id·2 + side).
//     A value move u→v can only change Contains for a class with a boundary
//     inside [min(u,v), max(u,v)] — the proven fabric invariant is that
//     inside[s][q] == cons[s][q].Contains(vals[s]) at all times, so an
//     interval crossing is exactly a sign change of Contains over the move.
//     The list keeps a finger at the stream's current value, so Deliver
//     walks from it over the keys the move crosses — O(keys crossed), no
//     search — instead of all M entries. A move that crosses none is seen
//     from the two keys beside the finger.
//
// Three escape hatches keep the walk exactly equivalent to the scan:
//
//   - always: filter.None entries report every update; a plain count makes
//     the stream report unconditionally while any live unfiltered query
//     exists.
//
//   - armed: classes that must be evaluated on every update because the
//     boundary walk cannot see their next fire. A band whose region
//     excludes the current value fires on the next update wherever it
//     lands ("stays outside on the same side" crosses no boundary), as do
//     degenerate bands (NaN or inverted regions, ±Inf centers) and — after
//     a corrupted restore — interval entries whose recorded side disagrees
//     with ground truth. Transient arming clears itself on first
//     evaluation; structural arming (degenerate bands) persists until the
//     class is rewritten.
//
//   - NaN updates: a NaN value admits no ordering, so the boundary walk is
//     meaningless; Deliver falls back to the linear scan for that update
//     and rebuilds the stream's index afterwards.
//
// Mutations funnel through set(): AddQuery, RemoveQuery, setConstraint
// (installs), and the restore rebuild all re-categorize one (stream, slot)
// entry; band re-centering inside Deliver moves whole classes at once
// (rekeyBand), merging into an existing class when re-centering makes two
// bands identical. ExportState/ImportState never encode the index — restore
// rebuilds it from the restored constraint vectors, so the snapshot format
// is unchanged and index state can never drift from fabric state across a
// save/load cycle.
//
// Everything on the Deliver path reuses scratch owned by the index (the
// touched-class list, the fired bitmap, the boundary lists' own capacity),
// keeping the steady-state ingest path at 0 allocs/op.

// enableQueryIndex gates the indexed Deliver path for composites built
// after it changes. Production always runs indexed; equivalence tests
// toggle it to pin indexed against linear evaluation.
var enableQueryIndex = true

// SetQueryIndexEnabled toggles whether newly constructed Composites build
// the per-stream query index, returning the previous setting. It exists
// for tests that compare the indexed Deliver against the linear reference
// scan; production code never calls it.
func SetQueryIndexEnabled(on bool) bool {
	prev := enableQueryIndex
	enableQueryIndex = on
	return prev
}

// Slot categories recorded in qstream.classOf.
const (
	catNone   int32 = -1 // no index entry: removed slot or silent filter
	catAlways int32 = -2 // filter.None entry: reports every update
)

// qclass is one evaluation class: the queries of one stream sharing a
// bit-identical constraint (and recorded side, for intervals). Its members
// are a slot bitmap in its stream's members array.
type qclass struct {
	cons       filter.Constraint
	stamp      uint64 // last deliver generation this class was evaluated in
	live       bool
	side       bool // interval: the recorded side every member shares
	armed      bool // on the always-evaluate list
	structural bool // degenerate band: stays armed until rewritten
}

// qstream is one stream's index: its classes, their boundary list (with its
// finger at the stream's current value), and the escape-hatch lists.
type qstream struct {
	bounds  boundList
	classes []qclass
	members []uint64 // class cid's member bitmap is members[cid*words:][:words]
	freeCls []int32  // recycled class ids, their member bitmaps all zero
	classOf []int32  // per query slot: class id, catNone or catAlways
	armed   []int32  // class ids to evaluate on every update
	always  int      // live filter.None entries

	// recent ring-buffers the last classes classFor resolved. Protocol
	// maintenance reinstalls a small working set of constraints over and
	// over (a range query's interval, a band at the new center), so the
	// cache turns the usual classFor call into a handful of compares
	// instead of a scan of every standing class. Entries are validated
	// against the same match criteria as the full scan, so stale ids are
	// harmless.
	recent  [8]int32
	recentN uint8
}

// queryIndex is the per-Composite index: one qstream per stream plus shared
// deliver scratch.
type queryIndex struct {
	streams []qstream
	words   int     // stride of every stream's members array
	touched []int32 // candidate class ids scratch
	fired   slotSet // members of the classes the last deliver fired
	gen     uint64  // deliver generation for class dedupe
}

func newQueryIndex(n int) *queryIndex {
	return &queryIndex{streams: make([]qstream, n)}
}

// members returns class cid's member bitmap on stream st.
func (x *queryIndex) members(st *qstream, cid int32) slotSet {
	return st.members[int(cid)*x.words:][:x.words]
}

// restride re-lays every stream's member bitmaps at the stride that holds
// slots query slots, once the slot count crosses a multiple of 64.
func (x *queryIndex) restride(slots int) {
	w := words(slots)
	if w == x.words {
		return
	}
	for s := range x.streams {
		st := &x.streams[s]
		m := make([]uint64, len(st.classes)*w)
		for cid := range st.classes {
			copy(m[cid*w:], x.members(st, int32(cid)))
		}
		st.members = m
	}
	x.words = w
	x.fired = make(slotSet, w)
}

// addSlot registers a freshly appended query slot (AddQuery just wrote a
// live filter.None entry for it at every stream).
func (x *queryIndex) addSlot(c *Composite) {
	qi := len(c.queries) - 1
	x.restride(len(c.queries))
	for s := range x.streams {
		x.streams[s].classOf = append(x.streams[s].classOf, catNone)
		x.set(c, s, qi, filter.NoFilter(), true)
	}
}

// removeSlot drops query slot qi from every stream (RemoveQuery already
// cleared its entries).
func (x *queryIndex) removeSlot(c *Composite, qi int) {
	for s := range x.streams {
		x.set(c, s, qi, filter.Constraint{}, false)
	}
}

// set re-categorizes one (stream, slot) entry after its constraint changed
// to cons; live is false when the slot was removed. This is the single
// mutation point every fabric path funnels through, so index and fabric can
// never disagree about one entry.
func (x *queryIndex) set(c *Composite, s, qi int, cons filter.Constraint, live bool) {
	st := &x.streams[s]
	in := c.inside[s].has(qi)
	// Reinstalling what is already categorized — a maintenance round
	// refreshing a query's standing constraint — must not churn the class
	// or its boundary keys. The install may have just rewritten qi's
	// recorded side: a class of one takes it as its own, a larger class
	// keeps qi only if the sides still agree.
	if cid := st.classOf[qi]; cid >= 0 && live && sameConstraint(st.classes[cid].cons, cons) {
		cl := &st.classes[cid]
		if cons.Kind == filter.Band || cl.side == in {
			return
		}
		if x.members(st, cid).count() == 1 {
			cl.side = in
			return
		}
	}
	switch cid := st.classOf[qi]; {
	case cid == catAlways:
		st.always--
	case cid >= 0:
		x.detach(st, cid, qi, c.vals[s])
	}
	st.classOf[qi] = catNone
	if !live {
		return
	}
	switch {
	case cons.Kind == filter.None:
		st.always++
		st.classOf[qi] = catAlways
	case cons.Silent():
		// Can never cross; recordInside keeps its side correct for free.
	default:
		cid := x.classFor(c, st, s, cons, in)
		x.members(st, cid).put(qi, true)
		st.classOf[qi] = cid
	}
}

// detach removes slot qi from class cid, freeing the class when it empties;
// cur is the stream's current value.
func (x *queryIndex) detach(st *qstream, cid int32, qi int, cur float64) {
	m := x.members(st, cid)
	m.put(qi, false)
	if m.count() == 0 {
		st.removeBounds(cid, st.classes[cid].cons, cur)
		st.freeClass(cid)
	}
}

// freeClass retires an already-detached, bounds-free class for reuse.
func (st *qstream) freeClass(cid int32) {
	cl := &st.classes[cid]
	if cl.armed {
		st.disarm(cid)
		cl.armed = false
	}
	cl.live = false
	cl.structural = false
	cl.cons = filter.Constraint{}
	st.freeCls = append(st.freeCls, cid)
}

// classFor returns the class for (cons, recorded side ins), creating it if
// no live class matches. Class identity is bit-equality of the constraint
// (math.Float64bits, so NaN bounds and ±0 group deterministically) plus,
// for intervals, the shared recorded side — after a corrupted restore two
// entries may hold the same interval on different recorded sides, and they
// must then fire independently.
func (x *queryIndex) classFor(c *Composite, st *qstream, s int, cons filter.Constraint, ins bool) int32 {
	for _, cid := range st.recent {
		if int(cid) >= len(st.classes) {
			continue
		}
		cl := &st.classes[cid]
		if cl.live && sameConstraint(cl.cons, cons) && (cons.Kind == filter.Band || cl.side == ins) {
			return cid
		}
	}
	for cid := range st.classes {
		cl := &st.classes[cid]
		if cl.live && sameConstraint(cl.cons, cons) && (cons.Kind == filter.Band || cl.side == ins) {
			st.recent[st.recentN&7] = int32(cid)
			st.recentN++
			return int32(cid)
		}
	}
	var cid int32
	if k := len(st.freeCls); k > 0 {
		cid = st.freeCls[k-1]
		st.freeCls = st.freeCls[:k-1]
	} else {
		st.classes = append(st.classes, qclass{})
		st.members = append(st.members, make([]uint64, x.words)...)
		cid = int32(len(st.classes) - 1)
	}
	cl := &st.classes[cid]
	cl.cons = cons
	cl.live = true
	cl.side = ins
	// A class born inside a Deliver (a band fire created it) has already
	// been accounted for this update; stamping it now prevents a recycled
	// class id from being evaluated twice in one walk.
	cl.stamp = x.gen
	st.addBounds(cid, cons, c.vals[s])
	cl.structural = cons.Kind == filter.Band && structuralBand(cons)
	armed := cl.structural
	if !armed {
		in := cons.Contains(c.vals[s])
		if cons.Kind == filter.Band {
			// A band outside its region fires on the next update no matter
			// where the value lands; the boundary walk cannot see that.
			armed = !in
		} else {
			// Recorded side disagreeing with ground truth (corrupted
			// restore): the next update fires regardless of boundaries.
			armed = ins != in
		}
	}
	if armed {
		cl.armed = true
		st.armed = append(st.armed, cid)
	}
	st.recent[st.recentN&7] = cid
	st.recentN++
	return cid
}

// sameConstraint is bit-exact constraint equality — the planner's grouping
// key. Float64bits keeps NaN-carrying constraints groupable (NaN != NaN
// would otherwise split them into unbounded fresh classes).
func sameConstraint(a, b filter.Constraint) bool {
	return a.Kind == b.Kind &&
		math.Float64bits(a.Lo) == math.Float64bits(b.Lo) &&
		math.Float64bits(a.Hi) == math.Float64bits(b.Hi)
}

// structuralBand reports whether a band's fires are invisible to the
// boundary walk even from inside its region: empty or NaN regions fire on
// every update, and a ±Inf-centered region {±Inf} can stop containing the
// value without crossing any finite boundary. Such classes stay armed.
func structuralBand(cons filter.Constraint) bool {
	lo, hi := cons.Bounds()
	return math.IsNaN(lo) || math.IsNaN(hi) || lo > hi ||
		math.IsInf(lo, 1) || math.IsInf(hi, -1)
}

// addBounds inserts class cid's finite region boundaries into the list,
// keeping its finger at the stream's current value cur. Non-finite
// boundaries are unindexable: an infinite interval end can never be crossed
// into (half-open intervals transition only over their finite bound) and
// degenerate bands are structurally armed instead.
func (st *qstream) addBounds(cid int32, cons filter.Constraint, cur float64) {
	lo, hi := cons.Bounds()
	if lo > hi { // empty region: no transitions over these "boundaries"
		return
	}
	if !math.IsNaN(lo) && !math.IsInf(lo, 0) {
		st.bounds.insert(lo, cid*2, cur)
	}
	if !math.IsNaN(hi) && !math.IsInf(hi, 0) {
		st.bounds.insert(hi, cid*2+1, cur)
	}
}

// removeBounds undoes addBounds for class cid.
func (st *qstream) removeBounds(cid int32, cons filter.Constraint, cur float64) {
	lo, hi := cons.Bounds()
	if lo > hi {
		return
	}
	if !math.IsNaN(lo) && !math.IsInf(lo, 0) {
		st.bounds.remove(lo, cid*2, cur)
	}
	if !math.IsNaN(hi) && !math.IsInf(hi, 0) {
		st.bounds.remove(hi, cid*2+1, cur)
	}
}

// disarm removes class cid from the always-evaluate list.
func (st *qstream) disarm(cid int32) {
	for i, a := range st.armed {
		if a == cid {
			st.armed[i] = st.armed[len(st.armed)-1]
			st.armed = st.armed[:len(st.armed)-1]
			return
		}
	}
}

// resync re-reads, after recordInside re-recorded every member's side of
// stream s against its value v, the side each interval class caches for
// its members. Without it a class would keep comparing against a side its
// members no longer hold.
func (x *queryIndex) resync(s int, v float64) {
	st := &x.streams[s]
	for cid := range st.classes {
		if cl := &st.classes[cid]; cl.live && cl.cons.Kind != filter.Band {
			cl.side = cl.cons.Contains(v)
		}
	}
}

// deliver is the indexed crossing-detection phase of Composite.Deliver for
// the value move u→v on stream s (c.vals[s] already holds v). It reports
// whether the stream reports — with decisions and side effects (recorded
// sides, band re-centering) exactly matching the linear scan's — and whether
// the report concerns every live slot (all: an unfiltered entry stands, or
// the scan ran). When it does not, x.fired is the bitmap of the slots whose
// own entry fired.
func (x *queryIndex) deliver(c *Composite, s int, u, v float64) (crossed, all bool) {
	if math.IsNaN(u) || math.IsNaN(v) {
		crossed = c.deliverScan(s, v)
		x.rebuildStream(c, s)
		return crossed, true
	}
	st := &x.streams[s]
	all = st.always > 0
	// Fast path: no key lies in the move's window, so the walk would find
	// nothing and only armed classes (and the always count) can matter.
	// With nothing armed this is the steady-state cost of every event that
	// crosses no boundary: two compares beside the finger.
	if len(st.armed) == 0 && st.bounds.quiet(min(u, v), max(u, v)) {
		return all, all
	}
	x.gen++
	clear(x.fired)
	crossed = all
	// The finger moves to v, and class ids are collected, before any class
	// is evaluated: a band fire re-centres its class and so rewrites the
	// list being walked, relative to the current value v.
	touched := st.bounds.move(u, v, x.touched[:0])
	touched = append(touched, st.armed...)
	x.touched = touched
	for _, cid := range touched {
		cl := &st.classes[cid]
		if !cl.live || cl.stamp == x.gen {
			continue
		}
		cl.stamp = x.gen
		if x.evalClass(c, st, s, cid, v) {
			crossed = true
		}
	}
	return crossed, all
}

// evalClass applies one class's crossing semantics to the new value v,
// mirroring the linear scan's per-entry switch for every member at once. A
// class that fires ORs its member bitmap into x.fired.
func (x *queryIndex) evalClass(c *Composite, st *qstream, s int, cid int32, v float64) bool {
	cl := &st.classes[cid]
	m, ins := x.members(st, cid), c.inside[s]
	if cl.cons.Kind == filter.Band {
		if cl.cons.Contains(v) {
			if cl.armed && !cl.structural {
				st.disarm(cid)
				cl.armed = false
			}
			return false
		}
		nc := filter.NewBand(v, cl.cons.BandHalfWidth())
		row := c.cons[s]
		for w, b := range m {
			x.fired[w] |= b
			ins[w] |= b
			for ; b != 0; b &= b - 1 {
				row[w<<6|bits.TrailingZeros64(b)] = nc
			}
		}
		x.rekeyBand(st, cid, nc, v)
		return true
	}
	now := cl.cons.Contains(v)
	if cl.armed {
		// Evaluated: the recorded side is about to agree with ground truth.
		st.disarm(cid)
		cl.armed = false
	}
	if now == cl.side {
		return false
	}
	cl.side = now
	var on uint64
	if now {
		on = ^uint64(0)
	}
	for w, b := range m {
		x.fired[w] |= b
		ins[w] = ins[w]&^b | b&on
	}
	return true
}

// rekeyBand moves a fired band class to its re-centered constraint nc
// (centered on v), merging into an existing identical class if the
// re-centering made two bands converge — this is how M same-width bands
// collapse to one class after their first shared fire.
func (x *queryIndex) rekeyBand(st *qstream, cid int32, nc filter.Constraint, v float64) {
	cl := &st.classes[cid]
	st.removeBounds(cid, cl.cons, v)
	for tid := range st.classes {
		tgt := &st.classes[tid]
		if int32(tid) == cid || !tgt.live || !sameConstraint(tgt.cons, nc) {
			continue
		}
		tm, m := x.members(st, int32(tid)), x.members(st, cid)
		for w, b := range m {
			tm[w] |= b
			m[w] = 0
			for ; b != 0; b &= b - 1 {
				st.classOf[w<<6|bits.TrailingZeros64(b)] = int32(tid)
			}
		}
		st.freeClass(cid)
		return
	}
	cl.cons = nc
	st.addBounds(cid, nc, v)
	cl.structural = structuralBand(nc)
	armed := cl.structural || !nc.Contains(v)
	if armed != cl.armed {
		if armed {
			st.armed = append(st.armed, cid)
		} else {
			st.disarm(cid)
		}
		cl.armed = armed
	}
}

// rebuildStream recomputes one stream's index from the fabric's constraint
// vector (used after a NaN fallback scan mutated entries behind the
// index's back).
func (x *queryIndex) rebuildStream(c *Composite, s int) {
	st := &x.streams[s]
	st.bounds = boundList{keys: st.bounds.keys[:0]}
	st.classes = st.classes[:0]
	st.members = st.members[:0]
	st.freeCls = st.freeCls[:0]
	st.armed = st.armed[:0]
	st.always = 0
	for qi := range st.classOf {
		st.classOf[qi] = catNone
	}
	for qi, q := range c.queries {
		if q == nil {
			continue
		}
		x.set(c, s, qi, c.cons[s][qi], true)
	}
}

// rebuild recomputes the whole index from the fabric — the restore path.
// ImportState never decodes index state: deriving it from the restored
// constraint vectors is the invariant that keeps the snapshot encoding
// unchanged and the index incapable of drifting across a save/load cycle.
func (x *queryIndex) rebuild(c *Composite) {
	x.restride(len(c.queries))
	for s := range x.streams {
		st := &x.streams[s]
		st.classOf = st.classOf[:0]
		for range c.queries {
			st.classOf = append(st.classOf, catNone)
		}
		x.rebuildStream(c, s)
	}
}
