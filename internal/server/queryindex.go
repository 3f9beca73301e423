package server

import (
	"math"
	"math/bits"
	"slices"

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
// Per stream, a planner groups the live entries into evaluation classes:
// entries whose constraints are bit-identical share one class, whose
// members are a slot bitmap, so M queries installing the same constraint
// cost one check and a class that fires updates the fired set a word at a
// time. Each class is decided by one of two rules:
//
//   - Intervals: the XOR walk. A closed interval [lo, hi] keys its finite
//     bounds in a sorted flat list (boundList): hi as it is, lo one ulp low
//     (lowerKey). With the list's key.v < x test, the interval contains x
//     exactly when its lower key is below x and its upper key is not — the
//     parity of its keys below x. The list keeps a finger at the stream's
//     current value, so a move u→v walks from it over keys[min:max], the
//     keys with min(u,v) <= key.v < max(u,v) — O(keys crossed), no search —
//     and, since a slot sits in one class per stream, the fired set is the
//     XOR of those keys' member bitmaps (a class with both keys crossed
//     cancels, as it should). A move that crosses no key costs the two
//     compares beside the finger.
//
//   - Bands: checked directly. A stream lists its live band classes, and
//     every update applies the linear scan's own rule to each: fire when
//     the band no longer contains v, then re-centre on v, merging into an
//     identical band class if there is one. M same-width bands collapse to
//     one class after their first shared fire.
//
// Entries that can never report are left unfiled: silent intervals, and
// intervals with a NaN bound, which contain no value. Two more cases stay
// outside the classes:
//
//   - filter.None entries report every update; a plain count makes the
//     stream report unconditionally while any live unfiltered query exists.
//
//   - NaN updates: a NaN value admits no ordering, so the finger is
//     meaningless; Deliver falls back to the linear scan for that update
//     and rebuilds the stream's index afterwards.
//
// Mutations funnel through set(): AddQuery, RemoveQuery, install and the
// restore rebuild all re-categorize one (stream, slot) entry; a band
// re-centre inside Deliver moves a whole class at once (fireBand).
// ExportState/ImportState never encode the index — restore rebuilds it from
// the restored constraint vectors, so the snapshot format is unchanged and
// index state can never drift from fabric state across a save/load cycle.
//
// Everything on the Deliver path reuses scratch owned by the index (the
// fired bitmap, the boundary lists' own capacity), keeping the steady-state
// ingest path at 0 allocs/op.

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
	catNone   int32 = -1 // unfiled: removed slot, or an entry that can never report
	catAlways int32 = -2 // filter.None entry: reports every update
)

// qclass is one evaluation class: the queries of one stream sharing a
// bit-identical constraint. Its members are a slot bitmap in its stream's
// members array.
type qclass struct {
	cons filter.Constraint
	live bool
}

// qstream is one stream's index: its classes, their boundary list (with its
// finger at the stream's current value) and its band classes.
type qstream struct {
	bounds  boundList
	classes []qclass
	members []uint64 // class cid's member bitmap is members[cid*words:][:words]
	freeCls []int32  // recycled class ids, their member bitmaps all zero
	classOf []int32  // per query slot: class id, catNone or catAlways
	bands   []int32  // live band class ids, checked on every update
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
	fired   slotSet // members of the classes the last deliver fired
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
	// Reinstalling what is already categorized — a maintenance round
	// refreshing a query's standing constraint — must not churn the class
	// or its boundary keys.
	if cid := st.classOf[qi]; cid >= 0 && live && sameConstraint(st.classes[cid].cons, cons) {
		return
	}
	switch cid := st.classOf[qi]; {
	case cid == catAlways:
		st.always--
	case cid >= 0:
		m := x.members(st, cid)
		m.put(qi, false)
		if m.count() == 0 {
			st.freeClass(cid, c.vals[s])
		}
	}
	st.classOf[qi] = catNone
	if !live {
		return
	}
	switch {
	case cons.Kind == filter.None:
		st.always++
		st.classOf[qi] = catAlways
	case cons.Kind == filter.Interval && (cons.Silent() || math.IsNaN(cons.Lo) || math.IsNaN(cons.Hi)):
		// Can never report.
	default:
		cid := x.classFor(c, st, s, cons)
		x.members(st, cid).put(qi, true)
		st.classOf[qi] = cid
	}
}

// freeClass retires class cid, whose members have all left, for reuse: a
// band leaves the band list, an interval takes its keys out of the boundary
// list (cur is the stream's current value).
func (st *qstream) freeClass(cid int32, cur float64) {
	cl := &st.classes[cid]
	if cl.cons.Kind == filter.Band {
		i := slices.Index(st.bands, cid)
		st.bands[i] = st.bands[len(st.bands)-1]
		st.bands = st.bands[:len(st.bands)-1]
	} else {
		if !math.IsInf(cl.cons.Lo, 0) {
			st.bounds.remove(lowerKey(cl.cons.Lo), cid, cur)
		}
		if !math.IsInf(cl.cons.Hi, 0) {
			st.bounds.remove(cl.cons.Hi, cid, cur)
		}
	}
	cl.live = false
	cl.cons = filter.Constraint{}
	st.freeCls = append(st.freeCls, cid)
}

// classFor returns the class for cons, creating it if no live class
// matches. Class identity is bit-equality of the constraint
// (math.Float64bits, so NaN bounds and ±0 group deterministically).
func (x *queryIndex) classFor(c *Composite, st *qstream, s int, cons filter.Constraint) int32 {
	for _, cid := range st.recent {
		if int(cid) >= len(st.classes) {
			continue
		}
		cl := &st.classes[cid]
		if cl.live && sameConstraint(cl.cons, cons) {
			return cid
		}
	}
	for cid := range st.classes {
		cl := &st.classes[cid]
		if cl.live && sameConstraint(cl.cons, cons) {
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
	st.classes[cid] = qclass{cons: cons, live: true}
	if cons.Kind == filter.Band {
		st.bands = append(st.bands, cid)
	} else {
		// An infinite bound is never crossed and gets no key.
		if !math.IsInf(cons.Lo, 0) {
			st.bounds.insert(lowerKey(cons.Lo), cid, c.vals[s])
		}
		if !math.IsInf(cons.Hi, 0) {
			st.bounds.insert(cons.Hi, cid, c.vals[s])
		}
	}
	st.recent[st.recentN&7] = cid
	st.recentN++
	return cid
}

// lowerKey is the boundary key of an interval's lower bound lo: the float
// just below it, so that key.v < x holds exactly when x >= lo. lo =
// -MaxFloat64 keys at -Inf.
func lowerKey(lo float64) float64 { return math.Nextafter(lo, math.Inf(-1)) }

// sameConstraint is bit-exact constraint equality — the planner's grouping
// key. Float64bits keeps NaN-carrying constraints groupable (NaN != NaN
// would otherwise split them into unbounded fresh classes).
func sameConstraint(a, b filter.Constraint) bool {
	return a.Kind == b.Kind &&
		math.Float64bits(a.Lo) == math.Float64bits(b.Lo) &&
		math.Float64bits(a.Hi) == math.Float64bits(b.Hi)
}

// deliver is the indexed crossing-detection phase of Composite.Deliver for
// the value move u→v on stream s (c.vals[s] already holds v). It reports
// whether the stream reports — with decisions and side effects (band
// re-centering) exactly matching the linear scan's — and whether
// the report concerns every live slot (all: an unfiltered entry stands, or
// the scan ran). When it does not, x.fired is the bitmap of the slots whose
// own entry fired.
func (x *queryIndex) deliver(c *Composite, s int, u, v float64) (crossed, all bool) {
	if math.IsNaN(u) || math.IsNaN(v) {
		crossed = c.deliverScan(s, u, v)
		x.rebuildStream(c, s)
		return crossed, true
	}
	st := &x.streams[s]
	all = st.always > 0
	from, to := st.bounds.seek(v)
	if from == to && len(st.bands) == 0 {
		return all, all
	}
	fired, members, stride := x.fired, st.members, x.words
	clear(fired)
	for _, k := range st.bounds.keys[min(from, to):max(from, to)] {
		for w, b := range members[int(k.id)*stride:][:len(fired)] {
			fired[w] ^= b
		}
	}
	// Backwards, so a band that merges away (and is swapped out of the
	// list by the last one, already checked) leaves nothing unchecked.
	for i := len(st.bands) - 1; i >= 0; i-- {
		if cid := st.bands[i]; !st.classes[cid].cons.Contains(v) {
			x.fireBand(c, st, s, cid, v)
		}
	}
	if !all {
		for _, b := range fired {
			if b != 0 {
				return true, false
			}
		}
	}
	return all, all
}

// fireBand applies the linear scan's band rule to every member of band
// class cid at once: each fires, and its entry is re-centred on v. The
// class follows, merging into an identical band class if the re-centre
// made two bands converge.
func (x *queryIndex) fireBand(c *Composite, st *qstream, s int, cid int32, v float64) {
	m := x.members(st, cid)
	nc := filter.NewBand(v, st.classes[cid].cons.BandHalfWidth())
	row := c.cons[s]
	for w, b := range m {
		x.fired[w] |= b
		for ; b != 0; b &= b - 1 {
			row[w<<6|bits.TrailingZeros64(b)] = nc
		}
	}
	for _, tid := range st.bands {
		if tid == cid || !sameConstraint(st.classes[tid].cons, nc) {
			continue
		}
		tm := x.members(st, tid)
		for w, b := range m {
			tm[w] |= b
			m[w] = 0
			for ; b != 0; b &= b - 1 {
				st.classOf[w<<6|bits.TrailingZeros64(b)] = tid
			}
		}
		st.freeClass(cid, v)
		return
	}
	st.classes[cid].cons = nc
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
	st.bands = st.bands[:0]
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
