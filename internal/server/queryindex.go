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
// The (stream × slot) constraint matrix is mostly one value per column — a
// query installs one interval on every stream — plus a few exceptions, so
// the index keeps it as a dense default plus sparse exceptions, in two
// layers. The index is the one store of a composite's entries: entry
// (s, qi) is slot qi's column default unless stream s's override bit for
// qi is set, in which case it is the stream's exception (entry reads it
// back bit-exact).
//
//   - The shared layer files each live slot's column default once per
//     composite. InstallAllExcept sets it; AddQuery's unfiltered start is
//     a filter.None default; a removed slot's is the zero constraint; a
//     band, which re-centres per stream, is never one.
//   - The per-stream layer holds, per stream, a packed hot record (a
//     finger into the shared boundary list and flag bits), an override
//     bitmap (the slots whose entry here differs from their default) and
//     the stream's exceptions, each filed in a class with its exact bits.
//     A stream that follows every default has an empty one.
//
// Within a layer, entries whose constraints are bit-identical share one
// evaluation class, whose members are a slot bitmap, so M queries
// installing the same constraint cost one check and a class that fires
// updates the fired set a word at a time. Each class is decided by one of
// two rules:
//
//   - Intervals: the XOR walk. A closed interval [lo, hi] keys its finite
//     bounds in a sorted flat list (keyList): hi as it is, lo one ulp low
//     (lowerKey). With the key.v < x test, the interval contains x exactly
//     when its lower key is below x and its upper key is not — the parity
//     of its keys below x. A finger at the stream's current value makes a
//     move u→v walk over keys[min:max], the keys with min(u,v) <= key.v <
//     max(u,v) — O(keys crossed), no search — and, since a slot sits in one
//     class per layer, the fired set is the XOR of those keys' member
//     bitmaps (a class with both keys crossed cancels, as it should). The
//     shared walk's result is masked by the stream's override bitmap, and
//     the stream's own walk XORs in its exceptions. A move that crosses no
//     key costs the two compares beside the finger.
//
//   - Bands (always exceptions): checked directly. A stream lists its live
//     band classes, and every update applies the linear scan's own rule to
//     each: fire when the band no longer contains v, then re-centre on v,
//     merging into an identical band class if there is one.
//
// Entries that can never report — silent intervals, and intervals with a
// NaN bound, which contain no value — file no keys: a default of that kind
// is in no class, an exception sits in a class that only keeps its bits.
// filter.None entries report every update: a stream where one stands (a
// None default it does not override, or a None exception) carries the
// hotAll flag. NaN updates admit no ordering, so Deliver decides them with
// the linear scan, which re-centres bands through set, and then recomputes
// the stream's two fingers.
//
// A default change moves at most four shared keys and fixes every stream's
// finger in one pass over the value column; it re-files no stream but the
// ones whose relation to the default changed. ExportState expands the
// entries into the per-stream rows the snapshot has always held, and
// ImportState re-files both layers from the rows it decodes, each column's
// default a Boyer–Moore majority: the index is never encoded, so the
// snapshot format is unchanged. Which entry becomes the default changes no
// fired set, only which layer files what.
//
// Everything on the Deliver path reuses scratch owned by the index (the
// fired bitmap, the boundary lists' own capacity), keeping the steady-state
// ingest path at 0 allocs/op.

// enableQueryIndex says whether composites built after it changes decide
// crossings with the index. Production always does; equivalence tests
// toggle it to pin indexed against linear evaluation.
var enableQueryIndex = true

// SetQueryIndexEnabled toggles whether newly constructed Composites'
// Deliver decides crossings with the query index or with the linear
// reference scan, returning the previous setting. Both keep their entries
// in the index. It exists for tests that compare the two; production code
// never calls it.
func SetQueryIndexEnabled(on bool) bool {
	prev := enableQueryIndex
	enableQueryIndex = on
	return prev
}

// Slot categories recorded in classes.classOf. A stream files every
// exception in a class, so only the shared layer records catAlways.
const (
	catNone   int32 = -1 // not filed here, or a default that can never report
	catAlways int32 = -2 // filter.None default: reports every update
)

// Flag bits of a stream's hot record.
const (
	hotOvr   uint32 = 1 << iota // some slot overrides its default here
	hotLocal                    // the stream files exception keys or bands
	hotAll                      // an unfiltered entry stands here
)

// hot is a stream's packed record: all an event that crosses only shared
// keys reads of the per-stream layer.
type hot struct {
	at    int32 // shared keys strictly below the stream's current value
	flags uint32
}

// qclass is one evaluation class: the entries of one layer sharing a
// bit-identical constraint.
type qclass struct {
	cons filter.Constraint
	live bool
}

// classes is one layer's evaluation classes and its slots' categories.
type classes struct {
	cls     []qclass
	mem     []uint64 // class cid's member bitmap is mem[cid*words:][:words]
	free    []int32  // retired class ids, their member bitmaps all zero
	classOf []int32  // per query slot: class id, catNone or catAlways; nil = all catNone

	// recent ring-buffers the last classes find resolved. Protocol
	// maintenance reinstalls a small working set of constraints over and
	// over (a range query's interval, a band at the new center), so the
	// cache turns the usual find into a handful of compares instead of a
	// scan of every standing class. Entries are validated against the
	// same match criteria as the full scan, so stale ids are harmless.
	recent  [8]int32
	recentN uint8
}

func (t *classes) members(cid int32, w int) slotSet { return t.mem[int(cid)*w:][:w] }

// find returns the live class holding cons. Class identity is
// Constraint.Same, bit-equality, so NaN bounds and ±0 group
// deterministically.
func (t *classes) find(cons filter.Constraint) (int32, bool) {
	for _, cid := range t.recent {
		if int(cid) < len(t.cls) && t.cls[cid].live && t.cls[cid].cons.Same(cons) {
			return cid, true
		}
	}
	for cid := range t.cls {
		if cl := &t.cls[cid]; cl.live && cl.cons.Same(cons) {
			t.remember(int32(cid))
			return int32(cid), true
		}
	}
	return 0, false
}

// open starts a class for cons, reusing a retired id, and returns it.
func (t *classes) open(cons filter.Constraint, w int) int32 {
	var cid int32
	if k := len(t.free); k > 0 {
		cid = t.free[k-1]
		t.free = t.free[:k-1]
	} else {
		t.cls = append(t.cls, qclass{})
		t.mem = append(t.mem, make([]uint64, w)...)
		cid = int32(len(t.cls) - 1)
	}
	t.cls[cid] = qclass{cons: cons, live: true}
	t.remember(cid)
	return cid
}

func (t *classes) remember(cid int32) {
	t.recent[t.recentN&7] = cid
	t.recentN++
}

// retire frees class cid, whose members have all left, for reuse.
func (t *classes) retire(cid int32) {
	t.cls[cid] = qclass{}
	t.free = append(t.free, cid)
}

// leave takes slot qi, filed in class cid, out of it and says whether the
// class is now empty.
func (t *classes) leave(qi int, cid int32, w int) (empty bool) {
	m := t.members(cid, w)
	m.put(qi, false)
	return m.count() == 0
}

// restride re-lays the member bitmaps from old to w words.
func (t *classes) restride(old, w int) {
	m := make([]uint64, len(t.cls)*w)
	for cid := range t.cls {
		copy(m[cid*w:], t.mem[cid*old:][:old])
	}
	t.mem = m
}

// unfiled says whether an entry can never report, and so files no keys: a
// silent interval or one with a NaN bound.
func unfiled(cons filter.Constraint) bool {
	return cons.Kind == filter.Interval && (cons.Silent() || math.IsNaN(cons.Lo) || math.IsNaN(cons.Hi))
}

// keysOf calls key for each boundary key of an interval: its finite
// bounds, the lower one at lowerKey. An infinite bound is never crossed
// and gets no key.
func keysOf(cons filter.Constraint, key func(float64)) {
	if !math.IsInf(cons.Lo, 0) {
		key(lowerKey(cons.Lo))
	}
	if !math.IsInf(cons.Hi, 0) {
		key(cons.Hi)
	}
}

// shared is the shared layer: every live slot's column default, filed
// once per composite, its interval classes' keys in one list.
type shared struct {
	classes
	cons   []filter.Constraint // per slot: the column default (removed: the zero constraint)
	keys   keyList
	always slotSet // live slots whose default is filter.None
}

// keyMoves collects the shared keys a default change retired and filed,
// for the one pass that moves every stream's finger past them.
type keyMoves struct {
	out, in   [2]float64
	nOut, nIn int
}

// unfile takes slot qi's default out of the shared layer.
func (d *shared) unfile(qi, w int, mv *keyMoves) {
	switch cid := d.classOf[qi]; {
	case cid == catAlways:
		d.always.put(qi, false)
	case cid >= 0 && d.leave(qi, cid, w):
		keysOf(d.cls[cid].cons, func(k float64) {
			d.keys.remove(k, cid)
			mv.out[mv.nOut] = k
			mv.nOut++
		})
		d.retire(cid)
	}
	d.classOf[qi] = catNone
}

// file files cons (never a band) as slot qi's default.
func (d *shared) file(qi int, cons filter.Constraint, w int, mv *keyMoves) {
	d.cons[qi] = cons
	switch {
	case cons.Kind == filter.None:
		d.always.put(qi, true)
		d.classOf[qi] = catAlways
	case unfiled(cons):
	default:
		cid, ok := d.find(cons)
		if !ok {
			cid = d.open(cons, w)
			keysOf(cons, func(k float64) {
				d.keys.insert(k, cid)
				mv.in[mv.nIn] = k
				mv.nIn++
			})
		}
		d.members(cid, w).put(qi, true)
		d.classOf[qi] = cid
	}
}

// qstream is one stream's exceptions: its classes, which hold every
// exception's bits, their boundary list (with its finger at the stream's
// current value), its band classes and its count of unfiltered exceptions.
type qstream struct {
	classes
	bounds boundList
	bands  []int32 // live band class ids, checked on every update
	always int     // filter.None exceptions
}

// file files exception cons for slot qi (cur is the stream's value), sizing
// classOf to slots on first use. A band joins the band list and a filed
// interval keys its bounds; any other entry only keeps its bits.
func (st *qstream) file(qi int, cons filter.Constraint, w, slots int, cur float64) {
	cid, ok := st.find(cons)
	if !ok {
		cid = st.open(cons, w)
		switch {
		case cons.Kind == filter.Band:
			st.bands = append(st.bands, cid)
		case cons.Kind == filter.Interval && !unfiled(cons):
			keysOf(cons, func(k float64) { st.bounds.insert(k, cid, cur) })
		}
	}
	if cons.Kind == filter.None {
		st.always++
	}
	st.members(cid, w).put(qi, true)
	if st.classOf == nil {
		st.classOf = slices.Repeat([]int32{catNone}, slots)
	}
	st.classOf[qi] = cid
}

// drop unfiles slot qi's exception (cur is the stream's value).
func (st *qstream) drop(qi, w int, cur float64) {
	cid := st.classOf[qi]
	if st.cls[cid].cons.Kind == filter.None {
		st.always--
	}
	if st.leave(qi, cid, w) {
		st.close(cid, cur)
	}
	st.classOf[qi] = catNone
}

// close retires class cid, whose members have all left: a band leaves the
// band list, a filed interval takes its keys out of the boundary list.
func (st *qstream) close(cid int32, cur float64) {
	switch cons := st.cls[cid].cons; {
	case cons.Kind == filter.Band:
		i := slices.Index(st.bands, cid)
		st.bands[i] = st.bands[len(st.bands)-1]
		st.bands = st.bands[:len(st.bands)-1]
	case cons.Kind == filter.Interval && !unfiled(cons):
		keysOf(cons, func(k float64) { st.bounds.remove(k, cid, cur) })
	}
	st.retire(cid)
}

// queryIndex is the per-Composite index: the shared layer, the per-stream
// layer and shared deliver scratch.
type queryIndex struct {
	def     shared
	hot     []hot
	ovr     []uint64 // stream s's override bitmap is ovr[s*words:][:words]
	novr    []int32  // per slot: streams overriding its default
	streams []qstream
	words   int     // stride of every bitmap
	fired   slotSet // members of the classes the last deliver fired
}

func newQueryIndex(n int) queryIndex {
	return queryIndex{hot: make([]hot, n), streams: make([]qstream, n)}
}

// overrides returns stream s's override bitmap.
func (x *queryIndex) overrides(s int) slotSet { return x.ovr[s*x.words:][:x.words] }

// entry returns stream s's entry for slot qi, bit-exact: its exception
// when it overrides the column default, else the default.
func (x *queryIndex) entry(s, qi int) filter.Constraint {
	if x.overrides(s).has(qi) {
		st := &x.streams[s]
		return st.cls[st.classOf[qi]].cons
	}
	return x.def.cons[qi]
}

// restride re-lays every bitmap at the stride that holds slots query
// slots, once the slot count crosses a multiple of 64.
func (x *queryIndex) restride(slots int) {
	w := words(slots)
	if w == x.words {
		return
	}
	x.def.restride(x.words, w)
	for s := range x.streams {
		x.streams[s].restride(x.words, w)
	}
	ovr := make([]uint64, len(x.hot)*w)
	for s := range x.hot {
		copy(ovr[s*w:], x.overrides(s))
	}
	x.ovr = ovr
	x.def.always = append(x.def.always, make(slotSet, w-x.words)...)
	x.words = w
	x.fired = make(slotSet, w)
}

// addSlot registers a freshly appended query slot: a filter.None default
// every stream follows.
func (x *queryIndex) addSlot(c *Composite) {
	qi := len(c.queries) - 1
	x.restride(len(c.queries))
	d := &x.def
	d.cons = append(d.cons, filter.Constraint{})
	d.classOf = append(d.classOf, catNone)
	d.file(qi, filter.NoFilter(), x.words, nil)
	x.novr = append(x.novr, 0)
	for s := range x.streams {
		if st := &x.streams[s]; st.classOf != nil {
			st.classOf = append(st.classOf, catNone)
		}
		x.hot[s].flags |= hotAll
	}
}

// removeSlot drops query slot qi from both layers, leaving the zero
// constraint as its entry at every stream.
func (x *queryIndex) removeSlot(c *Composite, qi int) {
	for s := range x.streams {
		if x.novr[qi] == 0 {
			break
		}
		if o := x.overrides(s); o.has(qi) {
			x.streams[s].drop(qi, x.words, c.vals[s])
			o.put(qi, false)
			x.novr[qi]--
			x.reflag(s)
		}
	}
	x.unsetDefault(c, qi)
}

// setDefault makes cons, never a band, slot qi's column default. No
// stream is re-filed: the caller re-files each stream whose entry's
// relation to the default changed (set), so a stream that followed the old
// default and keeps its entry becomes an exception.
func (x *queryIndex) setDefault(c *Composite, qi int, cons filter.Constraint) {
	if x.def.cons[qi].Same(cons) {
		return
	}
	wasAll := x.def.always.has(qi)
	var mv keyMoves
	x.def.unfile(qi, x.words, &mv)
	x.def.file(qi, cons, x.words, &mv)
	x.moved(c, &mv, wasAll != x.def.always.has(qi))
}

// unsetDefault unfiles removed slot qi's default.
func (x *queryIndex) unsetDefault(c *Composite, qi int) {
	wasAll := x.def.always.has(qi)
	var mv keyMoves
	x.def.unfile(qi, x.words, &mv)
	x.def.cons[qi] = filter.Constraint{}
	x.moved(c, &mv, wasAll)
}

// moved finishes a default change: one pass over the value column moves
// every stream's finger past the shared keys it retired and filed, and
// when a None default came or went every stream's flags are recomputed.
func (x *queryIndex) moved(c *Composite, mv *keyMoves, reflag bool) {
	if mv.nOut+mv.nIn > 0 {
		out, in := mv.out[:mv.nOut], mv.in[:mv.nIn]
		for s, v := range c.vals {
			at := x.hot[s].at
			for _, k := range in {
				if k < v {
					at++
				}
			}
			for _, k := range out {
				if k < v {
					at--
				}
			}
			x.hot[s].at = at
		}
	}
	if reflag {
		for s := range x.hot {
			x.reflag(s)
		}
	}
}

// set makes cons stream s's entry for slot qi. This is the single
// per-stream mutation point every fabric path funnels through: an entry
// equal to its default clears the stream's exception, any other makes one.
func (x *queryIndex) set(c *Composite, s, qi int, cons filter.Constraint) {
	o, st := x.overrides(s), &x.streams[s]
	follows := cons.Same(x.def.cons[qi])
	if o.has(qi) {
		// Reinstalling what is already filed — a maintenance round
		// refreshing a query's standing constraint — must not churn the
		// class or its boundary keys.
		if !follows && st.cls[st.classOf[qi]].cons.Same(cons) {
			return
		}
		st.drop(qi, x.words, c.vals[s])
		o.put(qi, false)
		x.novr[qi]--
	} else if follows {
		return
	}
	if !follows {
		st.file(qi, cons, x.words, len(x.novr), c.vals[s])
		o.put(qi, true)
		x.novr[qi]++
	}
	x.reflag(s)
}

// reflag recomputes stream s's flags from its override bitmap and
// exceptions.
func (x *queryIndex) reflag(s int) {
	st := &x.streams[s]
	var f uint32
	if st.always > 0 {
		f |= hotAll
	}
	for w, b := range x.overrides(s) {
		if b != 0 {
			f |= hotOvr
		}
		if x.def.always[w]&^b != 0 {
			f |= hotAll
		}
	}
	if len(st.bounds.keys) > 0 || len(st.bands) > 0 {
		f |= hotLocal
	}
	x.hot[s].flags = f
}

// lowerKey is the boundary key of an interval's lower bound lo: the float
// just below it, so that key.v < x holds exactly when x >= lo. lo =
// -MaxFloat64 keys at -Inf.
func lowerKey(lo float64) float64 { return math.Nextafter(lo, math.Inf(-1)) }

// deliver is the indexed crossing-detection phase of Composite.Deliver for
// the value move u→v on stream s, neither NaN (c.vals[s] already holds v).
// It reports whether the stream reports — with decisions and side effects
// (band re-centering) exactly matching the linear scan's — and whether the
// report concerns every live slot (all: an unfiltered entry stands). When
// it does not, x.fired is the bitmap of the slots whose own entry fired.
func (x *queryIndex) deliver(c *Composite, s int, u, v float64) (crossed, all bool) {
	h := &x.hot[s]
	keys := x.def.keys
	from := int(h.at)
	to := keys.seek(from, v)
	h.at = int32(to)
	f := h.flags
	all = f&hotAll != 0
	if f&hotLocal == 0 && (from == to || all) {
		return all, all
	}
	fired, stride := x.fired, x.words
	clear(fired)
	members := x.def.mem
	for _, k := range keys[min(from, to):max(from, to)] {
		for w, b := range members[int(k.id)*stride:][:len(fired)] {
			fired[w] ^= b
		}
	}
	if f&hotOvr != 0 && from != to {
		for w, b := range x.overrides(s) {
			fired[w] &^= b
		}
	}
	if f&hotLocal != 0 {
		st := &x.streams[s]
		from, to := st.bounds.seek(v)
		members := st.mem
		for _, k := range st.bounds.keys[min(from, to):max(from, to)] {
			for w, b := range members[int(k.id)*stride:][:len(fired)] {
				fired[w] ^= b
			}
		}
		// Backwards, so a band that merges away (and is swapped out of
		// the list by the last one, already checked) leaves nothing
		// unchecked.
		for i := len(st.bands) - 1; i >= 0; i-- {
			if cid := st.bands[i]; !st.cls[cid].cons.Contains(v) {
				x.fireBand(st, cid, v)
			}
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
// class cid at once: each fires, and the class, which holds their entry,
// is re-centred on v, merging into an identical band class if the
// re-centre made two bands converge.
func (x *queryIndex) fireBand(st *qstream, cid int32, v float64) {
	m := st.members(cid, x.words)
	nc := filter.NewBand(v, st.cls[cid].cons.BandHalfWidth())
	for w, b := range m {
		x.fired[w] |= b
	}
	for _, tid := range st.bands {
		if tid == cid || !st.cls[tid].cons.Same(nc) {
			continue
		}
		tm := st.members(tid, x.words)
		for w, b := range m {
			tm[w] |= b
			m[w] = 0
			for ; b != 0; b &= b - 1 {
				st.classOf[w<<6|bits.TrailingZeros64(b)] = tid
			}
		}
		st.close(cid, v)
		return
	}
	st.cls[cid].cons = nc
}

// refinger recomputes stream s's two fingers at its value v, after the
// linear scan decided a move the index did not walk.
func (x *queryIndex) refinger(s int, v float64) {
	x.hot[s].at = int32(x.def.keys.below(v))
	st := &x.streams[s]
	st.bounds.at = int32(st.bounds.keys.below(v))
}

// refile rebuilds the index from rows, the entries of every stream (rows[s]
// holds one per slot), taking pick(rows, qi) as live slot qi's default (a
// band is never one: it becomes None). It is ImportState's path: the index
// is never encoded, so it is re-filed from the rows the snapshot decodes.
func (x *queryIndex) refile(c *Composite, rows [][]filter.Constraint,
	pick func(rows [][]filter.Constraint, qi int) filter.Constraint) {
	slots := len(c.queries)
	x.restride(slots)
	x.def = shared{
		classes: classes{classOf: slices.Repeat([]int32{catNone}, slots)},
		cons:    make([]filter.Constraint, slots),
		always:  make(slotSet, x.words),
	}
	x.novr = make([]int32, slots)
	clear(x.ovr)
	clear(x.streams)
	for qi, q := range c.queries {
		if q == nil {
			continue
		}
		cons := pick(rows, qi)
		if cons.Kind == filter.Band {
			cons = filter.NoFilter()
		}
		x.def.file(qi, cons, x.words, &keyMoves{})
	}
	for s, row := range rows {
		st, o := &x.streams[s], x.overrides(s)
		for qi, q := range c.queries {
			if q != nil && !row[qi].Same(x.def.cons[qi]) {
				st.file(qi, row[qi], x.words, slots, c.vals[s])
				o.put(qi, true)
				x.novr[qi]++
			}
		}
		x.hot[s].at = int32(x.def.keys.below(c.vals[s]))
		x.reflag(s)
	}
}

// majorityDefault picks column qi's default by a Boyer–Moore majority vote
// over its non-band entries (None when every entry is a band).
func majorityDefault(rows [][]filter.Constraint, qi int) filter.Constraint {
	var cand filter.Constraint
	votes := 0
	for _, row := range rows {
		e := row[qi]
		switch {
		case e.Kind == filter.Band:
		case votes == 0:
			cand, votes = e, 1
		case cand.Same(e):
			votes++
		default:
			votes--
		}
	}
	return cand
}
