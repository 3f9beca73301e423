package server

import (
	"fmt"
	"math"
	"math/bits"

	"adaptivefilters/internal/comm"
	"adaptivefilters/internal/filter"
	"adaptivefilters/internal/stream"
)

// Composite hosts M standing queries over one shared population of n
// streams behind composite filters — the paper's §7 multi-query extension,
// promoted to a first-class fabric any Host consumer can embed (driven
// synchronously, as examples/sensornet does, or as a tenant slot of
// runtime.Node on the sharded serving plane).
//
// Each stream holds one filter constraint *per query slot*. A value change
// is reported iff it crosses the boundary of at least one live, non-silent
// per-query constraint — and the report is a single update message no
// matter how many queries it affects, which is where the sharing wins over
// running one independent cluster per query. Per-query protocol state is
// not re-implemented here: every query is an ordinary protocol programming
// against a Host view whose probes refresh the shared value table and whose
// installs rewrite that query's entry in the composite filter. Only the
// composite fabric — the constraint entries, the shared table and the
// single message counter — lives in the Composite.
//
// The stream rule and the uplink are Cluster's: an entry's side is the side
// its constraint puts the stream's true value on, never stored, and an
// install runs the handshake (DESIGN.md §3.1) — a stream the server believes
// on the wrong side of a new interval reports at once, and the installing
// query handles that report after its current handler returns.
//
// Query slots are never reused: RemoveQuery nils the slot and resets its
// constraint entries to the zero constraint, AddQuery appends. All methods
// must be driven from a single goroutine (in the runtime, the owning shard
// loop).
type Composite struct {
	uplink
	vals  []float64 // ground truth (driven by Deliver)
	table []float64 // server view
	// scan makes Deliver decide crossings with the linear reference scan
	// instead of the index (SetQueryIndexEnabled, for equivalence tests).
	scan bool

	queries []*compositeQuery // nil = removed slot
	ctr     comm.Counter
	// reports holds the reports queued for the query each one concerns.
	reports reportQueue[queryReport]

	// Dispatch bookkeeping for Deliver: drivenMask holds the live slots
	// whose protocol is CrossingDriven, othersMask the live slots whose
	// protocol is not and so must see every report, and crossers[qi] is
	// slot qi's protocol when its drivenMask bit is set (else nil), so a
	// dispatch is one indexed load and one call. All three are derived
	// from the slots — maintained by admit and RemoveQuery, never encoded.
	drivenMask slotSet
	othersMask slotSet
	crossers   []CrossingDriven

	// Initialization-epoch bookkeeping (beginEpoch): during an epoch,
	// sibling queries share probe results and composite install messages —
	// the first probe of a stream pays the round-trip, later ones read the
	// already-exact server copy for free; the first install to a stream pays
	// one message, later entries ride in the same composite install. The
	// generation marks make epoch resets O(1) instead of O(n).
	epoch      uint64
	inEpoch    bool
	probeGen   []uint64
	installGen []uint64

	// idx holds every constraint entry — stream s's for slot qi is
	// idx.entry(s, qi), its side that entry's Contains(vals[s]) — and makes
	// Deliver sub-linear in the query count (see queryindex.go).
	idx queryIndex
}

// CrossingDriven is an optional interface a Protocol implements to let a
// Composite skip it on reports its own filter did not cause. The contract:
//
//	HandleUpdate(id, v) is Host.AddServerOps(1) followed by Crossed(id, v),
//	and a Crossed(id, v) for an update that leaves the protocol's own
//	installed entry at stream id on its recorded side does nothing — no
//	answer change, no probe, no install, no other state.
//
// That holds for a protocol whose answer membership is, stream by stream,
// the recorded side of the non-silent interval it installed there (ZT-NRP,
// FT-NRP): a report another query's filter caused tells it nothing new. It
// does not hold for a protocol that reads every reported value (the rank
// protocols track positions inside their bound; VB-kNN and the no-filter
// baseline see every update) — those do not implement it and keep
// receiving every report. Given the contract, Composite.Deliver charges
// each live CrossingDriven slot its one server op per report and calls
// Crossed only on the slots it dispatches to, so counters, answers and
// protocol state are those of calling everyone's HandleUpdate (pinned by
// core's contract test and the indexed-vs-linear equivalence tests).
type CrossingDriven interface {
	Protocol
	// Crossed is HandleUpdate without its one server op.
	Crossed(id stream.ID, v float64)
}

// compositeQuery is one standing query slot: its protocol, its Host view,
// and the opaque seed label the owner derived its randomness with (recorded
// in snapshots so restore can re-derive the same seed).
type compositeQuery struct {
	name        string
	seedID      int64
	proto       Protocol
	view        compositeView
	initialized bool
}

// queryReport is a report queued for query slot qi: stream s reported v.
type queryReport struct {
	qi int
	s  stream.ID
	v  float64
}

// slotSet is a set of query slots kept as a bitmap: slot qi is bit qi&63 of
// word qi>>6. Every slotSet of a composite is words(len(queries)) long.
type slotSet []uint64

func (b slotSet) has(qi int) bool { return b[qi>>6]>>(qi&63)&1 != 0 }

func (b slotSet) put(qi int, on bool) {
	if on {
		b[qi>>6] |= 1 << (qi & 63)
	} else {
		b[qi>>6] &^= 1 << (qi & 63)
	}
}

func (b slotSet) count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// words is the bitmap length that holds slots query slots.
func words(slots int) int { return (slots + 63) >> 6 }

// NewComposite creates an empty fabric over the initial true stream values.
// The server table starts unknown: queries learn values by probing.
func NewComposite(initial []float64) *Composite {
	n := len(initial)
	return &Composite{
		vals:       append([]float64(nil), initial...),
		table:      make([]float64, n),
		idx:        newQueryIndex(n),
		scan:       !enableQueryIndex,
		probeGen:   make([]uint64, n),
		installGen: make([]uint64, n),
	}
}

// N returns the stream count.
func (c *Composite) N() int { return len(c.vals) }

// QuerySlots returns the query slot count, including removed slots (slot
// ids stay stable for the fabric's lifetime; see QueryAlive).
func (c *Composite) QuerySlots() int { return len(c.queries) }

// LiveQueries returns the number of non-removed query slots.
func (c *Composite) LiveQueries() int {
	n := 0
	for w, d := range c.drivenMask {
		n += bits.OnesCount64(d | c.othersMask[w])
	}
	return n
}

// QueryAlive reports whether slot qi currently hosts a query.
func (c *Composite) QueryAlive(qi int) bool {
	return qi >= 0 && qi < len(c.queries) && c.queries[qi] != nil
}

// liveQuery returns slot qi or panics with a precise message — state
// accessors on a removed slot are caller bugs, matching runtime.Node's
// tenant-slot semantics.
func (c *Composite) liveQuery(qi int) *compositeQuery {
	q := c.queries[qi]
	if q == nil {
		panic(fmt.Sprintf("server: query %d was removed", qi))
	}
	return q
}

// QueryName returns slot qi's label.
func (c *Composite) QueryName(qi int) string { return c.liveQuery(qi).name }

// QuerySeedID returns the opaque seed label slot qi was admitted with.
func (c *Composite) QuerySeedID(qi int) int64 { return c.liveQuery(qi).seedID }

// Protocol returns slot qi's hosted protocol.
func (c *Composite) Protocol(qi int) Protocol { return c.liveQuery(qi).proto }

// Answer returns query qi's current answer set.
func (c *Composite) Answer(qi int) []stream.ID { return c.liveQuery(qi).proto.Answer() }

// Counter exposes the fabric's single shared message counter.
func (c *Composite) Counter() *comm.Counter { return &c.ctr }

// AddQuery appends a query slot: build runs immediately (on the caller's
// goroutine) against the slot's Host view, and the returned protocol is not
// initialized — call Initialize (t0, shares one epoch across every
// uninitialized query) or InitializeQuery (live admission). seedID is an
// opaque label the owner derived the protocol's randomness with; it is
// recorded in snapshots and surfaced to the restore factory.
func (c *Composite) AddQuery(name string, seedID int64, build func(h Host) Protocol) int {
	if build == nil {
		panic("server: nil query protocol factory")
	}
	qi := len(c.queries)
	q := &compositeQuery{name: name, seedID: seedID}
	q.view = compositeView{c: c, qi: qi}
	q.proto = build(&q.view)
	if q.proto == nil {
		panic("server: query protocol factory returned nil")
	}
	if qi&63 == 0 { // every slot bitmap gains a word
		c.drivenMask = append(c.drivenMask, 0)
		c.othersMask = append(c.othersMask, 0)
	}
	c.admit(q)
	c.idx.addSlot(c)
	return qi
}

// admit appends a live slot whose protocol is built and files it in the
// dispatch bookkeeping (the one place AddQuery and ImportState share; both
// size the masks first).
func (c *Composite) admit(q *compositeQuery) {
	qi := len(c.queries)
	d, driven := q.proto.(CrossingDriven)
	c.drivenMask.put(qi, driven)
	c.othersMask.put(qi, !driven)
	c.crossers = append(c.crossers, d)
	c.queries = append(c.queries, q)
}

// RemoveQuery evicts query slot qi: the slot is cleared and its constraint
// entries become the inert zero constraint (they can neither cross nor
// silence a stream). No messages are charged — like
// runtime.Node.RemoveTenant, an eviction hands the cleanup to whoever
// evicted it. Slot ids are never reused.
func (c *Composite) RemoveQuery(qi int) error {
	if qi < 0 || qi >= len(c.queries) {
		return fmt.Errorf("server: no query %d", qi)
	}
	if c.queries[qi] == nil {
		return fmt.Errorf("server: query %d already removed", qi)
	}
	c.drivenMask.put(qi, false)
	c.othersMask.put(qi, false)
	c.crossers[qi] = nil
	c.queries[qi] = nil
	c.idx.removeSlot(c, qi)
	return nil
}

// Initialize runs the t0 phase of every not-yet-initialized query inside
// one shared epoch, charged to the Init accounting bucket: the first
// query's probe fan-out pays the 2n messages and every sibling reads the
// same barrier-exact table for free, and each stream's per-query filter
// entries deploy in one composite install message (n installs total, no
// matter how many queries install). This is exactly the paper's multi-query
// initialization economics: 2n + n messages for M queries.
func (c *Composite) Initialize() {
	c.ctr.SetPhase(comm.Init)
	c.beginEpoch()
	for _, q := range c.queries {
		if q == nil || q.initialized {
			continue
		}
		q.proto.Initialize()
		q.initialized = true
	}
	c.endEpoch()
	c.ctr.SetPhase(comm.Maintenance)
}

// InitializeQuery runs one query's t0 phase in its own epoch — the live-
// admission path. The new query's messages (its probe fan-out, its n new
// filter entries) are charged to the Init bucket: they are that query's t0,
// excluded from the paper's maintenance metric just like the t0 of a
// freshly built fabric. The counter returns to Maintenance afterwards.
func (c *Composite) InitializeQuery(qi int) {
	q := c.liveQuery(qi)
	if q.initialized {
		panic(fmt.Sprintf("server: query %d already initialized", qi))
	}
	c.ctr.SetPhase(comm.Init)
	c.beginEpoch()
	q.proto.Initialize()
	q.initialized = true
	c.endEpoch()
	c.ctr.SetPhase(comm.Maintenance)
}

func (c *Composite) beginEpoch() { c.epoch++; c.inEpoch = true }
func (c *Composite) endEpoch()   { c.inEpoch = false }

// Deliver applies a true value change to stream s; the stream reports iff
// at least one live per-query entry demands it (one update message total),
// and the maintenance of every query the report concerns then runs against
// the new value, in slot order, before any mismatch report that maintenance
// raised. Each entry applies its own kind's source-side semantics, exactly
// as stream.Sources.Set does for a single filter: an interval entry reports
// when the move changes the side it puts the value on, a band entry
// reports on deviation beyond its half-width and re-centers locally (no
// install message — Olston-style), and a None entry — an unfiltered query —
// makes the stream report every update. Steady state allocates nothing.
//
// A report costs every live query one server op at least (the lookup of its
// entry); which queries it costs maintenance is the dispatch set's
// business: every live slot when all is set (an unfiltered entry stands on
// the stream, or the linear scan decided the move and so says nothing of
// which entries fired), otherwise the slots whose own entry fired plus the
// slots whose protocol is not CrossingDriven — see CrossingDriven. The
// scan decides every move of a composite built with the index disabled,
// and a move from or to NaN, which the index cannot order.
func (c *Composite) Deliver(s stream.ID, v float64) {
	u := c.vals[s]
	c.vals[s] = v
	crossed, all := false, true
	if c.scan || math.IsNaN(u) || math.IsNaN(v) {
		crossed = c.deliverScan(s, u, v)
		c.idx.refinger(int(s), v)
	} else {
		crossed, all = c.idx.deliver(c, int(s), u, v)
	}
	if !crossed || !c.chargeUpdate(&c.ctr) {
		return
	}
	c.table[s] = v
	// The set is walked a word at a time in ascending slot order. Every
	// live CrossingDriven slot is charged its one server op up front, so a
	// dispatched one is handed the crossing through Crossed. Maintenance
	// may reinstall, and so regroup the index's classes, but it never
	// touches the fired bitmap, the masks or another slot's entry; the
	// reports its installs raise wait in the queue until the walk is done.
	c.reports.draining = true
	ops := 0
	for w, driven := range c.drivenMask {
		others, fired := c.othersMask[w], uint64(0)
		set := driven | others
		if !all {
			fired = c.idx.fired[w]
			set = fired | others
		}
		ops += bits.OnesCount64(driven)
		for ; set != 0; set &= set - 1 {
			bit := set & -set
			qi := w<<6 | bits.TrailingZeros64(set)
			// Silent entries never generate reports, but the report may
			// have been caused by another query's constraint; only run a
			// query's maintenance when its own constraint is live (the
			// paper's per-filter semantics). The skipped query still pays
			// the lookup, a CrossingDriven one up front. A fired entry is
			// a class member, so it is not silent, and only its own
			// maintenance can rewrite it.
			if fired&bit == 0 && c.idx.entry(int(s), qi).Silent() {
				if others&bit != 0 {
					ops++
				}
				continue
			}
			if driven&bit != 0 {
				c.crossers[qi].Crossed(s, v)
			} else {
				c.queries[qi].proto.HandleUpdate(s, v)
			}
		}
	}
	c.ctr.AddServerOps(uint64(ops))
	c.reports.draining = false
	c.reports.drain(c)
}

// handle runs one queued report through the maintenance of its query.
func (c *Composite) handle(r queryReport) { c.queries[r.qi].proto.HandleUpdate(r.s, r.v) }

// deliverScan is the linear crossing-detection reference for the move u→v:
// it walks every live entry of stream s, applies each kind's source-side
// semantics, and reports whether the stream reports. The indexed path
// (queryindex.go) must make exactly the decisions and side effects of this
// loop. A band re-centres through the index's set, which leaves the
// fingers alone; the caller recomputes them.
func (c *Composite) deliverScan(s stream.ID, u, v float64) bool {
	crossed := false
	for qi, q := range c.queries {
		if q == nil {
			continue
		}
		cons := c.idx.entry(int(s), qi)
		switch cons.Kind {
		case filter.None:
			crossed = true
		case filter.Band:
			if !cons.Contains(v) {
				c.idx.set(c, int(s), qi, filter.NewBand(v, cons.BandHalfWidth()))
				crossed = true
			}
		default:
			if !cons.Silent() && cons.Contains(u) != cons.Contains(v) {
				crossed = true
			}
		}
	}
	return crossed
}

// SilentStreams returns the number of streams whose every live per-query
// constraint is silent — fully shut-down sensors. With no live queries
// every stream is vacuously silent.
func (c *Composite) SilentStreams() int {
	n := 0
	for s := range c.vals {
		all := true
		for qi, q := range c.queries {
			if q == nil {
				continue
			}
			if !c.idx.entry(s, qi).Silent() {
				all = false
				break
			}
		}
		if all {
			n++
		}
	}
	return n
}

// Constraint returns the filter entry installed at stream s for query qi
// (the server knows what it installed; this does not cost a message).
func (c *Composite) Constraint(s stream.ID, qi int) filter.Constraint { return c.idx.entry(int(s), qi) }

// TrueValue returns the ground-truth value of stream s. Protocols must not
// call this; it exists for the oracle and tests.
func (c *Composite) TrueValue(s stream.ID) float64 { return c.vals[s] }

// Table returns the server's copy of stream s's value: what the last probe
// or report told it.
func (c *Composite) Table(s stream.ID) float64 { return c.table[s] }

// refresh records stream s's exact value in the server table — what a
// stream's answer to the server does.
func (c *Composite) refresh(s stream.ID) { c.table[s] = c.vals[s] }

// install rewrites query qi's entry at stream s and runs the install
// handshake on it, the rule stream.Sources.Install applies to one filter:
// when cons is a non-silent interval that puts the true value on the other
// side than the server expects, the stream reports at once (one update; a
// heard one refreshes the table and is queued for query qi). It says whether
// the install costs a message: inside an init epoch only a stream's first
// install does, and every sibling's entry rides in that composite install.
func (c *Composite) install(s stream.ID, qi int, cons filter.Constraint, expectInside bool) bool {
	c.idx.set(c, int(s), qi, cons)
	return c.handshake(s, qi, cons, expectInside)
}

// handshake runs the install handshake for query qi's new entry cons at
// stream s and says whether the install costs a message (see install).
func (c *Composite) handshake(s stream.ID, qi int, cons filter.Constraint, expectInside bool) bool {
	if cons.Kind == filter.Interval && cons.Contains(c.vals[s]) != expectInside && !cons.Silent() &&
		c.chargeUpdate(&c.ctr) {
		c.refresh(s)
		c.reports.push(queryReport{qi, s, c.vals[s]})
	}
	if c.inEpoch {
		if c.installGen[s] == c.epoch {
			return false
		}
		c.installGen[s] = c.epoch
	}
	return true
}

// compositeView adapts one query slot to the Host interface its protocol
// programs against: probes refresh the shared table (and cost the usual
// messages on the shared counter, except when a sibling already paid for
// them this epoch), installs rewrite this query's constraint entry, and
// server-side work lands on the shared computation metric. All charging
// flows through the helpers in charges.go — the same rules Cluster applies.
type compositeView struct {
	c  *Composite
	qi int
}

var _ Host = (*compositeView)(nil)

// N implements Host.
func (v *compositeView) N() int { return len(v.c.vals) }

// Probe implements Host over the shared table. Inside an init epoch a
// stream probed by a sibling query is free: the server copy is exact at the
// barrier, so no message is needed to read it again.
func (v *compositeView) Probe(id stream.ID) float64 {
	c := v.c
	if c.inEpoch && c.probeGen[id] == c.epoch {
		return c.table[id]
	}
	chargeProbes(&c.ctr, 1)
	c.refresh(id)
	if c.inEpoch {
		c.probeGen[id] = c.epoch
	}
	return c.vals[id]
}

// ProbeIf implements Host: the request is always charged, the reply — and
// the table refresh — only on a hit. Inside an init epoch a stream whose
// exact value the server already holds is evaluated server-side for free.
func (v *compositeView) ProbeIf(id stream.ID, cons filter.Constraint) (float64, bool) {
	c := v.c
	if c.inEpoch && c.probeGen[id] == c.epoch {
		if !cons.Contains(c.vals[id]) {
			return 0, false
		}
		return c.vals[id], true
	}
	chargeProbeRequest(&c.ctr)
	if !cons.Contains(c.vals[id]) {
		return 0, false
	}
	chargeProbeReply(&c.ctr)
	c.refresh(id)
	if c.inEpoch {
		c.probeGen[id] = c.epoch
	}
	return c.vals[id], true
}

// ProbeAllInto implements Host (2n messages on the shared counter; streams
// a sibling already probed this epoch are free), reusing dst for the table
// snapshot.
func (v *compositeView) ProbeAllInto(dst []float64) []float64 {
	v.c.probeAll()
	return v.TableValues(dst)
}

// probeAll refreshes the whole table, charging only the streams not already
// probed in the current epoch, batched once per message kind.
func (c *Composite) probeAll() {
	var missed uint64
	for s := range c.vals {
		if c.inEpoch && c.probeGen[s] == c.epoch {
			continue
		}
		missed++
		c.refresh(s)
		if c.inEpoch {
			c.probeGen[s] = c.epoch
		}
	}
	chargeProbes(&c.ctr, missed)
}

// ProbeBatch implements Host: 2 messages per stream not already probed this
// epoch, counted in one batched update per kind.
func (v *compositeView) ProbeBatch(ids []stream.ID) {
	c := v.c
	var missed uint64
	for _, id := range ids {
		if c.inEpoch && c.probeGen[id] == c.epoch {
			continue
		}
		missed++
		c.refresh(id)
		if c.inEpoch {
			c.probeGen[id] = c.epoch
		}
	}
	chargeProbes(&c.ctr, missed)
}

// Install implements Host: it rewrites this query's entry in stream id's
// composite filter (one message, shared inside an init epoch) and drains
// any mismatch report the handshake queued.
func (v *compositeView) Install(id stream.ID, cons filter.Constraint, expectInside bool) {
	c := v.c
	if c.install(id, v.qi, cons, expectInside) {
		chargeInstalls(&c.ctr, 1)
	}
	c.reports.drain(c)
}

// InstallBatch implements Host as Install in a loop, each stream expecting
// the side cons puts its table value on, with the charge batched.
func (v *compositeView) InstallBatch(ids []stream.ID, cons filter.Constraint) {
	c := v.c
	var charged uint64
	for _, id := range ids {
		if c.install(id, v.qi, cons, cons.Contains(c.table[id])) {
			charged++
		}
	}
	chargeInstalls(&c.ctr, charged)
	c.reports.drain(c)
}

// InstallAllExcept implements Host as InstallBatch over every stream not
// in skip.
func (v *compositeView) InstallAllExcept(skip []stream.ID, cons filter.Constraint) {
	v.c.installAll(v.qi, skip, cons)
}

// installAll installs cons as query qi's entry at every stream not in skip
// (strictly ascending), each stream expecting the side cons puts its table
// value on. Unless it is a band, cons becomes the query's column default,
// filed once: each skipped stream keeps its entry, read before the default
// moves under it and re-filed against the new one, the others are re-filed
// only when they held an exception, and the loop over the streams is the
// handshake and the charge.
func (c *Composite) installAll(qi int, skip []stream.ID, cons filter.Constraint) {
	x := &c.idx
	shared := cons.Kind != filter.Band
	if shared {
		old := x.def.cons[qi]
		x.setDefault(c, qi, cons)
		for _, s := range skip {
			e := old
			if x.overrides(s).has(qi) {
				e = x.entry(s, qi)
			}
			x.set(c, s, qi, e)
		}
	}
	var charged uint64
	next := 0
	for s := range c.vals {
		if next < len(skip) && skip[next] == s {
			next++
			continue
		}
		if !shared || x.novr[qi] > 0 && x.overrides(s).has(qi) {
			x.set(c, s, qi, cons)
		}
		if c.handshake(s, qi, cons, cons.Contains(c.table[s])) {
			charged++
		}
	}
	if next != len(skip) {
		panic("server: InstallAllExcept skip list is not strictly ascending")
	}
	chargeInstalls(&c.ctr, charged)
	c.reports.drain(c)
}

// Table implements Host.
func (v *compositeView) Table(id stream.ID) float64 { return v.c.table[id] }

// TableValues implements Host reusing dst for the table copy.
func (v *compositeView) TableValues(dst []float64) []float64 {
	return append(dst[:0], v.c.table...)
}

// AddServerOps implements Host on the shared computation metric.
func (v *compositeView) AddServerOps(n int) { v.c.ctr.AddServerOps(uint64(n)) }
