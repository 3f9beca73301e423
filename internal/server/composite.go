package server

import (
	"fmt"
	"slices"

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
// composite fabric — the per-stream constraint vectors, the shared table
// and the single message counter — lives in the Composite.
//
// Unlike Cluster, the composite model has no install handshake: constraint
// entries are recomputed against ground truth at install time (see
// DESIGN.md §3.1), so installs never cascade mismatch reports.
//
// Query slots are never reused: RemoveQuery nils the slot and clears its
// constraint entries, AddQuery appends. All methods must be driven from a
// single goroutine (in the runtime, the owning shard loop).
type Composite struct {
	vals  []float64 // ground truth (driven by Deliver)
	table []float64 // server view
	known []bool

	// cons[s][q] is stream s's constraint entry for query slot q; inside
	// records the stream-side "last reported side" of each entry, which is
	// what boundary-crossing detection compares against.
	cons   [][]filter.Constraint
	inside [][]bool

	queries []*compositeQuery // nil = removed slot
	ctr     comm.Counter

	// Dispatch bookkeeping for Deliver: driven counts the live slots whose
	// protocol is CrossingDriven, others lists (ascending) the live slots
	// whose protocol is not and so must see every report. Both are derived
	// from the slots — maintained by admit and RemoveQuery, never encoded.
	// dispatch is Deliver's slot-list scratch.
	driven   int
	others   []int32
	dispatch []int32

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

	// idx is the per-stream query index making Deliver sub-linear in the
	// query count (see queryindex.go). nil runs the linear reference scan —
	// equivalence tests construct such composites via SetQueryIndexEnabled.
	idx *queryIndex
}

// CrossingDriven is an optional marker a Protocol declares to let a
// Composite skip it on reports its own filter did not cause. The contract:
//
//	A HandleUpdate(id, v) for an update that leaves the protocol's own
//	installed entry at stream id on its recorded side does nothing but
//	charge exactly one server op (Host.AddServerOps(1)) — no answer
//	change, no probe, no install, no other state.
//
// That holds for a protocol whose answer membership is, stream by stream,
// the recorded side of the non-silent interval it installed there (ZT-NRP,
// FT-NRP): a report another query's filter caused tells it nothing new. It
// does not hold for a protocol that reads every reported value (the rank
// protocols track positions inside their bound; VB-kNN and the no-filter
// baseline see every update) — those do not declare it and keep receiving
// every report. Given the contract, Composite.Deliver replaces each skipped
// call by its one server op, so counters, answers and protocol state are
// those of dispatching to everyone (pinned by core's contract test and the
// indexed-vs-linear equivalence tests).
type CrossingDriven interface {
	Protocol
	// CrossingDriven is never called; declaring it asserts the contract.
	CrossingDriven()
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
	driven      bool // proto declares CrossingDriven
}

// NewComposite creates an empty fabric over the initial true stream values.
// The server table starts unknown: queries learn values by probing.
func NewComposite(initial []float64) *Composite {
	n := len(initial)
	c := &Composite{
		vals:       append([]float64(nil), initial...),
		table:      make([]float64, n),
		known:      make([]bool, n),
		cons:       make([][]filter.Constraint, n),
		inside:     make([][]bool, n),
		probeGen:   make([]uint64, n),
		installGen: make([]uint64, n),
	}
	if enableQueryIndex {
		c.idx = newQueryIndex(n)
	}
	return c
}

// N returns the stream count.
func (c *Composite) N() int { return len(c.vals) }

// QuerySlots returns the query slot count, including removed slots (slot
// ids stay stable for the fabric's lifetime; see QueryAlive).
func (c *Composite) QuerySlots() int { return len(c.queries) }

// LiveQueries returns the number of non-removed query slots.
func (c *Composite) LiveQueries() int { return c.driven + len(c.others) }

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
	c.admit(q)
	for s := range c.cons {
		c.cons[s] = append(c.cons[s], filter.Constraint{})
		c.inside[s] = append(c.inside[s], false)
	}
	if c.idx != nil {
		c.idx.addSlot(c)
	}
	return qi
}

// admit appends a live slot whose protocol is built and files it in the
// dispatch bookkeeping (the one place AddQuery and ImportState share).
func (c *Composite) admit(q *compositeQuery) {
	_, q.driven = q.proto.(CrossingDriven)
	if q.driven {
		c.driven++
	} else {
		c.others = append(c.others, int32(len(c.queries)))
	}
	c.queries = append(c.queries, q)
}

// RemoveQuery evicts query slot qi: the slot is cleared and its constraint
// entries become inert (they can neither cross nor silence a stream). No
// messages are charged — like runtime.Node.RemoveTenant, an eviction hands
// the cleanup to whoever evicted it. Slot ids are never reused.
func (c *Composite) RemoveQuery(qi int) error {
	if qi < 0 || qi >= len(c.queries) {
		return fmt.Errorf("server: no query %d", qi)
	}
	if c.queries[qi] == nil {
		return fmt.Errorf("server: query %d already removed", qi)
	}
	if c.queries[qi].driven {
		c.driven--
	} else {
		i, _ := slices.BinarySearch(c.others, int32(qi))
		c.others = slices.Delete(c.others, i, i+1)
	}
	c.queries[qi] = nil
	for s := range c.cons {
		c.cons[s][qi] = filter.Constraint{}
		c.inside[s][qi] = false
	}
	if c.idx != nil {
		c.idx.removeSlot(c, qi)
	}
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
// the new value. Each entry applies its own kind's source-side semantics,
// exactly as stream.Source.Set does for a single filter: an interval entry
// reports on a boundary crossing against its recorded side, a band entry
// reports on deviation beyond its half-width and re-centers locally (no
// install message — Olston-style), and a None entry — an unfiltered query —
// makes the stream report every update. Steady state allocates nothing.
//
// A report costs every live query one server op at least (the lookup of its
// entry); which queries it costs a HandleUpdate is the dispatch list's
// business — see dispatchSlots and CrossingDriven.
func (c *Composite) Deliver(s stream.ID, v float64) {
	u := c.vals[s]
	c.vals[s] = v
	crossed, all := false, true
	if c.idx != nil {
		crossed, all = c.idx.deliver(c, int(s), u, v)
	} else {
		crossed = c.deliverScan(s, v)
	}
	if !crossed {
		return
	}
	c.ctr.Add(comm.Update, 1)
	c.table[s] = v
	c.known[s] = true
	row := c.cons[s]
	// ops starts at one lookup per CrossingDriven query; a dispatched one
	// is taken back out and pays for itself below, so what is left at the
	// end is exactly the skipped queries' HandleUpdate charge.
	ops := c.driven
	for _, qi := range c.dispatchSlots(all) {
		q := c.queries[qi]
		if q.driven {
			ops--
		}
		// Silent entries never generate reports, but the report may have
		// been caused by another query's constraint; only run a query's
		// maintenance when its own constraint is live (the paper's
		// per-filter semantics). The skipped query still pays the lookup.
		if row[qi].Silent() {
			ops++
			continue
		}
		q.proto.HandleUpdate(s, v)
	}
	c.ctr.AddServerOps(uint64(ops))
}

// dispatchSlots returns, in ascending slot order, the live slots a report
// must be dispatched to: every live slot when all is set (an unfiltered
// entry stands on the stream, the NaN fallback scan ran, or there is no
// index to say which entries fired), otherwise the slots whose own entry
// fired plus the slots whose protocol is not CrossingDriven. The result is
// scratch, valid until the next call; it is built before any HandleUpdate
// runs because maintenance may reinstall and so regroup the index's classes.
func (c *Composite) dispatchSlots(all bool) []int32 {
	out := c.dispatch[:0]
	if all {
		for qi, q := range c.queries {
			if q != nil {
				out = append(out, int32(qi))
			}
		}
		c.dispatch = out
		return out
	}
	// Merged by hand: sorting the concatenation and compacting it reads
	// shorter and measured about 5 % slower end to end on node-multiquery
	// (others is already in order, and usually empty).
	fired, others := c.idx.fired, c.others
	slices.Sort(fired)
	for len(fired) > 0 || len(others) > 0 {
		var qi int32
		if len(others) == 0 || (len(fired) > 0 && fired[0] <= others[0]) {
			qi, fired = fired[0], fired[1:]
		} else {
			qi, others = others[0], others[1:]
		}
		// A slot can be listed twice: it is in both lists when a protocol
		// that sees every report also fired, and twice in fired when its
		// band class merged into one evaluated later in the same walk.
		if k := len(out); k == 0 || out[k-1] != qi {
			out = append(out, qi)
		}
	}
	c.dispatch = out
	return out
}

// deliverScan is the linear crossing-detection reference: it walks every
// entry of stream s's constraint vector, applies each kind's source-side
// semantics, and reports whether the stream reports. The indexed path
// (queryindex.go) must make exactly the decisions and side effects of this
// loop; it also falls back to it for NaN values, which the boundary index
// cannot order.
func (c *Composite) deliverScan(s stream.ID, v float64) bool {
	row := c.cons[s]
	ins := c.inside[s]
	crossed := false
	for qi := range row {
		if c.queries[qi] == nil {
			continue
		}
		cons := row[qi]
		switch cons.Kind {
		case filter.None:
			crossed = true
		case filter.Band:
			if !cons.Contains(v) {
				row[qi] = filter.NewBand(v, cons.BandHalfWidth())
				ins[qi] = true
				crossed = true
			}
		default:
			if cons.Silent() {
				continue
			}
			now := cons.Contains(v)
			if now != ins[qi] {
				ins[qi] = now
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
	for s := range c.cons {
		all := true
		for qi, q := range c.queries {
			if q == nil {
				continue
			}
			if !c.cons[s][qi].Silent() {
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
func (c *Composite) Constraint(s stream.ID, qi int) filter.Constraint { return c.cons[s][qi] }

// TrueValue returns the ground-truth value of stream s. Protocols must not
// call this; it exists for the oracle and tests.
func (c *Composite) TrueValue(s stream.ID) float64 { return c.vals[s] }

// refresh records stream s's exact value in the server table and re-records
// the stream's side of every live constraint entry — what a stream does
// whenever it answers the server.
func (c *Composite) refresh(s stream.ID) {
	c.table[s] = c.vals[s]
	c.known[s] = true
	c.recordInside(s)
}

// recordInside re-evaluates stream s's side of every live per-query entry
// against ground truth.
func (c *Composite) recordInside(s stream.ID) {
	row := c.cons[s]
	ins := c.inside[s]
	for qi := range row {
		if c.queries[qi] == nil {
			continue
		}
		ins[qi] = row[qi].Contains(c.vals[s])
	}
}

// setConstraint rewrites one entry of the composite filter and re-records
// the stream's side of it against ground truth. The composite model has no
// install handshake: entries are recomputed where table and true value
// agree by construction (right after a probe, or inside an init epoch — see
// DESIGN.md §3.1 and §7).
func (c *Composite) setConstraint(s stream.ID, qi int, cons filter.Constraint) {
	c.cons[s][qi] = cons
	c.inside[s][qi] = cons.Contains(c.vals[s])
	if c.idx != nil {
		c.idx.set(c, int(s), qi, cons, true)
	}
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
// the table refresh — only on a hit. The probed source re-evaluates its
// recorded sides locally even on a miss. Inside an init epoch a stream
// whose exact value the server already holds is evaluated server-side for
// free.
func (v *compositeView) ProbeIf(id stream.ID, cons filter.Constraint) (float64, bool) {
	c := v.c
	if c.inEpoch && c.probeGen[id] == c.epoch {
		if !cons.Contains(c.vals[id]) {
			return 0, false
		}
		return c.vals[id], true
	}
	chargeProbeRequest(&c.ctr)
	c.recordInside(id)
	if !cons.Contains(c.vals[id]) {
		return 0, false
	}
	chargeProbeReply(&c.ctr)
	c.table[id] = c.vals[id]
	c.known[id] = true
	if c.inEpoch {
		c.probeGen[id] = c.epoch
	}
	return c.vals[id], true
}

// ProbeAll implements Host (2n messages on the shared counter; streams a
// sibling already probed this epoch are free).
func (v *compositeView) ProbeAll() []float64 { return v.ProbeAllInto(nil) }

// ProbeAllInto implements Host reusing dst for the table snapshot.
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

// Install rewrites this query's entry in stream id's composite filter.
// Inside an init epoch the first install to a stream pays the one message
// and every sibling's entry rides in it (the composite install carries all
// per-query entries); outside an epoch every install is one message.
// expectInside is ignored: the composite model has no install handshake
// (the entry is recomputed against ground truth).
func (v *compositeView) Install(id stream.ID, cons filter.Constraint, _ bool) {
	c := v.c
	if !(c.inEpoch && c.installGen[id] == c.epoch) {
		chargeInstalls(&c.ctr, 1)
		if c.inEpoch {
			c.installGen[id] = c.epoch
		}
	}
	c.setConstraint(id, v.qi, cons)
}

// InstallBatch implements Host as Install in a loop, so an init epoch
// charges only each stream's first install, exactly as for Install.
func (v *compositeView) InstallBatch(ids []stream.ID, cons filter.Constraint) {
	for _, id := range ids {
		v.Install(id, cons, cons.Contains(v.c.table[id]))
	}
}

// InstallAll rewrites this query's entry at every stream (n installs, minus
// the streams whose composite install this epoch already carries it).
func (v *compositeView) InstallAll(cons filter.Constraint) {
	c := v.c
	var charged uint64
	for s := range c.cons {
		if !(c.inEpoch && c.installGen[s] == c.epoch) {
			charged++
			if c.inEpoch {
				c.installGen[s] = c.epoch
			}
		}
		c.setConstraint(s, v.qi, cons)
	}
	chargeInstalls(&c.ctr, charged)
}

// Table implements Host.
func (v *compositeView) Table(id stream.ID) (float64, bool) { return v.c.table[id], v.c.known[id] }

// TableValues implements Host reusing dst for the table copy.
func (v *compositeView) TableValues(dst []float64) []float64 {
	return append(dst[:0], v.c.table...)
}

// AddServerOps implements Host on the shared computation metric.
func (v *compositeView) AddServerOps(n int) { v.c.ctr.AddServerOps(uint64(n)) }
