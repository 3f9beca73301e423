// Package runtime hosts many independent tenants — each a standing query,
// its protocol and its own partition of streams — inside one serving node.
//
// The paper's system model (§3.1, Figure 3) is one server, one continuous
// query, n streams; a production deployment multiplexes thousands of such
// query instances onto shared hardware. A Node shards its tenants over a
// fixed set of goroutine event loops fed by a batched ingest router. Each
// tenant is pinned to exactly one shard, so per-tenant event order is
// preserved and every tenant's trajectory is bit-identical to running it on
// a private single-tenant server.Cluster — at any shard count. Tenant seeds
// derive from the node seed via sim.DeriveSeed, per-tenant comm.Counters
// merge into node totals, and shutdown is context-cancellable in the style
// of experiment.RunCells.
//
// The ingest path is allocation-free in steady state: every shard is one
// bounded mailbox whose two sets of slices alternate between the ingesters
// and the shard loop (see DESIGN.md, "Hot path & benchmarking"). Ingest
// copies the caller's events into the mailboxes, so callers may reuse their
// batch slice immediately after Ingest returns.
package runtime

import (
	"context"
	"fmt"
	"math"
	goruntime "runtime"
	"slices"
	"sync"
	"sync/atomic"

	"adaptivefilters/internal/comm"
	"adaptivefilters/internal/filter"
	"adaptivefilters/internal/server"
	"adaptivefilters/internal/sim"
	"adaptivefilters/internal/snapshot"
	"adaptivefilters/internal/stream"
)

// tenantSeedStream labels per-tenant seed derivation from Config.Seed
// (cf. the selection-stream labels in internal/core), so a tenant's
// protocol randomness depends only on (node seed, tenant index) — never on
// shard placement or scheduling.
const tenantSeedStream int64 = 0x7E4A

// querySeedStream labels per-query seed derivation inside a multi-query
// tenant: query q of tenant t draws
// DeriveSeed(nodeSeed, tenantSeedStream, tenantSeedID, querySeedStream,
// querySeedID), where querySeedID is a monotonic per-tenant admission
// counter — so a query's randomness depends only on (node seed, tenant
// admission order, query admission order), never on placement, shard count
// or which sibling queries came and went before it.
const querySeedStream int64 = 0x3D91

// Event is one value change bound for one tenant's stream partition. For a
// spatial tenant, (Value, Y) is the stream's new planar location; for 1-D
// tenants Y must be zero.
type Event struct {
	Tenant int
	Stream stream.ID
	Value  float64
	Y      float64
}

// QuerySpec describes one standing query of a multi-query tenant: a label
// and the protocol factory serving it. Any server.StatefulProtocol-capable
// protocol works — the factory decides range/tolerance/protocol exactly as
// TenantSpec.NewProtocol does for single-query tenants.
type QuerySpec struct {
	// Name labels the query in reports (defaults to "query-<slot>").
	Name string
	// NewProtocol builds the query's protocol over its composite Host view.
	// The seed derives from the node seed, the tenant's admission label and
	// the query's admission label, and must be the factory's only randomness
	// source.
	NewProtocol func(h server.Host, seed int64) server.Protocol
}

// TenantSpec describes one tenant: its stream partition's initial values
// and the protocol(s) serving its standing queries.
//
// A single-query tenant sets NewProtocol (the same shape as
// experiment.Config.NewProtocol, so a protocol wired for the single-tenant
// runner drops into a Node unchanged) and is served by a private
// server.Cluster. A multi-query tenant sets Queries instead and is served
// by a server.Composite: all its queries share one value table, one message
// counter and per-stream composite filters, so one update message covers
// every query it affects. The two forms are mutually exclusive. Every kind
// may set UplinkLoss.
type TenantSpec struct {
	// Name labels the tenant in reports (defaults to "tenant-<i>").
	Name string
	// Initial seeds the tenant's private stream partition.
	Initial []float64
	// NewProtocol builds a single-query tenant's protocol over its host. The
	// seed is derived from the node seed and the tenant index and must be
	// the factory's only randomness source.
	NewProtocol func(h server.Host, seed int64) server.Protocol
	// Queries, when non-empty, makes this a multi-query composite tenant.
	Queries []QuerySpec
	// UplinkLoss is the probability that any one stream→server update is
	// lost in transit (0, the default, is the paper's reliable channel; see
	// server's SetUplinkLoss). The loss process is seeded by the tenant's
	// own seed, so it is as reproducible as its protocols.
	UplinkLoss float64
	// SpatialInitial, when non-empty, makes this a spatial (2-D) tenant: its
	// partition's streams are planar locations served by a private
	// server.SpatialCluster, and events carry (Value, Y) coordinates. Set
	// NewSpatial with it; Initial, NewProtocol and Queries must stay zero.
	SpatialInitial []filter.Point
	// NewSpatial builds a spatial tenant's protocol over its host. The seed
	// derives exactly as NewProtocol's does and must be the factory's only
	// randomness source.
	NewSpatial func(h server.SpatialHost, seed int64) server.SpatialProtocol
}

// Config tunes the node.
type Config struct {
	// Shards is the number of event-loop goroutines. 0 means 1; negative
	// means GOMAXPROCS.
	Shards int
	// Seed is the node's base determinism seed; tenant i's protocol and
	// uplink-loss seed is sim.DeriveSeed(Seed, tenantSeedStream, i).
	Seed int64
	// Queue is the per-shard mailbox capacity in events (default
	// DefaultQueue): a routed batch is admitted whenever fewer than that
	// many events wait on its shard, and is never split.
	Queue int
}

func (c Config) shards() int {
	switch {
	case c.Shards > 0:
		return c.Shards
	case c.Shards < 0:
		return goruntime.GOMAXPROCS(0)
	default:
		return 1
	}
}

// DefaultQueue is the per-shard mailbox capacity, in events, of a Config
// that leaves Queue unset.
const DefaultQueue = 4096

func (c Config) queue() int {
	if c.Queue > 0 {
		return c.Queue
	}
	return DefaultQueue
}

// tenant is one hosted serving instance, owned by exactly one shard after
// Start.
type tenant struct {
	name string
	backend
	shard  int
	events uint64
	// planar marks a 2-D tenant: its records take their Y from the mailbox's
	// side array.
	planar bool
	// seedID is the label the tenant's protocol seed was derived with. It is
	// assigned from a monotonic admission counter, never reused after an
	// eviction, and recorded in snapshots — so a tenant's randomness depends
	// only on (node seed, admission order), not on placement, shard count or
	// the lifecycle of its neighbors.
	seedID int64
	// initialized marks tenants whose t0 phase already ran (or was restored
	// from a snapshot); the shard loops skip Initialize for them.
	initialized bool
	// fault is empty while the tenant is healthy. A panic in its Deliver or
	// in a t0 phase sets it, on the owning shard loop, to the panic value:
	// the tenant is quarantined, its events are refused and skipped, and
	// the node keeps serving the rest (see quarantine).
	fault string
}

// backend is whatever serves a tenant — a cluster hosting one protocol in
// one or two dimensions, or a multi-query composite fabric — reduced to
// what the shard loop, the lifecycle calls and the snapshot codecs ask of
// it. Deliver is the shard-loop hot path and allocation-free in steady
// state on every backend; y is the second coordinate of a spatial tenant's
// event and zero otherwise.
type backend interface {
	Initialize()
	Deliver(s stream.ID, v, y float64)
	// N returns the stream-partition size.
	N() int
	// Counter returns the message counter (shared across all queries of a
	// composite tenant).
	Counter() *comm.Counter
	// SetUplinkLoss injects update loss (see TenantSpec.UplinkLoss).
	SetUplinkLoss(rate float64, seed int64)
	// report copies the backend's answers into tr: a single-protocol
	// backend's answer set, or a composite's query slots.
	report(tr *TenantReport)
	// kind returns the snapshot kind discriminator.
	kind() int64
	// export appends the tenant record's body — everything after the kind,
	// name and seed label — and restore decodes it into a freshly built
	// backend, returning the event count; spec is the tenant's own.
	export(w *snapshot.Writer, events uint64) error
	restore(r *snapshot.Reader, spec TenantSpec) (events uint64, err error)
}

// hosted is the single-protocol backend over values of type V: a private
// cluster and the protocol it hosts. Initialize, N and Counter are the
// embedded cluster's; its Deliver is shadowed by the two instantiations
// below, which differ only in how an event's (v, y) becomes a V.
type hosted[V comparable, C filter.Of[V, C]] struct {
	*server.ClusterOf[V, C]
	proto server.ProtocolOf[V]
}

func newHosted[V comparable, C filter.Of[V, C]](initial []V,
	build func(server.HostOf[V, C], int64) server.ProtocolOf[V], seed int64) hosted[V, C] {
	c := server.NewClusterOf[V, C](initial)
	p := build(c, seed)
	c.SetProtocol(p)
	return hosted[V, C]{c, p}
}

func (h *hosted[V, C]) report(tr *TenantReport) {
	tr.Answer = append([]stream.ID(nil), h.proto.Answer()...)
}

// export writes protocol name, event count, cluster state, protocol state —
// one layout for both kinds.
func (h *hosted[V, C]) export(w *snapshot.Writer, events uint64) error {
	sp, ok := h.proto.(server.StatefulProtocolOf[V])
	if !ok {
		return fmt.Errorf("protocol %q does not support snapshots", h.proto.Name())
	}
	w.String(h.proto.Name())
	w.Uint64(events)
	h.ExportState(w)
	sp.ExportState(w)
	return nil
}

func (h *hosted[V, C]) restore(r *snapshot.Reader, _ TenantSpec) (uint64, error) {
	protoName := r.String()
	events := r.Uint64()
	if err := r.Err(); err != nil {
		return 0, err
	}
	if got := h.proto.Name(); got != protoName {
		return 0, fmt.Errorf("spec builds protocol %q, snapshot holds %q", got, protoName)
	}
	sp, ok := h.proto.(server.StatefulProtocolOf[V])
	if !ok {
		return 0, fmt.Errorf("protocol %q does not support snapshots", protoName)
	}
	if err := h.ImportState(r); err != nil {
		return 0, fmt.Errorf("cluster: %w", err)
	}
	return events, sp.ImportState(r)
}

type scalar struct {
	hosted[float64, filter.Constraint]
}

func (t *scalar) Deliver(s stream.ID, v, _ float64) { t.ClusterOf.Deliver(s, v) }
func (*scalar) kind() int64                         { return tenantKindSingle }

type planar struct {
	hosted[filter.Point, filter.Region]
}

func (t *planar) Deliver(s stream.ID, v, y float64) { t.ClusterOf.Deliver(s, filter.Point{X: v, Y: y}) }
func (*planar) kind() int64                         { return tenantKindSpatial }

// multi is the multi-query backend: a composite fabric plus the state the
// runtime keeps about its query admissions.
type multi struct {
	*server.Composite
	// querySeed derives a query's protocol seed from the node seed, the
	// tenant's admission label and the query's.
	querySeed func(qid int64) int64
	// nextQuerySeed is the monotonic query-admission counter, the per-query
	// analogue of the node's nextSeedID: query seed labels are never reused
	// after a RemoveQuery, and the counter rides in snapshots so admissions
	// after a restore continue the sequence.
	nextQuerySeed int64
}

func (m *multi) Deliver(s stream.ID, v, _ float64) { m.Composite.Deliver(s, v) }
func (*multi) kind() int64                         { return tenantKindMulti }

// report fills one QueryReport per query slot, removed slots included.
func (m *multi) report(tr *TenantReport) {
	tr.Queries = make([]QueryReport, m.QuerySlots())
	for qi := range tr.Queries {
		if m.QueryAlive(qi) {
			tr.Queries[qi] = QueryReport{
				Alive:  true,
				Name:   m.QueryName(qi),
				Answer: append([]stream.ID(nil), m.Answer(qi)...),
			}
		}
	}
}

// addQuery appends one query slot, running the protocol factory (on the
// caller's goroutine) with the slot's derived seed. The slot is not
// initialized.
func (m *multi) addQuery(qs QuerySpec, qid int64) int {
	name := qs.Name
	if name == "" {
		name = fmt.Sprintf("query-%d", m.QuerySlots())
	}
	seed := m.querySeed(qid)
	return m.AddQuery(name, qid, func(h server.Host) server.Protocol {
		return qs.NewProtocol(h, seed)
	})
}

func (m *multi) export(w *snapshot.Writer, events uint64) error {
	w.Uint64(events)
	w.Int64(m.nextQuerySeed)
	m.ExportState(w)
	return nil
}

// restore decodes a multi-query record: the event count, the
// query-admission counter, then the whole composite fabric, rebuilding each
// live query slot from the spec's QuerySpec at that slot with its recorded
// seed label. A NaN value or table entry is refused, as a cluster record's
// is: the node admits none (checkInitial, the ingester), and one would
// reach a rank query's probe and ranking kernel. A composite outside a node
// takes NaN deliveries, so its own ImportState round-trips them.
func (m *multi) restore(r *snapshot.Reader, spec TenantSpec) (uint64, error) {
	events := r.Uint64()
	nextQuerySeed := r.Int64()
	if err := r.Err(); err != nil {
		return 0, err
	}
	if nextQuerySeed < 0 {
		return 0, fmt.Errorf("query admission counter %d negative", nextQuerySeed)
	}
	m.nextQuerySeed = nextQuerySeed
	err := m.ImportState(r,
		func(slot int, name string, seedID int64, h server.Host) (server.Protocol, error) {
			if slot >= len(spec.Queries) {
				return nil, fmt.Errorf("snapshot holds query slot %d, spec lists %d queries", slot, len(spec.Queries))
			}
			if seedID < 0 || seedID >= nextQuerySeed {
				return nil, fmt.Errorf("query %d seed label %d outside [0,%d)", slot, seedID, nextQuerySeed)
			}
			return spec.Queries[slot].NewProtocol(h, m.querySeed(seedID)), nil
		})
	if err != nil {
		return 0, err
	}
	for s := range m.N() {
		if math.IsNaN(m.TrueValue(s)) || math.IsNaN(m.Table(s)) {
			return 0, fmt.Errorf("composite snapshot holds NaN value for stream %d", s)
		}
	}
	return events, nil
}

// Node hosts tenants on sharded event loops. Ingest is concurrent: any
// number of goroutines may route events, each through its own Ingester
// handle (Node.Ingest wraps a default handle for single-caller code). The
// control side — Start, Drain, Stop, and the lifecycle calls AddTenant,
// RemoveTenant, AddQuery, RemoveQuery, Snapshot, ExportTenant, ImportTenant
// — must still be driven from a single goroutine; each control call is a
// barrier that first quiesces every in-flight Ingest (the ingestMu write
// side) and every shard loop (the drain protocol). Tenant state is read
// through Report, which is race-free after a Drain or Stop.
type Node struct {
	cfg Config
	// tenants is indexed by tenant id. Slots are never reused: RemoveTenant
	// nils its slot (so in-flight ids stay unambiguous) and AddTenant
	// appends. The slice is only mutated by the control-side goroutine while
	// every ingester is held out by ingestMu and every shard loop is
	// quiescent behind a Drain barrier; publishTable then republishes the
	// routing table and the next post under a mailbox lock publishes the new
	// header to the loops.
	tenants []*tenant
	// nextSeedID is the monotonic admission counter seeding new tenants.
	nextSeedID int64
	// ingested counts every event accepted by Ingest over the node's whole
	// life — including events for tenants that were later evicted — so a
	// snapshot records exactly how far into the merged ingress stream the
	// barrier sits (TotalEvents). Atomic: concurrent ingesters add to it.
	ingested atomic.Uint64
	// shards holds one mailbox per event loop.
	shards []mailbox
	// table is the published routing table ingesters validate against; see
	// publishTable for the replace-only protocol.
	table atomic.Pointer[routingTable]
	// ingestMu is the ingester quiescence lock: every Ingest batch holds the
	// read side, every barrier (Drain, lifecycle, Stop) takes the write side
	// — so a barrier waits out in-flight batches and holds new ones back,
	// and a completed barrier has observed every event routed before it.
	// Uncontended in steady state (no barrier running), so the hot path
	// stays lock-free in the queueing sense: readers never block each other.
	ingestMu sync.RWMutex
	// def is the default ingest handle Node.Ingest delegates to; acks is the
	// reusable barrier acknowledgement channel (control side only).
	def  *Ingester
	acks chan struct{}

	ctx     context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	started bool
	stopped bool
}

// NewNode builds the tenants (protocol factories run here, on the caller's
// goroutine) and assigns them round-robin to cfg.Shards event loops.
func NewNode(cfg Config, specs []TenantSpec) (*Node, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("runtime: need at least one tenant")
	}
	labels := make([]int64, len(specs))
	for i := range labels {
		labels[i] = int64(i)
	}
	return NewNodeLabeled(cfg, specs, labels)
}

// NewNodeLabeled builds a node whose tenants carry explicit seed labels
// instead of their slot indexes, and — unlike NewNode — may start empty.
// Both are cluster needs: a placement layer hosts tenant g on whichever
// member owns it, and tenant g's randomness must derive from its global
// admission label g (so answers cannot depend on placement), while a fresh
// member admitted for scale-out starts with no tenants at all and receives
// them through AddTenantLabeled or ImportTenant. Labels must be distinct
// and non-negative; the node's admission counter resumes after the largest
// one.
func NewNodeLabeled(cfg Config, specs []TenantSpec, labels []int64) (*Node, error) {
	if len(labels) != len(specs) {
		return nil, fmt.Errorf("runtime: %d specs but %d seed labels", len(specs), len(labels))
	}
	n := &Node{cfg: cfg}
	shards := cfg.shards()
	seen := make(map[int64]bool, len(labels))
	for i, spec := range specs {
		if labels[i] < 0 {
			return nil, fmt.Errorf("runtime: tenant %d seed label %d is negative", i, labels[i])
		}
		if seen[labels[i]] {
			return nil, fmt.Errorf("runtime: duplicate seed label %d", labels[i])
		}
		seen[labels[i]] = true
		t, err := n.buildTenant(spec, i, labels[i], true)
		if err != nil {
			return nil, fmt.Errorf("runtime: tenant %d %w", i, err)
		}
		n.tenants = append(n.tenants, t)
		if labels[i] >= n.nextSeedID {
			n.nextSeedID = labels[i] + 1
		}
	}
	n.initShards(shards)
	return n, nil
}

// buildTenant constructs one tenant for slot ti with the given seed label:
// serving backend, protocol(s) (the factories run on the caller's
// goroutine), shard pinning. For a multi-query spec, withQueries controls
// whether the spec's queries are built too (NewNode/AddTenant) or left for
// the snapshot decoder to rebuild slot by slot (RestoreNode).
func (n *Node) buildTenant(spec TenantSpec, ti int, seedID int64, withQueries bool) (*tenant, error) {
	seed := sim.DeriveSeed(n.cfg.Seed, tenantSeedStream, seedID)
	b, err := n.buildBackend(spec, seed, seedID, withQueries)
	if err != nil {
		return nil, err
	}
	b.SetUplinkLoss(spec.UplinkLoss, seed)
	name := spec.Name
	if name == "" {
		name = fmt.Sprintf("tenant-%d", ti)
	}
	return &tenant{name: name, backend: b, shard: ti % n.cfg.shards(), seedID: seedID,
		planar: b.kind() == tenantKindSpatial}, nil
}

// buildBackend validates spec and builds the backend it describes; seed is
// the tenant's own, derived from its seed label. The single-protocol kinds
// share one construction; which of them a spec means is decided by which
// initial-value field it fills.
func (n *Node) buildBackend(spec TenantSpec, seed, seedID int64, withQueries bool) (backend, error) {
	if len(spec.SpatialInitial) > 0 {
		if spec.NewProtocol != nil || len(spec.Queries) > 0 || len(spec.Initial) > 0 {
			return nil, fmt.Errorf("mixes spatial and 1-D configuration")
		}
		if spec.NewSpatial == nil {
			return nil, fmt.Errorf("has no spatial protocol factory")
		}
		if err := checkInitial(spec.SpatialInitial); err != nil {
			return nil, err
		}
		return &planar{newHosted(spec.SpatialInitial, spec.NewSpatial, seed)}, nil
	}
	if spec.NewSpatial != nil {
		return nil, fmt.Errorf("sets NewSpatial without SpatialInitial")
	}
	if len(spec.Initial) == 0 {
		return nil, fmt.Errorf("has an empty stream partition")
	}
	if err := checkInitial(spec.Initial); err != nil {
		return nil, err
	}
	if len(spec.Queries) == 0 {
		if spec.NewProtocol == nil {
			return nil, fmt.Errorf("has no protocol factory")
		}
		return &scalar{newHosted(spec.Initial, spec.NewProtocol, seed)}, nil
	}
	if spec.NewProtocol != nil {
		return nil, fmt.Errorf("sets both NewProtocol and Queries")
	}
	for qi, qs := range spec.Queries {
		if qs.NewProtocol == nil {
			return nil, fmt.Errorf("query %d has no protocol factory", qi)
		}
	}
	nodeSeed := n.cfg.Seed
	m := &multi{
		Composite: server.NewComposite(spec.Initial),
		querySeed: func(qid int64) int64 {
			return sim.DeriveSeed(nodeSeed, tenantSeedStream, seedID, querySeedStream, qid)
		},
	}
	if withQueries {
		for qi, qs := range spec.Queries {
			m.addQuery(qs, int64(qi))
		}
		m.nextQuerySeed = int64(len(spec.Queries))
	}
	return m, nil
}

// checkInitial refuses a NaN initial value: it would reach the sources and,
// through the protocols' t0 probe fan-out, the ranking kernel, where it is
// a panic, not an error.
func checkInitial[V comparable](initial []V) error {
	for s, v := range initial {
		if v != v {
			return fmt.Errorf("initial value for stream %d is NaN", s)
		}
	}
	return nil
}

// initShards sets up the shard mailboxes, publishes the initial routing
// table and builds the default ingest handle.
func (n *Node) initShards(shards int) {
	n.shards = make([]mailbox, shards)
	n.acks = make(chan struct{}, shards)
	for s := range n.shards {
		n.shards[s].init(n.cfg.queue())
	}
	n.publishTable()
	n.def = n.NewIngester()
}

// NumTenants returns the tenant slot count, including evicted slots (slot
// ids stay stable for the node's lifetime; see Alive).
func (n *Node) NumTenants() int { return len(n.tenants) }

// Alive reports whether tenant slot ti currently hosts a tenant.
func (n *Node) Alive(ti int) bool {
	return ti >= 0 && ti < len(n.tenants) && n.tenants[ti] != nil
}

// Shards returns the event-loop count.
func (n *Node) Shards() int { return len(n.shards) }

// StreamCount returns the size of tenant ti's stream partition — the n
// protocol parameters are validated against when a query is admitted onto
// an already-running tenant (netserve's OpAddQuery path) — or 0 when slot
// ti hosts no tenant.
func (n *Node) StreamCount(ti int) int {
	if !n.Alive(ti) {
		return 0
	}
	return n.tenants[ti].N()
}

// Start launches the shard loops. Each loop first runs the initialization
// phase of every tenant pinned to it (so t0 setup parallelizes across
// shards), then consumes routed batches until the context is cancelled or
// Stop is called. Cancelling ctx stops the node the way cancelling
// experiment.RunCells stops the figure engine: in-flight batches finish,
// queued ones are dropped, and Ingest starts refusing work.
func (n *Node) Start(ctx context.Context) error {
	n.ingestMu.Lock()
	defer n.ingestMu.Unlock()
	if n.started {
		return fmt.Errorf("runtime: node already started")
	}
	n.started = true
	n.ctx, n.cancel = context.WithCancel(ctx)
	// The loops and blocked ingesters wait on condition variables, which a
	// context cannot interrupt: cancellation closes the mailboxes instead.
	// Stop always cancels, so its wg.Wait covers the hook as well.
	n.wg.Add(1)
	context.AfterFunc(n.ctx, func() {
		defer n.wg.Done()
		for s := range n.shards {
			n.shards[s].close()
		}
	})
	for s := range n.shards {
		owned := make([]*tenant, 0, (len(n.tenants)+len(n.shards)-1)/len(n.shards))
		for _, t := range n.tenants {
			if t != nil && t.shard == s && !t.initialized {
				owned = append(owned, t)
			}
		}
		n.wg.Add(1)
		go n.loop(&n.shards[s], owned)
	}
	for _, t := range n.tenants {
		if t != nil {
			t.initialized = true
		}
	}
	return nil
}

// loop is one shard's event loop: initialize owned tenants, then take
// whatever the mailbox holds, apply it in posting order and come back for
// more — one lock round trip per swap, however many batches it carried.
func (n *Node) loop(sh *mailbox, owned []*tenant) {
	defer n.wg.Done()
	for _, t := range owned {
		// Checked between tenants so cancellation interrupts t0 setup too —
		// with many tenants the initialization phase is O(tenants × n) and
		// Stop would otherwise block on it.
		if n.ctx.Err() != nil {
			return
		}
		n.guard(t, t.Initialize)
	}
	var l load
	for sh.swap(&l) {
		for i, yi := 0, 0; i < len(l.recs); {
			i, yi = n.apply(&l.packed, i, yi)
		}
		sh.applied.Add(uint64(l.batches))
		for _, c := range l.ctl {
			if c.init != nil {
				// A live admission (tenant or query): run its t0 phase here,
				// on the owning shard loop, exactly where NewNode tenants run
				// theirs.
				n.guard(c.owner, c.init)
			}
			if c.ack != nil {
				c.ack <- struct{}{}
			}
		}
		clear(l.ctl) // drop the init closures
	}
}

// apply delivers p.recs[i:], whose planar Ys start at p.ys[yi], in posting
// order, skipping the records of quarantined tenants, and returns the cursor
// at the end. One deferred recover covers the whole run: if a tenant panics,
// apply quarantines it and returns the cursor just past the faulting record
// instead, so the loop resumes there with the Ys still aligned.
func (n *Node) apply(p *packed, i, yi int) (next, nextY int) {
	ys := p.ys[yi:]
	defer func() {
		if v := recover(); v != nil {
			n.quarantine(n.tenants[p.recs[i].tenant], v)
			next, nextY = i+1, len(p.ys)-len(ys)
		}
	}()
	for ; i < len(p.recs); i++ {
		r := p.recs[i]
		t := n.tenants[r.tenant]
		var y float64
		if t.planar {
			y, ys = ys[0], ys[1:]
		}
		if t.fault != "" {
			continue
		}
		t.Deliver(stream.ID(r.stream), r.value, y)
		t.events++
	}
	return i, len(p.ys) - len(ys)
}

// guard runs fn, a t0 phase of tenant t, on t's shard loop, quarantining t
// if it panics.
func (n *Node) guard(t *tenant, fn func()) {
	defer func() {
		if v := recover(); v != nil {
			n.quarantine(t, v)
		}
	}()
	fn()
}

// quarantine records the panic v on tenant t and republishes the routing
// table with t's record refusing its events. It runs on t's shard loop,
// which may race only other loops' quarantines for the table (the control
// side publishes while every loop is parked behind a barrier), so it
// replaces the table by compare-and-swap. The fault is written before the
// table is published, so an ingester that sees the refusing record reads it.
func (n *Node) quarantine(t *tenant, v any) {
	t.fault = fmt.Sprint("panic: ", v)
	ti := slices.Index(n.tenants, t)
	for {
		old := n.table.Load()
		recs := slices.Clone(old.recs)
		recs[ti] = route(t)
		if n.table.CompareAndSwap(old, &routingTable{recs: recs}) {
			return
		}
	}
}

// quarantined returns the error a control call on quarantined tenant ti
// returns, or nil for a healthy tenant.
func quarantined(ti int, t *tenant) error {
	if t.fault == "" {
		return nil
	}
	return fmt.Errorf("runtime: tenant %d (%s) is quarantined: %s", ti, t.name, t.fault)
}

// Ingest routes a batch of events to the shard loops through the node's
// default ingest handle. Events are grouped by owning shard with their
// relative order preserved; a tenant lives on exactly one shard, so
// per-tenant order is exactly the arrival order no matter how many shards
// the node runs. One Ingest costs at most one mailbox append per shard —
// callers feeding high-rate streams should batch accordingly. Events are
// copied into the shard mailboxes (allocation-free once warm), so the
// caller may reuse its slice immediately; while a shard's mailbox is at
// capacity Ingest blocks until that shard's loop swaps it out.
//
// Like any single Ingester, the default handle serves one goroutine at a
// time; concurrent callers each take their own handle from NewIngester.
func (n *Node) Ingest(events []Event) error {
	return n.def.Ingest(events)
}

// PendingEvents returns the deepest per-shard backlog: the largest number
// of routed events waiting in any shard's mailbox (those the loop has taken
// and is applying are not counted). The network serving plane reads it as
// its admission watermark — when the deepest shard is a near-full mailbox
// behind, accepting more ingest would only move the queueing from the
// node's bounded mailboxes into unbounded server memory, so netserve sheds
// or stalls instead. The figure is a racy snapshot (shard loops drain
// concurrently), which is exactly what a watermark wants: erring a batch
// late never breaks correctness, only shifts when backpressure engages.
func (n *Node) PendingEvents() int {
	var deepest int64
	for s := range n.shards {
		deepest = max(deepest, n.shards[s].depth.Load())
	}
	return int(deepest)
}

// QueueCap returns the per-shard mailbox capacity in events — the
// denominator PendingEvents is judged against when picking a watermark.
func (n *Node) QueueCap() int { return n.cfg.queue() }

// Drain blocks until every shard has applied all batches ingested so far
// (including its initialization work). The barrier has two phases: first it
// quiesces the ingesters (the ingestMu write side waits out every in-flight
// Ingest batch and holds new ones back), then it flushes the shard loops
// (an acknowledged marker batch per shard). After Drain returns, tenant
// state read through Report is consistent and race-free until the next
// Ingest.
func (n *Node) Drain() error {
	n.ingestMu.Lock()
	defer n.ingestMu.Unlock()
	return n.drainLocked()
}

// drainLocked runs the shard-flush phase of the barrier. Callers hold the
// ingestMu write side, so no ingester can route between the markers and the
// acknowledgements — the barrier observes exactly the events routed before
// it. The write lock always becomes available: an in-flight ingester blocked
// on a full mailbox is waiting on a shard loop, and shard loops always make
// progress (their ack sends are bounded by the barrier protocol).
func (n *Node) drainLocked() error {
	if !n.started || n.stopped {
		return fmt.Errorf("runtime: node not running")
	}
	// Refuse after cancellation up front: a cancelled drain can leave
	// unclaimed acknowledgements behind, and the reusable ack channel must
	// never be read again once that has happened.
	if err := n.ctx.Err(); err != nil {
		return err
	}
	for s := range n.shards {
		n.shards[s].postControl(control{ack: n.acks})
	}
	for range n.shards {
		if err := n.awaitAck(); err != nil {
			return err
		}
	}
	return nil
}

// awaitAck waits for one shard loop's acknowledgement, or for the node to
// shut down.
func (n *Node) awaitAck() error {
	select {
	case <-n.acks:
		return nil
	case <-n.ctx.Done():
		return n.ctx.Err()
	}
}

// Stop shuts the shard loops down and waits for them to exit. Events still
// queued are dropped (call Drain first for a graceful shutdown), and an
// Ingest blocked on a full mailbox returns the context's error. Stop is
// idempotent. Cancelling the Start context makes the loops wind down on
// their own, but only Stop waits for that to finish — call it before
// reading tenant state even after an external cancellation.
func (n *Node) Stop() {
	n.ingestMu.RLock()
	running := n.started && !n.stopped
	n.ingestMu.RUnlock()
	if !running {
		return
	}
	// Cancel first: it releases every ingester blocked on a full mailbox,
	// so the write lock below is not held up behind a slow shard.
	n.cancel()
	n.ingestMu.Lock()
	n.stopped = true
	n.ingestMu.Unlock()
	n.wg.Wait()
}

// AddTenant admits a tenant onto the live node and returns its slot id. The
// admission flows through the same machinery as events: a full drain
// barrier quiesces the shard loops (publishing the grown tenant table to
// them through the mailboxes — no new lock touches the ingest hot path), the
// protocol factory runs on the caller's goroutine, and the tenant's t0
// initialization runs on its owning shard loop. The protocol seed derives
// from the node seed and a monotonic admission counter, so a tenant's
// randomness is independent of shard count and of when its neighbors come
// and go. Like all lifecycle calls, AddTenant must be called from the single
// control-side goroutine; its barrier quiesces concurrent ingesters first.
func (n *Node) AddTenant(spec TenantSpec) (int, error) {
	return n.AddTenantLabeled(spec, n.nextSeedID)
}

// AddTenantLabeled is AddTenant with an explicit seed label: the admission
// runs through the same drain barrier and shard-loop t0 machinery, but the
// tenant's randomness derives from the given label instead of the node's
// own admission counter. A cluster placement layer uses it to give tenant g
// the label g on whichever member hosts it, so a tenant's trajectory is
// bit-identical no matter where placement put it. The label must be
// non-negative and not in use by a live tenant; the node's admission
// counter resumes after it, so labels are still never reused.
func (n *Node) AddTenantLabeled(spec TenantSpec, label int64) (int, error) {
	n.ingestMu.Lock()
	defer n.ingestMu.Unlock()
	if !n.started || n.stopped {
		return 0, fmt.Errorf("runtime: node not running")
	}
	if label < 0 {
		return 0, fmt.Errorf("runtime: seed label %d is negative", label)
	}
	for _, t := range n.tenants {
		if t != nil && t.seedID == label {
			return 0, fmt.Errorf("runtime: seed label %d already hosts tenant %q", label, t.name)
		}
	}
	if err := n.drainLocked(); err != nil {
		return 0, err
	}
	ti := len(n.tenants)
	t, err := n.buildTenant(spec, ti, label, true)
	if err != nil {
		return 0, fmt.Errorf("runtime: tenant %d %w", ti, err)
	}
	if label >= n.nextSeedID {
		n.nextSeedID = label + 1
	}
	n.tenants = append(n.tenants, t)
	n.publishTable()
	if err := n.runOnShard(t, t.Initialize); err != nil {
		return 0, err
	}
	t.initialized = true
	return ti, nil
}

// runOnShard executes fn, a t0 phase of tenant t, on t's shard loop and
// waits for its acknowledgement — the lifecycle path a t0 initialization
// takes to run exactly where the tenant's events will be applied. If fn
// panics, t is quarantined and the admission still completes: its slot
// stays, and Report, ShardStats and the next Ingest show the quarantine.
func (n *Node) runOnShard(t *tenant, fn func()) error {
	n.shards[t.shard].postControl(control{init: fn, owner: t, ack: n.acks})
	return n.awaitAck()
}

// AddQuery admits a standing query onto live multi-query tenant ti and
// returns its query slot. Like AddTenant, the admission flows through the
// runtime's own machinery: a full drain barrier quiesces the shard loops,
// the protocol factory runs on the caller's goroutine, and the query's t0
// initialization — its probe fan-out and the installation of its composite
// filter entries, charged to the tenant's Init bucket — runs on the owning
// shard loop. The protocol seed derives from the node seed, the tenant's
// admission label and a per-tenant monotonic query-admission counter, so a
// query's randomness is independent of shard count and of when its sibling
// queries come and go. Must be called from the single control-side
// goroutine.
func (n *Node) AddQuery(ti int, spec QuerySpec) (int, error) {
	n.ingestMu.Lock()
	defer n.ingestMu.Unlock()
	if !n.started || n.stopped {
		return 0, fmt.Errorf("runtime: node not running")
	}
	if ti < 0 || ti >= len(n.tenants) {
		return 0, fmt.Errorf("runtime: no tenant %d", ti)
	}
	t := n.tenants[ti]
	if t == nil {
		return 0, fmt.Errorf("runtime: tenant %d was removed", ti)
	}
	m, ok := t.backend.(*multi)
	if !ok {
		return 0, fmt.Errorf("runtime: tenant %d is single-query; build it with Queries", ti)
	}
	if spec.NewProtocol == nil {
		return 0, fmt.Errorf("runtime: query has no protocol factory")
	}
	if err := n.drainLocked(); err != nil {
		return 0, err
	}
	// Read behind the barrier: the loop that quarantines t writes fault.
	if err := quarantined(ti, t); err != nil {
		return 0, err
	}
	qi := m.addQuery(spec, m.nextQuerySeed)
	m.nextQuerySeed++
	if err := n.runOnShard(t, func() { m.InitializeQuery(qi) }); err != nil {
		return 0, err
	}
	return qi, nil
}

// RemoveQuery evicts query slot qi from live multi-query tenant ti. A drain
// barrier first applies every event ingested so far (so sibling answers and
// the shared counter are exact), then the slot is cleared on the quiescent
// fabric: its filter entries become inert, Report shows the slot removed,
// and slot ids are never reused. Must be called from the single control-side
// goroutine.
func (n *Node) RemoveQuery(ti, qi int) error {
	n.ingestMu.Lock()
	defer n.ingestMu.Unlock()
	if !n.started || n.stopped {
		return fmt.Errorf("runtime: node not running")
	}
	if ti < 0 || ti >= len(n.tenants) {
		return fmt.Errorf("runtime: no tenant %d", ti)
	}
	t := n.tenants[ti]
	if t == nil {
		return fmt.Errorf("runtime: tenant %d was removed", ti)
	}
	m, ok := t.backend.(*multi)
	if !ok {
		return fmt.Errorf("runtime: tenant %d is single-query; build it with Queries", ti)
	}
	if err := n.drainLocked(); err != nil {
		return err
	}
	if err := quarantined(ti, t); err != nil {
		return err
	}
	return m.RemoveQuery(qi)
}

// RemoveTenant evicts tenant ti from the live node. A drain barrier first
// applies every event ingested for it (so its final answer and counters are
// exact), then the slot is cleared; subsequent events for the slot are
// rejected by Ingest and Report shows the slot removed. Slot ids are never
// reused. Like all lifecycle calls, RemoveTenant must be called from the
// single control-side goroutine; its barrier quiesces concurrent ingesters
// first.
func (n *Node) RemoveTenant(ti int) error {
	n.ingestMu.Lock()
	defer n.ingestMu.Unlock()
	if !n.started || n.stopped {
		return fmt.Errorf("runtime: node not running")
	}
	if ti < 0 || ti >= len(n.tenants) {
		return fmt.Errorf("runtime: no tenant %d", ti)
	}
	if n.tenants[ti] == nil {
		return fmt.Errorf("runtime: tenant %d already removed", ti)
	}
	if err := n.drainLocked(); err != nil {
		return err
	}
	n.tenants[ti] = nil
	n.publishTable()
	return nil
}
