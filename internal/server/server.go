// Package server implements the central stream processor of the paper's
// Figure 3: it is the stream sources' uplink, owns the server-side value
// table and message accounting, and hosts a Protocol (the query processing
// unit plus constraint assignment unit).
//
// All communication primitives the protocols may use — probing a stream,
// conditionally probing, installing a filter, broadcasting a bound — live
// here so that every message is counted exactly once and protocols cannot
// accidentally peek at ground truth.
package server

import (
	"fmt"

	"adaptivefilters/internal/comm"
	"adaptivefilters/internal/filter"
	"adaptivefilters/internal/stream"
)

// HostOf is the narrow server-side surface a protocol programs against: the
// communication primitives (probes, installs), the server value table and
// the computation metric, over stream values of type V and filter
// constraints of type C. A *ClusterOf is the canonical implementation, but
// anything that can answer probes, deploy filters and account messages — a
// per-query view inside a Composite, a mock in tests — can host a protocol.
// Every message a protocol can cause flows through this interface and is
// charged by the rules in charges.go, so accounting stays exact no matter
// who hosts it or in how many dimensions.
type HostOf[V, C any] interface {
	// N returns the number of streams.
	N() int
	// Probe requests stream id's current value (one Probe plus one
	// ProbeReply message) and refreshes the server table.
	Probe(id stream.ID) V
	// ProbeIf asks stream id to reply only when its value lies inside cons;
	// the probe is always counted, the reply only on a hit.
	ProbeIf(id stream.ID, cons C) (V, bool)
	// ProbeAllInto probes every stream (2n messages) and returns the
	// refreshed table, written into dst when its capacity suffices
	// (allocating only otherwise), so periodic re-initializations inside the
	// ingest hot path can reuse one buffer.
	ProbeAllInto(dst []V) []V
	// ProbeBatch probes every listed stream (2·len(ids) messages, counted in
	// one batched counter update) and refreshes the table; callers read the
	// fresh values back through Table. It replaces per-stream Probe fan-out
	// loops on the maintenance path.
	ProbeBatch(ids []stream.ID)
	// Install deploys a filter constraint to one stream (one Install
	// message). expectInside is the side of the constraint the server's
	// table implies.
	Install(id stream.ID, cons C, expectInside bool)
	// InstallBatch deploys the same constraint to every listed stream
	// (len(ids) Install messages, counted in one batched counter update and
	// never broadcast-priced); each stream expects the side cons puts its
	// table value on. It is the batch twin of Install, as ProbeBatch is of
	// Probe.
	InstallBatch(ids []stream.ID, cons C)
	// InstallAllExcept deploys the same constraint to every stream not
	// listed in skip (n − len(skip) Install messages; the listed ids must
	// be strictly ascending; a nil skip deploys to every stream), each
	// expecting the side cons puts its table value on; a listed stream
	// keeps its filter. A composite files cons once, as the query's column
	// default.
	InstallAllExcept(skip []stream.ID, cons C)
	// Table returns the server's belief about stream id's value: zero until
	// the stream is first heard from.
	Table(id stream.ID) V
	// TableValues copies the server value table into dst, growing it only
	// when it is too short, and returns the n values (the ProbeAllInto
	// idiom: a rank pass reuses one buffer).
	TableValues(dst []V) []V
	// AddServerOps records server-side ranking work (computation metric).
	AddServerOps(n int)
}

// ProtocolOf is a filter-bound assignment protocol hosted by a ClusterOf
// over values of type V: one of the paper's RTP, ZT-NRP, FT-NRP, ZT-RP,
// FT-RP or the no-filter baselines in 1-D, and RTP or FT-RP around a
// planar center in the plane.
type ProtocolOf[V any] interface {
	// Name identifies the protocol in reports.
	Name() string
	// Initialize performs the time-t0 Initialization Phase: probe streams,
	// compute the initial answer, deploy filter constraints.
	Initialize()
	// HandleUpdate is the Maintenance Phase entry point: the server received
	// an update (filter violation or unfiltered report) from stream id with
	// value v.
	HandleUpdate(id stream.ID, v V)
	// Answer returns the current answer set A(t) as stream IDs, in
	// unspecified order.
	Answer() []stream.ID
}

// The paper's 1-D model and its §7 planar extension are the two
// instantiations in use.
type (
	Host            = HostOf[float64, filter.Constraint]
	Protocol        = ProtocolOf[float64]
	Cluster         = ClusterOf[float64, filter.Constraint]
	SpatialHost     = HostOf[filter.Point, filter.Region]
	SpatialProtocol = ProtocolOf[filter.Point]
	SpatialCluster  = ClusterOf[filter.Point, filter.Region]
)

type pendingUpdate[V any] struct {
	id stream.ID
	v  V
}

// reportQueue is the FIFO of reports awaiting protocol handling that both
// hosts drain: a report raised while a handler runs (an install's mismatch
// report) is appended behind head and handled after that handler returns,
// in order. The storage is reused, so the steady-state delivery path never
// reallocates it.
type reportQueue[R any] struct {
	pending  []R
	head     int
	draining bool
}

// reportHandler hands one queued report to the protocol it is for.
type reportHandler[R any] interface{ handle(R) }

func (q *reportQueue[R]) push(r R) { q.pending = append(q.pending, r) }

// drain hands every queued report to h, one at a time. A drain started
// from inside a handler returns at once: the running loop reaches its
// reports.
func (q *reportQueue[R]) drain(h reportHandler[R]) {
	if q.draining || q.head == len(q.pending) {
		return
	}
	q.draining = true
	defer func() { q.draining = false }()
	for q.head < len(q.pending) {
		r := q.pending[q.head]
		q.head++
		h.handle(r)
	}
	q.pending = q.pending[:0]
	q.head = 0
}

// ClusterOf wires n stream sources to a hosted protocol and accounts every
// message. It is the canonical HostOf implementation.
type ClusterOf[V comparable, C filter.Of[V, C]] struct {
	uplink
	sources stream.Sources[V, C]
	proto   ProtocolOf[V]
	// recv is receive, bound once so the batch installs hand their
	// mismatch reports to it without allocating.
	recv func(stream.ID, V)

	// table is the server's last known value per stream (V̂): updated by
	// reports and probes.
	table []V

	ctr comm.Counter
	// reports holds the updates receive queued for the protocol.
	reports reportQueue[pendingUpdate[V]]
}

var (
	_ Host        = (*Cluster)(nil)
	_ SpatialHost = (*SpatialCluster)(nil)
)

// NewCluster creates a 1-D cluster over the given initial true stream
// values (see NewClusterOf).
func NewCluster(initial []float64) *Cluster { return NewClusterOf[float64, filter.Constraint](initial) }

// NewSpatialCluster creates a planar cluster over the given initial true
// stream locations (see NewClusterOf).
func NewSpatialCluster(initial []filter.Point) *SpatialCluster {
	return NewClusterOf[filter.Point, filter.Region](initial)
}

// NewClusterOf creates a cluster over the given initial true stream values.
// The server table starts unknown: protocols learn values by probing. A NaN
// initial value is a caller bug and panics — runtime admission validates
// them before construction.
func NewClusterOf[V comparable, C filter.Of[V, C]](initial []V) *ClusterOf[V, C] {
	c := &ClusterOf[V, C]{
		sources: stream.NewSources[V, C](initial),
		table:   make([]V, len(initial)),
	}
	c.recv = c.receive
	return c
}

// N returns the number of streams.
func (c *ClusterOf[V, C]) N() int { return c.sources.Len() }

// SetProtocol installs the hosted protocol. It must be called exactly once
// before Initialize.
func (c *ClusterOf[V, C]) SetProtocol(p ProtocolOf[V]) {
	if c.proto != nil {
		panic("server: protocol already set")
	}
	c.proto = p
}

// Protocol returns the hosted protocol.
func (c *ClusterOf[V, C]) Protocol() ProtocolOf[V] { return c.proto }

// Counter exposes the message counter (read-mostly; the experiment harness
// switches phases through it).
func (c *ClusterOf[V, C]) Counter() *comm.Counter { return &c.ctr }

// Initialize runs the protocol's initialization phase in the Init accounting
// bucket and then switches to Maintenance.
func (c *ClusterOf[V, C]) Initialize() {
	if c.proto == nil {
		panic("server: Initialize without protocol")
	}
	c.ctr.SetPhase(comm.Init)
	c.proto.Initialize()
	c.reports.drain(c)
	c.ctr.SetPhase(comm.Maintenance)
}

// receive carries a report a source owes (from Set or an install) over the
// uplink: it charges the update and, when the server hears it, refreshes
// the table and queues the update for protocol handling.
func (c *ClusterOf[V, C]) receive(id stream.ID, v V) {
	if !c.chargeUpdate(&c.ctr) {
		return
	}
	c.learn(id, v)
	c.reports.push(pendingUpdate[V]{id, v})
}

// learn records v as stream id's value in the server table.
func (c *ClusterOf[V, C]) learn(id stream.ID, v V) { c.table[id] = v }

// Deliver applies a workload value change to stream id and, when the source
// reported it, drains all resulting protocol work (including cascaded
// install-mismatch reports). A filtered-out update queues nothing, so there
// is nothing to drain.
func (c *ClusterOf[V, C]) Deliver(id stream.ID, v V) {
	if c.sources.Set(id, v) {
		c.receive(id, v)
		c.reports.drain(c)
	}
}

// handle feeds one queued update to the protocol.
func (c *ClusterOf[V, C]) handle(u pendingUpdate[V]) { c.proto.HandleUpdate(u.id, u.v) }

// --- primitives available to protocols -------------------------------------

// Probe requests the current value of stream id (one Probe plus one
// ProbeReply message) and refreshes the server table.
func (c *ClusterOf[V, C]) Probe(id stream.ID) V {
	chargeProbes(&c.ctr, 1)
	v := c.sources.Value(id)
	c.learn(id, v)
	return v
}

// ProbeAllInto probes every stream (2n messages) and returns a copy of the
// refreshed table, the paper's "request all streams to send their values"
// initialization step. The copy is written into dst when cap(dst) >= n;
// protocols that re-initialize on the maintenance path pass a reusable
// buffer so the fan-out allocates nothing. It is two copies of the value
// column, into the table and into dst.
func (c *ClusterOf[V, C]) ProbeAllInto(dst []V) []V {
	n := c.N()
	if cap(dst) < n {
		dst = make([]V, n)
	}
	dst = dst[:n]
	chargeProbes(&c.ctr, uint64(n))
	copy(c.table, c.sources.Values())
	copy(dst, c.table)
	return dst
}

// ProbeBatch probes every listed stream, refreshing the table; the 2·len(ids)
// messages land on the counter in one batched update per kind.
func (c *ClusterOf[V, C]) ProbeBatch(ids []stream.ID) {
	if len(ids) == 0 {
		return
	}
	chargeProbes(&c.ctr, uint64(len(ids)))
	for _, id := range ids {
		c.learn(id, c.sources.Value(id))
	}
}

// ProbeIf asks stream id to reply only when its current value lies inside
// cons (RTP step 4: "the server then queries the clients if their values are
// within the expanded region"). The probe message is always counted; the
// reply — and the table refresh — happen only on a hit.
func (c *ClusterOf[V, C]) ProbeIf(id stream.ID, cons C) (V, bool) {
	chargeProbeRequest(&c.ctr)
	v := c.sources.Value(id) // the source evaluates the predicate locally
	if !cons.Contains(v) {
		var none V
		return none, false
	}
	chargeProbeReply(&c.ctr)
	c.learn(id, v)
	return v, true
}

// Install deploys a filter constraint to one stream (one Install message).
// expectInside is the side of the constraint the server's table implies; on
// mismatch the source reports immediately (counted as an update and queued).
func (c *ClusterOf[V, C]) Install(id stream.ID, cons C, expectInside bool) {
	chargeInstalls(&c.ctr, 1)
	if c.sources.Install(id, cons, expectInside) {
		c.receive(id, c.sources.Value(id))
	}
	c.reports.drain(c) // no-op when already inside a delivery cycle
}

// InstallBatch deploys cons to every listed stream, classifying it once and
// deriving each stream's expected side from the server table. It costs
// len(ids) Install messages. The ids must be distinct (Sources.InstallEach
// decides a chunk's sides before any of its reports reach the table).
func (c *ClusterOf[V, C]) InstallBatch(ids []stream.ID, cons C) {
	if len(ids) == 0 {
		return
	}
	chargeInstalls(&c.ctr, uint64(len(ids)))
	c.sources.InstallEach(ids, c.table, cons, c.recv)
	c.reports.drain(c) // no-op when already inside a delivery cycle
}

// InstallAllExcept deploys cons to every stream not listed in skip, which
// must be strictly ascending, deriving each stream's expected side from
// the server table. It costs n − len(skip) Install messages.
func (c *ClusterOf[V, C]) InstallAllExcept(skip []stream.ID, cons C) {
	chargeInstalls(&c.ctr, uint64(c.N()-len(skip)))
	c.sources.InstallAllExcept(skip, c.table, cons, c.recv)
	c.reports.drain(c) // no-op when already inside a delivery cycle
}

// Table returns the server's current belief about stream id's value: zero
// until the stream is first heard from.
func (c *ClusterOf[V, C]) Table(id stream.ID) V { return c.table[id] }

// TableValues copies the server value table into dst, allocating only when
// cap(dst) < n, and returns it. Entries for never-heard streams are zero.
func (c *ClusterOf[V, C]) TableValues(dst []V) []V {
	return append(dst[:0], c.table...)
}

// Constraint returns the filter currently installed at stream id (the server
// knows what it installed; this does not cost a message).
func (c *ClusterOf[V, C]) Constraint(id stream.ID) C {
	return c.sources.Constraint(id)
}

// AddServerOps records server-side ranking work for the computation metric.
func (c *ClusterOf[V, C]) AddServerOps(n int) { c.ctr.AddServerOps(uint64(n)) }

// --- inspection (oracle / tests only) ---------------------------------------

// TrueValue returns the ground-truth value of stream id. Protocols must not
// call this; it exists for the oracle and tests.
func (c *ClusterOf[V, C]) TrueValue(id stream.ID) V { return c.sources.Value(id) }

// String summarizes the cluster.
func (c *ClusterOf[V, C]) String() string {
	name := "<none>"
	if c.proto != nil {
		name = c.proto.Name()
	}
	return fmt.Sprintf("cluster{n=%d proto=%s %v}", c.N(), name, &c.ctr)
}
