package main

import (
	"bytes"
	"fmt"
	"io"
	goruntime "runtime"
	"slices"
	"time"

	"adaptivefilters/internal/core"
	"adaptivefilters/internal/filter"
	"adaptivefilters/internal/protospec"
	"adaptivefilters/internal/runtime"
	"adaptivefilters/internal/server"
	"adaptivefilters/internal/wire"
)

// The outside-in cost ledger prices each layer by replaying the workload's
// own events against that layer alone, from the innermost out:
//
//	direct host      one goroutine calling Deliver on bare server.Cluster /
//	                 SpatialCluster / Composite hosts, one per tenant, in the
//	                 pool's own interleaved order — protocol + host, with the
//	                 cache behaviour a shard loop serving these tenants has
//	in-process node  the same events through 1 Ingester → 1 shard; minus the
//	                 direct host this is the runtime's share (routing, the
//	                 queue hop, buffer pools, the shard loop)
//	codec            wire.EncodeIngest + DecodeIngestInto over the same batches
//	residual         the workload's own CPU per event minus all of the above:
//	                 socket + netserve + client on the wire surface, the router
//	                 and control rounds on the cluster surface, the second
//	                 shard's fan-out on the node surface (negative when
//	                 splitting the tenants over shards or members leaves each
//	                 core a working set that fits its cache better)
//
// All four are process CPU (user+sys) per event, so they sum to the
// workload's cpu_ns_per_event by construction of the last one; what the
// ledger tests is that the three measured parts leave a plausible residual.

// costRow is one replay's price.
type costRow struct {
	events uint64
	cpu    time.Duration
	wall   time.Duration
	msgs   uint64 // maintenance messages
}

func (r costRow) nsPerEvent() float64 {
	if r.events == 0 {
		return 0
	}
	return float64(r.cpu) / float64(r.events)
}

func (r costRow) msgsPerKevent() float64 {
	if r.events == 0 {
		return 0
	}
	return float64(r.msgs) / float64(r.events) * 1e3
}

func (r *costRow) add(o costRow) {
	r.events += o.events
	r.cpu += o.cpu
	r.wall += o.wall
	r.msgs += o.msgs
}

// host is a bare serving backend for one tenant: what a shard loop calls.
type host struct {
	deliver func(ev runtime.Event)
	maint   func() uint64
	rtp     *core.RTP // set when the tenant's protocol is 1-D RTP
}

// newHost builds tenant t of in on a bare host, as runtime.Node does behind
// its shard loop, and runs its t0 phase.
func newHost(in *inputs, t int, queries []wire.QuerySpec, spec protospec.Spec) (*host, error) {
	const seed = nodeSeed
	switch {
	case len(queries) > 0:
		c := server.NewComposite(in.x0[t])
		for qi, q := range queries {
			build, err := q.Spec.Factory()
			if err != nil {
				return nil, err
			}
			c.AddQuery(q.Name, int64(qi), func(h server.Host) server.Protocol { return build(h, seed+int64(qi)) })
		}
		c.Initialize()
		return &host{
			deliver: func(ev runtime.Event) { c.Deliver(ev.Stream, ev.Value) },
			maint:   func() uint64 { return c.Counter().Maintenance() },
		}, nil
	case spec.Spatial():
		build, err := spec.SpatialFactory()
		if err != nil {
			return nil, err
		}
		c := server.NewSpatialCluster(in.points(t))
		c.SetProtocol(build(c, seed))
		c.Initialize()
		return &host{
			deliver: func(ev runtime.Event) { c.Deliver(ev.Stream, filter.Point{X: ev.Value, Y: ev.Y}) },
			maint:   func() uint64 { return c.Counter().Maintenance() },
		}, nil
	default:
		build, err := spec.Factory()
		if err != nil {
			return nil, err
		}
		c := server.NewCluster(in.x0[t])
		p := build(c, seed)
		c.SetProtocol(p)
		c.Initialize()
		h := &host{
			deliver: func(ev runtime.Event) { c.Deliver(ev.Stream, ev.Value) },
			maint:   func() uint64 { return c.Counter().Maintenance() },
		}
		h.rtp, _ = p.(*core.RTP)
		return h, nil
	}
}

// isolatedPool bounds how much of the pool the per-tenant replays extract
// (they copy a tenant's events out, so the loop touches nothing else).
const isolatedPool = 1 << 20

// tenantEvents extracts tenant t's own events from the head of the forward
// pass and from the tail of the backward pass, which undoes exactly that
// head — so the pair is a cycle of its own.
func tenantEvents(in *inputs, t int) (fwd, bwd []runtime.Event) {
	n := min(len(in.fwd), isolatedPool)
	for _, ev := range in.fwd[:n] {
		if ev.Tenant == t {
			fwd = append(fwd, ev)
		}
	}
	for _, ev := range in.bwd[len(in.bwd)-n:] {
		if ev.Tenant == t {
			bwd = append(bwd, ev)
		}
	}
	return fwd, bwd
}

// replayHost drives whole forward+backward cycles of tenant events through
// h on this goroutine until budget is spent (at least one cycle).
func replayHost(h *host, fwd, bwd []runtime.Event, budget time.Duration) costRow {
	var row costRow
	m0, c0, t0 := h.maint(), cpuNow(), time.Now()
	for row.events == 0 || time.Since(t0) < budget {
		for _, ev := range fwd {
			h.deliver(ev)
		}
		for _, ev := range bwd {
			h.deliver(ev)
		}
		row.events += uint64(len(fwd) + len(bwd))
	}
	row.cpu, row.wall, row.msgs = cpuNow().sub(c0).total(), time.Since(t0), h.maint()-m0
	return row
}

// ledger holds every replay's result.
type ledger struct {
	// kinds prices each tenant kind (and each protocol a composite's queries
	// use, standalone) on a host of its own, fed only its own events: the
	// protocol's cost with a hot cache. direct is the ledger's innermost
	// part: all tenants' hosts fed the pool in its interleaved order.
	kinds  map[string]*costRow
	direct costRow

	rtpEvents, rtpDeploys, rtpReinits uint64
	compositeRTP                      costRow

	inproc         costRow
	inprocIngestNs float64 // time inside Ingester.Ingest per event
	reportMs       float64
	snapshotMs     float64
	snapshotBytes  float64
	restoreMs      float64
	exportBytesP50 float64

	encode, decode costRow
	bytesPerEvent  float64
}

// isolatedHosts replays every tenant on a bare host of its own. Composite
// workloads also get one standalone row per protocol their queries use, on
// the first composite tenant's events: what one such query costs without
// the fabric.
func (l *ledger) isolatedHosts(w workload, in *inputs, budget time.Duration) error {
	l.kinds = make(map[string]*costRow)
	row := func(kind string) *costRow {
		if l.kinds[kind] == nil {
			l.kinds[kind] = &costRow{}
		}
		return l.kinds[kind]
	}
	per := budget / time.Duration(len(in.defs))
	for t, d := range in.defs {
		h, err := newHost(in, t, d.queries, d.spec)
		if err != nil {
			return fmt.Errorf("direct host %s: %w", d.name, err)
		}
		fwd, bwd := tenantEvents(in, t)
		r := replayHost(h, fwd, bwd, per)
		row(d.kind()).add(r)
		if h.rtp != nil && !d.spec.Top {
			l.rtpEvents += r.events
			l.rtpDeploys += h.rtp.Deploys
			l.rtpReinits += h.rtp.Reinits
		}
	}
	t := slices.IndexFunc(in.defs, tenantDef.composite)
	if t < 0 {
		return nil
	}
	d := in.defs[t]
	fwd, bwd := tenantEvents(in, t)
	for _, q := range d.queries {
		kind := tenantDef{spec: q.Spec}.kind()
		if l.kinds[kind] != nil {
			continue
		}
		h, err := newHost(in, t, nil, q.Spec)
		if err != nil {
			return fmt.Errorf("standalone %s: %w", kind, err)
		}
		row(kind).add(replayHost(h, fwd, bwd, 0))
	}
	if w.pricePlusRTP {
		// The same queries plus one RTP: what a single rank query does to a
		// composite tenant (a quarter of the forward pass — it is slow).
		qs := append(slices.Clone(d.queries),
			wire.QuerySpec{Name: "rtp", Spec: protospec.Spec{Protocol: "rtp", K: 20, R: 5, Q: 500}})
		h, err := newHost(in, t, qs, protospec.Spec{})
		if err != nil {
			return fmt.Errorf("composite+rtp: %w", err)
		}
		l.compositeRTP = replayHost(h, fwd[:len(fwd)/4], nil, 0)
	}
	return nil
}

// inProcess replays the pool through 1 Ingester → 1 shard — the
// single-threaded baseline — then prices the control calls on that node.
func (l *ledger) inProcess(in *inputs, batch int, budget time.Duration) error {
	st, err := buildNode(1, in)
	if err != nil {
		return err
	}
	defer st.close()
	var inCall time.Duration
	c0, t0 := cpuNow(), time.Now()
	for l.inproc.events == 0 || time.Since(t0) < budget {
		for _, ev := range [][]runtime.Event{in.fwd, in.bwd} {
			for off := 0; off < len(ev); off += batch {
				b := ev[off:min(off+batch, len(ev))]
				s := time.Now()
				if err := st.ing.Ingest(b); err != nil {
					return err
				}
				inCall += time.Since(s)
			}
			if err := st.node.Drain(); err != nil {
				return err
			}
			l.inproc.events += uint64(len(ev))
		}
	}
	l.inproc.cpu, l.inproc.wall = cpuNow().sub(c0).total(), time.Since(t0)
	l.inprocIngestNs = float64(inCall) / float64(l.inproc.events)

	s := time.Now()
	st.node.Report()
	l.reportMs = time.Since(s).Seconds() * 1e3
	s = time.Now()
	snap, err := st.node.Snapshot()
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	l.snapshotMs, l.snapshotBytes = time.Since(s).Seconds()*1e3, float64(len(snap))
	specs, err := in.runtimeSpecs()
	if err != nil {
		return err
	}
	s = time.Now()
	restored, err := runtime.RestoreNode(runtime.Config{Shards: 1, Seed: nodeSeed}, specs, snap)
	if err != nil {
		return fmt.Errorf("restore: %w", err)
	}
	l.restoreMs = time.Since(s).Seconds() * 1e3
	restored.Stop()
	var sizes []float64
	for t := range in.defs {
		rec, err := st.node.ExportTenant(t)
		if err != nil {
			return fmt.Errorf("export tenant %d: %w", t, err)
		}
		sizes = append(sizes, float64(len(rec)))
	}
	l.exportBytesP50 = median(sizes)
	return nil
}

// codec replays the forward pass's batches through the ingest frame codec
// alone: encode into a discarding writer, then decode the framed bytes.
func (l *ledger) codec(in *inputs, batch int, budget time.Duration) error {
	encodeAll := func(fw *wire.FrameWriter) error {
		for off := 0; off < len(in.fwd); off += batch {
			wire.EncodeIngest(fw.Begin(), uint64(off), in.fwd[off:min(off+batch, len(in.fwd))])
			if err := fw.End(); err != nil {
				return err
			}
		}
		return fw.Flush()
	}
	var framed bytes.Buffer
	if err := encodeAll(wire.NewFrameWriter(&framed, 0)); err != nil {
		return err
	}
	l.bytesPerEvent = float64(framed.Len()) / float64(len(in.fwd))

	fw := wire.NewFrameWriter(io.Discard, 0)
	c0, t0 := cpuNow(), time.Now()
	for l.encode.events == 0 || time.Since(t0) < budget/2 {
		if err := encodeAll(fw); err != nil {
			return err
		}
		l.encode.events += uint64(len(in.fwd))
	}
	l.encode.cpu, l.encode.wall = cpuNow().sub(c0).total(), time.Since(t0)

	dst := make([]runtime.Event, 0, batch)
	c0, t0 = cpuNow(), time.Now()
	for l.decode.events == 0 || time.Since(t0) < budget/2 {
		fr := wire.NewFrameReader(bytes.NewReader(framed.Bytes()), 0)
		for {
			r, err := fr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return err
			}
			if _, err := wire.DecodeHeader(r); err != nil {
				return err
			}
			if dst, err = wire.DecodeIngestInto(r, dst[:0]); err != nil {
				return err
			}
			l.decode.events += uint64(len(dst))
		}
	}
	l.decode.cpu, l.decode.wall = cpuNow().sub(c0).total(), time.Since(t0)
	return nil
}

// directHost replays the pool, in its own order, through every tenant's
// bare host on this goroutine.
func (l *ledger) directHost(in *inputs, budget time.Duration) error {
	hosts := make([]*host, len(in.defs))
	for t, d := range in.defs {
		h, err := newHost(in, t, d.queries, d.spec)
		if err != nil {
			return fmt.Errorf("direct host %s: %w", d.name, err)
		}
		hosts[t] = h
	}
	c0, t0 := cpuNow(), time.Now()
	for l.direct.events == 0 || time.Since(t0) < budget {
		for _, pass := range [][]runtime.Event{in.fwd, in.bwd} {
			for _, ev := range pass {
				hosts[ev.Tenant].deliver(ev)
			}
			l.direct.events += uint64(len(pass))
		}
	}
	l.direct.cpu, l.direct.wall = cpuNow().sub(c0).total(), time.Since(t0)
	return nil
}

// runLedger runs the replays w needs within budget.
func runLedger(w workload, in *inputs, budget time.Duration) (*ledger, error) {
	l := &ledger{}
	goruntime.GC() // start the replays from a collected heap, like the timed phases
	if err := l.isolatedHosts(w, in, budget*2/10); err != nil {
		return nil, err
	}
	if err := l.directHost(in, budget*3/10); err != nil {
		return nil, err
	}
	if err := l.inProcess(in, w.batch, budget*3/10); err != nil {
		return nil, fmt.Errorf("in-process replay: %w", err)
	}
	if w.surface == surfaceWire {
		if err := l.codec(in, w.batch, budget*2/10); err != nil {
			return nil, fmt.Errorf("codec replay: %w", err)
		}
	}
	return l, nil
}
