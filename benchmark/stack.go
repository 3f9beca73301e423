package main

import (
	"context"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"adaptivefilters/client"
	"adaptivefilters/internal/cluster"
	"adaptivefilters/internal/netserve"
	"adaptivefilters/internal/runtime"
	"adaptivefilters/internal/wire"
)

// stack is a workload's serving stack seen through the surface its callers
// use. One goroutine (the sender) drives it.
type stack interface {
	// ingest submits one batch; it may return before the batch is applied.
	ingest(events []runtime.Event) error
	// barrier returns once everything submitted so far is applied.
	barrier() error
	// roundTrip submits one batch and waits for the surface's own proof
	// that it was accepted — the wire ack, or the in-process drain barrier —
	// returning the time from submission to that proof.
	roundTrip(events []runtime.Event) (time.Duration, error)
	report() (*runtime.Report, error)
	// nodes exposes the runtime nodes underneath for ShardStats sampling.
	nodes() []*runtime.Node
	close()
}

// startNode builds and starts a node and settles its t0 phase. With no
// specs it starts empty, as a cluster member does before tenants are placed
// on it (only NewNodeLabeled may).
func startNode(shards int, specs []runtime.TenantSpec) (*runtime.Node, error) {
	cfg := runtime.Config{Shards: shards, Seed: nodeSeed}
	var node *runtime.Node
	var err error
	if len(specs) == 0 {
		node, err = runtime.NewNodeLabeled(cfg, nil, nil)
	} else {
		node, err = runtime.NewNode(cfg, specs)
	}
	if err != nil {
		return nil, err
	}
	if err := node.Start(context.Background()); err != nil {
		return nil, err
	}
	if err := node.Drain(); err != nil {
		node.Stop()
		return nil, err
	}
	return node, nil
}

// buildStack assembles w's full serving stack over in's tenants.
func buildStack(w workload, in *inputs) (stack, error) {
	switch w.surface {
	case surfaceWire:
		return buildWire(w, in)
	case surfaceNode:
		return buildNode(w.shards, in)
	default:
		return buildCluster(w, in)
	}
}

// nodeStack drives a runtime.Node in-process through one Ingester.
type nodeStack struct {
	node *runtime.Node
	ing  *runtime.Ingester
}

func buildNode(shards int, in *inputs) (*nodeStack, error) {
	specs, err := in.runtimeSpecs()
	if err != nil {
		return nil, err
	}
	node, err := startNode(shards, specs)
	if err != nil {
		return nil, err
	}
	return &nodeStack{node: node, ing: node.NewIngester()}, nil
}

func (s *nodeStack) ingest(ev []runtime.Event) error { return s.ing.Ingest(ev) }
func (s *nodeStack) barrier() error                  { return s.node.Drain() }
func (s *nodeStack) report() (*runtime.Report, error) {
	return s.node.Report(), nil
}
func (s *nodeStack) nodes() []*runtime.Node { return []*runtime.Node{s.node} }
func (s *nodeStack) close()                 { s.node.Stop() }

func (s *nodeStack) roundTrip(ev []runtime.Event) (time.Duration, error) {
	t0 := time.Now()
	if err := s.ing.Ingest(ev); err != nil {
		return 0, err
	}
	err := s.node.Drain()
	return time.Since(t0), err
}

// seqRing is how many consecutive request sequence numbers keep their send
// stamp; it only has to exceed the client's inflight window (128).
const seqRing = 1024

// wireStack drives a node over one loopback TCP connection: client →
// netserve (shedding off: the lossless stall regime) → node.
//
// Ack latency is taken on the client's reader goroutine: the sender stamps
// the send (or due) time under the request's sequence number before the
// frame exists, and OnIngestAck subtracts. The client numbers requests
// 1, 2, 3, … across ingest and control calls alike, so the sender can
// predict each number; a misprediction is counted and fails the run.
type wireStack struct {
	node *runtime.Node
	srv  *netserve.Server
	cl   *client.Client

	epoch  time.Time
	next   uint64 // sequence number the next request will get
	missed uint64 // predictions that were wrong
	sendAt [seqRing]atomic.Int64
	wake   chan struct{} // one token per ack while a roundTrip waits

	// Written by the reader goroutine; the sender reads and resets them only
	// after a barrier, whose reply the same goroutine delivers.
	lat    []float64 // ack latency samples, ns
	sent   []int64   // each sample's send (or due) stamp, ns since epoch
	badAck atomic.Uint64

	// timeFlush makes roundTrip time its Flush call into flushUs (the
	// traced run sets it).
	timeFlush bool
	flushUs   []float64
}

func buildWire(w workload, in *inputs) (*wireStack, error) {
	specs, err := in.runtimeSpecs()
	if err != nil {
		return nil, err
	}
	node, err := startNode(w.shards, specs)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		node.Stop()
		return nil, err
	}
	s := &wireStack{
		node:  node,
		srv:   netserve.Serve(ln, node, netserve.Options{ShedWatermark: -1}),
		epoch: time.Now(),
		next:  1,
		wake:  make(chan struct{}, 1),
		lat:   make([]float64, 0, 1<<17),
		sent:  make([]int64, 0, 1<<17),
	}
	s.cl, err = client.Dial(ln.Addr().String(), client.Options{OnIngestAck: s.onAck})
	if err != nil {
		s.srv.Close()
		s.srv.Wait()
		node.Stop()
		return nil, err
	}
	return s, nil
}

func (s *wireStack) onAck(seq uint64, status byte) {
	now := s.now()
	if status != wire.StatusOK {
		s.badAck.Add(1)
	}
	sent := s.sendAt[seq%seqRing].Load()
	s.lat, s.sent = append(s.lat, float64(now-sent)), append(s.sent, sent)
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// now is the wire stack's clock: ns since its epoch.
func (s *wireStack) now() int64 { return int64(time.Since(s.epoch)) }

// send stamps `stamp` as the batch's start of life and frames it.
func (s *wireStack) send(ev []runtime.Event, stamp int64) error {
	s.sendAt[s.next%seqRing].Store(stamp)
	seq, err := s.cl.Ingest(ev)
	if err != nil {
		return err
	}
	if seq != s.next {
		s.missed++
	}
	s.next = seq + 1
	return nil
}

func (s *wireStack) ingest(ev []runtime.Event) error { return s.send(ev, s.now()) }

func (s *wireStack) barrier() error {
	s.next++
	return s.cl.Drain()
}

func (s *wireStack) roundTrip(ev []runtime.Event) (time.Duration, error) {
	select {
	case <-s.wake: // a token left by pipelined acks
	default:
	}
	n := len(s.lat)
	if err := s.send(ev, s.now()); err != nil {
		return 0, err
	}
	var t0 time.Time
	if s.timeFlush {
		t0 = time.Now()
	}
	if err := s.cl.Flush(); err != nil {
		return 0, err
	}
	if s.timeFlush {
		s.flushUs = append(s.flushUs, float64(time.Since(t0))/1e3)
	}
	<-s.wake
	// The token was sent after the append, so the sample is visible here.
	if len(s.lat) != n+1 {
		return 0, fmt.Errorf("wire round trip saw %d acks, want 1", len(s.lat)-n)
	}
	return time.Duration(s.lat[n]), nil
}

func (s *wireStack) report() (*runtime.Report, error) {
	s.next++
	return s.cl.Report()
}

func (s *wireStack) nodes() []*runtime.Node { return []*runtime.Node{s.node} }

func (s *wireStack) close() {
	s.cl.Close()
	s.srv.Close()
	s.srv.Wait()
	s.node.Stop()
}

// clusterStack drives a cluster.Cluster over local one-node members, with
// a control round every so often beside the ingest.
type clusterStack struct {
	clu     *cluster.Cluster
	members []*runtime.Node
	defs    []tenantDef

	rounds    int
	compTen   []int // global ids of the composite tenants
	migrateMs []float64
	addMs     []float64
	removeMs  []float64
}

func buildCluster(w workload, in *inputs) (*clusterStack, error) {
	s := &clusterStack{defs: in.defs}
	mems := make([]cluster.Member, w.members)
	for m := range mems {
		node, err := startNode(w.shards, nil)
		if err != nil {
			s.close()
			return nil, err
		}
		s.members = append(s.members, node)
		mems[m] = cluster.NewLocalMember(node)
	}
	clu, err := cluster.New(cluster.Config{}, mems)
	if err != nil {
		s.close()
		return nil, err
	}
	s.clu = clu
	for t, d := range in.defs {
		if _, err := clu.AddTenant(in.wireSpec(t)); err != nil {
			s.close()
			return nil, err
		}
		if d.composite() {
			s.compTen = append(s.compTen, t)
		}
	}
	if err := clu.Drain(); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *clusterStack) ingest(ev []runtime.Event) error { return s.clu.Ingest(ev) }
func (s *clusterStack) barrier() error                  { return s.clu.Drain() }
func (s *clusterStack) report() (*runtime.Report, error) {
	return s.clu.Report()
}
func (s *clusterStack) nodes() []*runtime.Node { return s.members }

func (s *clusterStack) close() {
	for _, n := range s.members {
		n.Stop()
	}
}

func (s *clusterStack) roundTrip(ev []runtime.Event) (time.Duration, error) {
	t0 := time.Now()
	if err := s.clu.Ingest(ev); err != nil {
		return 0, err
	}
	err := s.clu.Drain()
	return time.Since(t0), err
}

// control runs one control round: tenant (round mod tenants) migrates to
// the next member, and composite tenant (round mod composites) admits and
// evicts one query. Both choices are functions of the round number alone,
// so every run of a seed cuts at the same places.
func (s *clusterStack) control(tr *tracer, parent int32) error {
	g := s.rounds % len(s.defs)
	from, err := s.clu.MemberOf(g)
	if err != nil {
		return err
	}
	t0 := time.Now()
	if err := s.clu.MigrateTenant(g, (from+1)%len(s.members)); err != nil {
		return err
	}
	d := time.Since(t0)
	tr.add(tr.kind("cluster.MigrateTenant"), t0, d, parent, uint64(s.rounds))
	s.migrateMs = append(s.migrateMs, d.Seconds()*1e3)

	ct := s.compTen[s.rounds%len(s.compTen)]
	t0 = time.Now()
	qi, err := s.clu.AddQuery(ct, churnQuery)
	if err != nil {
		return err
	}
	d = time.Since(t0)
	tr.add(tr.kind("cluster.AddQuery"), t0, d, parent, uint64(s.rounds))
	s.addMs = append(s.addMs, d.Seconds()*1e3)
	t0 = time.Now()
	if err := s.clu.RemoveQuery(ct, qi); err != nil {
		return err
	}
	d = time.Since(t0)
	tr.add(tr.kind("cluster.RemoveQuery"), t0, d, parent, uint64(s.rounds))
	s.removeMs = append(s.removeMs, d.Seconds()*1e3)
	s.rounds++
	return nil
}
