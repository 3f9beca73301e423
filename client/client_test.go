package client_test

import (
	"context"
	"errors"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"adaptivefilters/client"
	"adaptivefilters/internal/netserve"
	"adaptivefilters/internal/protospec"
	"adaptivefilters/internal/runtime"
	"adaptivefilters/internal/sim"
	"adaptivefilters/internal/stream"
	"adaptivefilters/internal/wire"
)

func testSpecs() []wire.TenantSpec {
	initial := func(n int, seed int64) []float64 {
		rng := sim.NewRNG(seed)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.Uniform(0, 1000)
		}
		return vals
	}
	return []wire.TenantSpec{
		{Name: "ft", Initial: initial(40, 3),
			Spec: protospec.Spec{Protocol: "ft-nrp", Lo: 300, Hi: 700, EpsPlus: 0.3, EpsMinus: 0.3}},
		{Name: "multi", Initial: initial(30, 5), Queries: []wire.QuerySpec{
			{Name: "qa", Spec: protospec.Spec{Protocol: "zt-nrp", Lo: 200, Hi: 500}},
			{Name: "qb", Spec: protospec.Spec{Protocol: "rtp", Q: 500, K: 4, R: 2}},
		}},
	}
}

func compile(t *testing.T, specs []wire.TenantSpec) []runtime.TenantSpec {
	t.Helper()
	out := make([]runtime.TenantSpec, len(specs))
	for i, ws := range specs {
		rs, err := ws.Runtime()
		if err != nil {
			t.Fatal(err)
		}
		out[i] = rs
	}
	return out
}

// startServer serves a fresh node on an ephemeral port.
func startServer(t *testing.T, shards int) (*netserve.Server, *runtime.Node) {
	t.Helper()
	node, err := runtime.NewNode(runtime.Config{Shards: shards, Seed: 11}, compile(t, testSpecs()))
	if err != nil {
		t.Fatal(err)
	}
	if err := node.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := netserve.Serve(ln, node, netserve.Options{})
	t.Cleanup(func() {
		s.Close()
		s.Wait()
		node.Stop()
	})
	return s, node
}

func workload(events, batch int) [][]runtime.Event {
	rng := sim.NewRNG(77)
	var out [][]runtime.Event
	cur := make([]runtime.Event, 0, batch)
	for i := 0; i < events; i++ {
		cur = append(cur, runtime.Event{
			Tenant: rng.Intn(2), Stream: stream.ID(rng.Intn(30)), Value: rng.Uniform(0, 1000),
		})
		if len(cur) == batch {
			out = append(out, cur)
			cur = make([]runtime.Event, 0, batch)
		}
	}
	return out
}

// TestPipelinedIngestMatchesInProcess drives a full session — pipelined
// ingest, drain, report, lifecycle — and checks the report text equals an
// in-process twin's byte for byte.
func TestPipelinedIngestMatchesInProcess(t *testing.T) {
	s, _ := startServer(t, 2)

	local, err := runtime.NewNode(runtime.Config{Shards: 2, Seed: 11}, compile(t, testSpecs()))
	if err != nil {
		t.Fatal(err)
	}
	if err := local.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer local.Stop()

	var acks atomic.Uint64
	c, err := client.Dial(s.Addr().String(), client.Options{
		InflightEvents: 8 * 64, // eight of the 64-event batches below
		OnIngestAck:    func(seq uint64, status byte) { acks.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	batches := workload(3000, 64)
	for _, b := range batches {
		if _, err := c.Ingest(b); err != nil {
			t.Fatal(err)
		}
		if err := local.Ingest(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := local.Drain(); err != nil {
		t.Fatal(err)
	}

	// The drain ack proves every earlier batch was answered first.
	if got := acks.Load(); got != uint64(len(batches)) {
		t.Fatalf("OnIngestAck saw %d batches, want %d", got, len(batches))
	}
	st := c.Stats()
	if st.Acked != uint64(len(batches)) || st.Shed != 0 || st.Lost != 0 {
		t.Fatalf("stats = %+v", st)
	}

	rep, err := c.Report()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rep.Text(), local.Report().Text(); got != want {
		t.Fatalf("wire report diverges:\n got:\n%s\nwant:\n%s", got, want)
	}

	// Lifecycle through the client, mirrored locally.
	late := wire.TenantSpec{Name: "late", Initial: []float64{1, 2, 3, 4},
		Spec: protospec.Spec{Protocol: "zt-nrp", Lo: 2, Hi: 3}}
	added, err := c.Do(wire.Request{Op: wire.OpAddTenant, Tenant: late})
	if err != nil {
		t.Fatal(err)
	}
	ti := int(added.Value)
	lspec, err := late.Runtime()
	if err != nil {
		t.Fatal(err)
	}
	lti, err := local.AddTenant(lspec)
	if err != nil || ti != lti {
		t.Fatalf("admission slots: wire %d local %d (%v)", ti, lti, err)
	}
	if _, err := c.Do(wire.Request{Op: wire.OpRemoveQuery, TI: 1, QI: 0}); err != nil {
		t.Fatal(err)
	}
	if err := local.RemoveQuery(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := local.Drain(); err != nil {
		t.Fatal(err)
	}
	rep, err = c.Report()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rep.Text(), local.Report().Text(); got != want {
		t.Fatalf("wire report diverges after lifecycle:\n got:\n%s\nwant:\n%s", got, want)
	}

	// Error surfaces as an error, connection stays usable.
	if _, err := c.Do(wire.Request{Op: wire.OpRemoveTenant, TI: 99}); err == nil {
		t.Fatal("bad eviction succeeded")
	}
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
}

// TestReconnect kills the server under a live client and checks the
// client comes back by itself on a fresh server at the same address.
func TestReconnect(t *testing.T) {
	s1, node1 := startServer(t, 1)
	addr := s1.Addr().String()

	c, err := client.Dial(addr, client.Options{Reconnect: true, RetryWait: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}

	// Tear server 1 down; in-flight and new calls fail while the link is
	// down.
	s1.Close()
	s1.Wait()
	node1.Stop()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := c.Drain(); err != nil {
			break // link noticed the outage
		}
		if time.Now().After(deadline) {
			t.Fatal("drain kept succeeding against a closed server")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Bring a fresh server up on the same address; the client must find it.
	node2, err := runtime.NewNode(runtime.Config{Shards: 1, Seed: 11}, compile(t, testSpecs()))
	if err != nil {
		t.Fatal(err)
	}
	if err := node2.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	s2 := netserve.Serve(ln, node2, netserve.Options{})
	t.Cleanup(func() {
		s2.Close()
		s2.Wait()
		node2.Stop()
	})

	for {
		err := c.Drain()
		if err == nil {
			break
		}
		if !errors.Is(err, client.ErrDisconnected) {
			t.Fatalf("drain while redialing: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("client never reconnected")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := c.Ingest([]runtime.Event{{Tenant: 0, Stream: 1, Value: 42}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
}

// TestShutdown checks the client-initiated server stop: ack received,
// server exits, client is closed (no redial storm).
func TestShutdown(t *testing.T) {
	s, _ := startServer(t, 1)
	c, err := client.Dial(s.Addr().String(), client.Options{Reconnect: true, RetryWait: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Shutdown(); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { s.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("server did not stop")
	}
	if err := c.Drain(); !errors.Is(err, client.ErrClosed) {
		t.Fatalf("drain after shutdown: %v, want ErrClosed", err)
	}
}

// TestIngestWindowBackpressure fills the pipeline window and checks
// Ingest still completes (flush + wait for acks opens space) rather than
// deadlocking.
func TestIngestWindowBackpressure(t *testing.T) {
	s, _ := startServer(t, 1)
	c, err := client.Dial(s.Addr().String(), client.Options{InflightEvents: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 50; i++ {
		if _, err := c.Ingest([]runtime.Event{{Tenant: 0, Stream: stream.ID(i % 30), Value: float64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Acked != 50 {
		t.Fatalf("stats = %+v, want 50 acked", st)
	}
}

// TestDialRefusesOtherVersion answers the handshake with a greeting that
// speaks the next wire version: Dial must fail rather than talk on.
func TestDialRefusesOtherVersion(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		if _, err := wire.NewFrameReader(nc, 0).Next(); err != nil {
			return
		}
		fw := wire.NewFrameWriter(nc, 0)
		p := fw.Begin()
		wire.EncodeAck(p, wire.OpHello, 0, wire.StatusOK, 0, "")
		p.Uvarint(wire.Version + 1)
		p.Uvarint(1)
		p.Uvarint(0)
		if fw.End() == nil {
			fw.Flush()
		}
		io.Copy(io.Discard, nc) // hold the socket until the client hangs up
	}()
	c, err := client.Dial(ln.Addr().String(), client.Options{})
	if err == nil {
		c.Close()
		t.Fatal("Dial accepted a server of another wire version")
	}
	if !strings.Contains(err.Error(), "version") {
		t.Fatalf("Dial: %v, want a version refusal", err)
	}
}
