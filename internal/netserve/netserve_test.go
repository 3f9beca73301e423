package netserve_test

import (
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"adaptivefilters/internal/core"
	"adaptivefilters/internal/netserve"
	"adaptivefilters/internal/protospec"
	"adaptivefilters/internal/query"
	"adaptivefilters/internal/runtime"
	"adaptivefilters/internal/server"
	"adaptivefilters/internal/sim"
	"adaptivefilters/internal/snapshot"
	"adaptivefilters/internal/stream"
	"adaptivefilters/internal/wire"
)

// wireSpecs is the tenant population both sides of the byte-identity tests
// compile from: the SAME declarative specs build the in-process twin and
// cross the wire, so any divergence is the serving plane's fault.
func wireSpecs() []wire.TenantSpec {
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
		{Name: "rtp", Initial: initial(50, 4),
			Spec: protospec.Spec{Protocol: "rtp", Q: 500, K: 5, R: 2}},
		{Name: "multi", Initial: initial(45, 5), Queries: []wire.QuerySpec{
			{Name: "qa", Spec: protospec.Spec{Protocol: "ft-nrp", Lo: 200, Hi: 500, EpsPlus: 0.3, EpsMinus: 0.3}},
			{Name: "qb", Spec: protospec.Spec{Protocol: "zt-nrp", Lo: 400, Hi: 800}},
		}},
	}
}

func compileSpecs(t *testing.T, specs []wire.TenantSpec) []runtime.TenantSpec {
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

// startServer builds, starts and serves a node, cleaning both up with the
// test.
func startServer(t *testing.T, cfg runtime.Config, specs []runtime.TenantSpec, opts netserve.Options) *netserve.Server {
	t.Helper()
	node, err := runtime.NewNode(cfg, specs)
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
	s := netserve.Serve(ln, node, opts)
	t.Cleanup(func() {
		s.Close()
		s.Wait()
		node.Stop()
	})
	return s
}

// tc is a minimal synchronous wire client for tests: raw frames, no
// dependency on the client package, so netserve is tested in isolation.
type tc struct {
	t   *testing.T
	nc  net.Conn
	fw  *wire.FrameWriter
	fr  *wire.FrameReader
	seq uint64
}

func dialT(t *testing.T, addr string) *tc {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	c := &tc{t: t, nc: nc,
		fw: wire.NewFrameWriter(nc, 0), fr: wire.NewFrameReader(nc, 0)}
	t.Cleanup(func() { nc.Close() })
	wire.EncodeRequest(c.fw.Begin(), wire.Request{Op: wire.OpHello, Seq: c.nextSeq()})
	c.end()
	r, hdr := c.read()
	if hdr.Op != wire.ReplyTo(wire.OpHello) {
		t.Fatalf("hello reply op = %d", hdr.Op)
	}
	if h, err := wire.DecodeReply(hdr, r); err != nil || h.Status != wire.StatusOK {
		t.Fatalf("hello ack = %+v, %v", h, err)
	}
	return c
}

func (c *tc) nextSeq() uint64 { c.seq++; return c.seq }

func (c *tc) end() {
	c.t.Helper()
	if err := c.fw.End(); err != nil {
		c.t.Fatal(err)
	}
	if err := c.fw.Flush(); err != nil {
		c.t.Fatal(err)
	}
}

func (c *tc) read() (*snapshot.Reader, wire.Header) {
	c.t.Helper()
	r, err := c.fr.Next()
	if err != nil {
		c.t.Fatal(err)
	}
	hdr, err := wire.DecodeHeader(r)
	if err != nil {
		c.t.Fatal(err)
	}
	return r, hdr
}

// ack sends one encoded request and reads its reply.
func (c *tc) ack(encode func(p *snapshot.Writer, seq uint64)) wire.Reply {
	c.t.Helper()
	seq := c.nextSeq()
	encode(c.fw.Begin(), seq)
	c.end()
	r, hdr := c.read()
	if hdr.Seq != seq {
		c.t.Fatalf("reply seq = %d, want %d", hdr.Seq, seq)
	}
	a, err := wire.DecodeReply(hdr, r)
	if err != nil {
		c.t.Fatal(err)
	}
	return a
}

// request encodes a control op for ack under the sequence number it gets.
func request(req wire.Request) func(p *snapshot.Writer, seq uint64) {
	return func(p *snapshot.Writer, seq uint64) {
		req.Seq = seq
		wire.EncodeRequest(p, req)
	}
}

func (c *tc) mustOK(encode func(p *snapshot.Writer, seq uint64)) wire.Reply {
	c.t.Helper()
	a := c.ack(encode)
	if a.Status != wire.StatusOK {
		c.t.Fatalf("ack = %+v", a)
	}
	return a
}

// report drains the node and fetches its report over the wire.
func (c *tc) report() *runtime.Report {
	c.t.Helper()
	c.mustOK(request(wire.Request{Op: wire.OpDrain}))
	a := c.mustOK(request(wire.Request{Op: wire.OpReport}))
	if a.Op != wire.OpReport {
		c.t.Fatalf("report reply answers op %d", a.Op)
	}
	return a.Report
}

// workload yields deterministic ingest batches over the wireSpecs tenants.
func workload(events, batch int) [][]runtime.Event {
	rng := sim.NewRNG(77)
	var out [][]runtime.Event
	cur := make([]runtime.Event, 0, batch)
	for i := 0; i < events; i++ {
		cur = append(cur, runtime.Event{
			Tenant: rng.Intn(3), Stream: stream.ID(rng.Intn(40)), Value: rng.Uniform(0, 1000),
		})
		if len(cur) == batch {
			out = append(out, cur)
			cur = make([]runtime.Event, 0, batch)
		}
	}
	if len(cur) > 0 {
		out = append(out, cur)
	}
	return out
}

// TestLoopbackByteIdentity is the serving plane's core invariant: the
// report fetched over TCP renders byte-identically to an in-process run of
// the same seed, tenants and workload — at one shard and at four.
func TestLoopbackByteIdentity(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			specs := wireSpecs()
			cfg := runtime.Config{Shards: shards, Seed: 11}

			// In-process twin.
			local, err := runtime.NewNode(cfg, compileSpecs(t, specs))
			if err != nil {
				t.Fatal(err)
			}
			if err := local.Start(context.Background()); err != nil {
				t.Fatal(err)
			}
			defer local.Stop()

			s := startServer(t, cfg, compileSpecs(t, specs), netserve.Options{})
			c := dialT(t, s.Addr().String())

			// Pipelined ingest: frame every batch, flush once, then collect
			// the acks — the wire's answer to batched Ingest calls.
			batches := workload(2000, 64)
			firstSeq := c.seq + 1
			for _, b := range batches {
				wire.EncodeIngest(c.fw.Begin(), c.nextSeq(), b)
				if err := c.fw.End(); err != nil {
					t.Fatal(err)
				}
				if err := local.Ingest(b); err != nil {
					t.Fatal(err)
				}
			}
			if err := c.fw.Flush(); err != nil {
				t.Fatal(err)
			}
			for i := range batches {
				r, hdr := c.read()
				if hdr.Op != wire.ReplyTo(wire.OpIngest) || hdr.Seq != firstSeq+uint64(i) {
					t.Fatalf("ingest ack %d: header = %+v", i, hdr)
				}
				a, err := wire.DecodeAck(r)
				if err != nil || a.Status != wire.StatusOK {
					t.Fatalf("ingest ack %d: %+v, %v", i, a, err)
				}
			}

			if err := local.Drain(); err != nil {
				t.Fatal(err)
			}
			got, want := c.report().Text(), local.Report().Text()
			if got != want {
				t.Fatalf("wire report diverges from in-process run:\n got:\n%s\nwant:\n%s", got, want)
			}

			// Lifecycle over the wire, mirrored locally: admit a tenant and a
			// query, evict a tenant and a query, ingest more, compare again.
			late := wire.TenantSpec{Name: "late", Initial: []float64{10, 20, 30, 40},
				Spec: protospec.Spec{Protocol: "zt-nrp", Lo: 15, Hi: 35}}
			a := c.mustOK(request(wire.Request{Op: wire.OpAddTenant, Tenant: late}))
			lateSpec, err := late.Runtime()
			if err != nil {
				t.Fatal(err)
			}
			ti, err := local.AddTenant(lateSpec)
			if err != nil {
				t.Fatal(err)
			}
			if int(a.Value) != ti {
				t.Fatalf("wire admission slot %d, local %d", a.Value, ti)
			}

			lateQ := wire.QuerySpec{Name: "qc", Spec: protospec.Spec{Protocol: "rtp", Q: 500, K: 3, R: 2}}
			a = c.mustOK(request(wire.Request{Op: wire.OpAddQuery, TI: 2, Query: lateQ}))
			build, err := lateQ.Spec.Factory()
			if err != nil {
				t.Fatal(err)
			}
			qi, err := local.AddQuery(2, runtime.QuerySpec{Name: "qc", NewProtocol: build})
			if err != nil {
				t.Fatal(err)
			}
			if int(a.Value) != qi {
				t.Fatalf("wire query slot %d, local %d", a.Value, qi)
			}

			c.mustOK(request(wire.Request{Op: wire.OpRemoveTenant, TI: 1}))
			if err := local.RemoveTenant(1); err != nil {
				t.Fatal(err)
			}
			c.mustOK(request(wire.Request{Op: wire.OpRemoveQuery, TI: 2, QI: 0}))
			if err := local.RemoveQuery(2, 0); err != nil {
				t.Fatal(err)
			}

			// Tenant 1 is gone; steer its share of the follow-up workload at
			// the late admission instead.
			for _, b := range workload(500, 32) {
				for i := range b {
					if b[i].Tenant == 1 {
						b[i].Tenant = ti
						b[i].Stream %= 4
					}
				}
				c.mustOK(func(p *snapshot.Writer, seq uint64) { wire.EncodeIngest(p, seq, b) })
				if err := local.Ingest(b); err != nil {
					t.Fatal(err)
				}
			}
			if err := local.Drain(); err != nil {
				t.Fatal(err)
			}
			got, want = c.report().Text(), local.Report().Text()
			if got != want {
				t.Fatalf("wire report diverges after lifecycle churn:\n got:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}

// slowProto delays every update so a test can hold a shard busy and fill
// its queue on demand.
type slowProto struct {
	server.Protocol
	d time.Duration
}

func (p slowProto) HandleUpdate(id stream.ID, v float64) {
	time.Sleep(p.d)
	p.Protocol.HandleUpdate(id, v)
}

// TestShedBackpressure pins the shed regime: with a one-deep shard queue, a
// slow consumer and watermark 1, a flood must get some batches acked
// StatusShed — and counted in Stats.ShedFrames — and the node must stay
// fully serviceable after. The shed decision is made once per read burst,
// so each frame goes out in its own write and its ack is read before the
// next: ten frames in one write would be one burst and one decision.
func TestShedBackpressure(t *testing.T) {
	specs := []runtime.TenantSpec{{
		Name:    "slow",
		Initial: []float64{100, 200, 300},
		NewProtocol: func(h server.Host, _ int64) server.Protocol {
			return slowProto{Protocol: core.NewZTNRP(h, query.NewRange(150, 250)), d: 40 * time.Millisecond}
		},
	}}
	s := startServer(t, runtime.Config{Shards: 1, Seed: 1, Queue: 1}, specs,
		netserve.Options{ShedWatermark: 1})
	c := dialT(t, s.Addr().String())

	const flood = 10
	var ok, shed int
	for i := 0; i < flood; i++ {
		// Every event crosses the range boundary, so every applied one costs
		// the shard slowProto's delay and the queue stays full behind it.
		// ack checks the reply's sequence number: acks return in order.
		a := c.ack(func(p *snapshot.Writer, seq uint64) {
			wire.EncodeIngest(p, seq, []runtime.Event{{Tenant: 0, Stream: 0, Value: float64(200 - 100*(i%2))}})
		})
		switch a.Status {
		case wire.StatusOK:
			ok++
		case wire.StatusShed:
			shed++
		default:
			t.Fatalf("ack %d: %+v", i, a)
		}
	}
	if ok == 0 || shed == 0 {
		t.Fatalf("flood of %d: ok=%d shed=%d; want both regimes exercised", flood, ok, shed)
	}
	if st := s.Stats(); st.ShedFrames != uint64(shed) || st.Frames != flood || st.Bursts != flood {
		t.Fatalf("server stats %+v after ok=%d shed=%d", st, ok, shed)
	}
	// The node survived shedding: a drain and report still work.
	rep := c.report()
	if len(rep.Tenants) != 1 || !rep.Tenants[0].Alive {
		t.Fatalf("report after shedding: %+v", rep)
	}
}

// TestShedUnitIsEvents pins the watermark's unit. Behind 256-event frames a
// 512-event mailbox is full after two frames — two "batches", far short of
// any batch-counted watermark — so the backlog must be counted in events
// for overload to keep both its shapes: with the default watermark (0 =
// capacity) a slow tenant's flood is visibly shed once its inbox is full,
// and with shedding off the connection stalls instead and loses nothing.
func TestShedUnitIsEvents(t *testing.T) {
	const flood, frameEvents = 8, 256
	for _, tt := range []struct {
		name      string
		watermark int
	}{{"shed", 0}, {"stall", -1}} {
		t.Run(tt.name, func(t *testing.T) {
			specs := []runtime.TenantSpec{{
				Name:    "slow",
				Initial: []float64{100, 200, 300},
				NewProtocol: func(h server.Host, _ int64) server.Protocol {
					return slowProto{Protocol: core.NewZTNRP(h, query.NewRange(150, 250)), d: time.Millisecond}
				},
			}}
			s := startServer(t, runtime.Config{Shards: 1, Seed: 1, Queue: 512}, specs,
				netserve.Options{ShedWatermark: tt.watermark})
			c := dialT(t, s.Addr().String())
			// Every eighth event crosses the range boundary and costs the shard
			// slowProto's delay, 32 to a frame; one frame per write, its ack
			// read before the next, so each frame is its own burst and its own
			// shed decision.
			events := make([]runtime.Event, frameEvents)
			for i := range events {
				events[i] = runtime.Event{Tenant: 0, Stream: 0, Value: float64(200 - 100*(i/8%2))}
			}
			var ok, shed int
			for i := 0; i < flood; i++ {
				a := c.ack(func(p *snapshot.Writer, seq uint64) { wire.EncodeIngest(p, seq, events) })
				switch a.Status {
				case wire.StatusOK:
					ok++
				case wire.StatusShed:
					shed++
				default:
					t.Fatalf("ack %d: %+v", i, a)
				}
			}
			if tt.watermark < 0 {
				if ok != flood {
					t.Fatalf("stall regime: ok=%d shed=%d of %d frames; want none shed", ok, shed, flood)
				}
			} else if ok == 0 || shed == 0 {
				t.Fatalf("flood of %d: ok=%d shed=%d; want both regimes exercised", flood, ok, shed)
			}
			if st := s.Stats(); st.ShedFrames != uint64(shed) || st.Frames != flood {
				t.Fatalf("server stats %+v after ok=%d shed=%d", st, ok, shed)
			}
			// Every frame acked OK applied, whole; nothing else did.
			rep := c.report()
			if got, want := rep.Tenants[0].Events, uint64(ok*frameEvents); got != want {
				t.Fatalf("tenant applied %d events, acked frames carried %d", got, want)
			}
		})
	}
}

// TestRequestErrorsKeepConnection checks request-level failures come back
// as error acks on a connection that stays serviceable.
func TestRequestErrorsKeepConnection(t *testing.T) {
	s := startServer(t, runtime.Config{Shards: 1, Seed: 1}, compileSpecs(t, wireSpecs()), netserve.Options{})
	c := dialT(t, s.Addr().String())

	a := c.ack(request(wire.Request{Op: wire.OpRemoveTenant, TI: 99}))
	if a.Status != wire.StatusError || a.Err() == nil {
		t.Fatalf("bad eviction ack = %+v", a)
	}
	bad := wire.TenantSpec{Name: "bad", Initial: []float64{1, 2},
		Spec: protospec.Spec{Protocol: "rtp", Q: 1, K: 5, R: 5}}
	a = c.ack(request(wire.Request{Op: wire.OpAddTenant, Tenant: bad}))
	if a.Status != wire.StatusError {
		t.Fatalf("invalid spec ack = %+v", a)
	}
	// Still alive.
	c.mustOK(request(wire.Request{Op: wire.OpDrain}))
}

// TestShutdownOverWire checks a client-initiated shutdown: the ack arrives,
// then the server stops.
func TestShutdownOverWire(t *testing.T) {
	s := startServer(t, runtime.Config{Shards: 1, Seed: 1}, compileSpecs(t, wireSpecs()), netserve.Options{})
	c := dialT(t, s.Addr().String())
	c.mustOK(request(wire.Request{Op: wire.OpShutdown}))
	done := make(chan struct{})
	go func() { s.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("server did not stop after a Shutdown request")
	}
}

// TestCorruptFrameClosesConnection checks a protocol violation drops the
// connection rather than wedging the server.
func TestCorruptFrameClosesConnection(t *testing.T) {
	s := startServer(t, runtime.Config{Shards: 1, Seed: 1}, compileSpecs(t, wireSpecs()), netserve.Options{})
	c := dialT(t, s.Addr().String())
	p := c.fw.Begin()
	p.Uvarint(200) // not a valid request op
	p.Uvarint(1)
	c.end()
	c.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.fr.Next(); err == nil {
		t.Fatal("server kept the connection after an invalid op")
	}
	// The server itself is fine: a fresh connection works.
	c2 := dialT(t, s.Addr().String())
	c2.mustOK(request(wire.Request{Op: wire.OpDrain}))
}
