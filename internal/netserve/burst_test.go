package netserve_test

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"adaptivefilters/internal/netserve"
	"adaptivefilters/internal/protospec"
	"adaptivefilters/internal/runtime"
	"adaptivefilters/internal/sim"
	"adaptivefilters/internal/stream"
	"adaptivefilters/internal/wire"
)

// scriptOp is one request of the burst-equivalence script and the reply a
// frame-at-a-time in-process node gives it.
type scriptOp struct {
	hdr    wire.Header
	end    int      // offset just past this request's frame in the byte stream
	want   wire.Ack // expected status, value and message
	report string   // expected Report.Text() for OpReport
}

// burstScript builds a seeded request stream over the wireSpecs tenants —
// ingest frames of uneven sizes, some of which the node must refuse, mixed
// with Drain, Report, AddQuery and RemoveQuery — and plays it, one request
// at a time, through an in-process node to record what each must answer.
// It returns the framed bytes, the per-request expectations and the
// reference node's final report. (A Y coordinate on a 1-D tenant, the
// fourth refusal Ingest knows, cannot be put on the wire: wire events carry
// no Y. A removed tenant's slot stands in for it.)
func burstScript(t *testing.T, cfg runtime.Config) ([]byte, []scriptOp, string) {
	t.Helper()
	local, err := runtime.NewNode(cfg, compileSpecs(t, wireSpecs()))
	if err != nil {
		t.Fatal(err)
	}
	if err := local.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer local.Stop()

	var (
		framed  bytes.Buffer
		fw      = wire.NewFrameWriter(&framed, 0)
		ops     []scriptOp
		rng     = sim.NewRNG(20260917)
		seq     = uint64(100)
		queries = 2 // query slots ever admitted on tenant 2
	)
	ackFor := func(err error, value uint64) wire.Ack {
		if err != nil {
			return wire.Ack{Status: wire.StatusError, Msg: err.Error()}
		}
		return wire.Ack{Status: wire.StatusOK, Value: value}
	}
	add := func(op byte, want wire.Ack, report string) {
		if err := fw.End(); err != nil {
			t.Fatal(err)
		}
		if err := fw.Flush(); err != nil {
			t.Fatal(err)
		}
		ops = append(ops, scriptOp{hdr: wire.Header{Op: op, Seq: seq}, end: framed.Len(), want: want, report: report})
		seq++
	}
	goodEvent := func() runtime.Event {
		return runtime.Event{Tenant: rng.Intn(3), Stream: stream.ID(rng.Intn(40)), Value: rng.Uniform(0, 1000)}
	}
	ingest := func(events []runtime.Event) {
		wire.EncodeIngest(fw.Begin(), seq, events)
		add(wire.OpIngest, ackFor(local.Ingest(events), 0), "")
	}
	// Evict one tenant up front so "removed tenant" is a refusal the ingest
	// frames below can earn.
	gone := wire.TenantSpec{Name: "gone", Initial: []float64{1, 2, 3},
		Spec: protospec.Spec{Protocol: "zt-nrp", Lo: 0, Hi: 2}}
	late, err := local.AddTenant(compileSpecs(t, []wire.TenantSpec{gone})[0])
	if err != nil {
		t.Fatal(err)
	}
	wire.EncodeRequest(fw.Begin(), wire.Request{Op: wire.OpAddTenant, Seq: seq, Tenant: gone})
	add(wire.OpAddTenant, ackFor(nil, uint64(late)), "")
	wire.EncodeRequest(fw.Begin(), wire.Request{Op: wire.OpRemoveTenant, Seq: seq, TI: late})
	add(wire.OpRemoveTenant, ackFor(local.RemoveTenant(late), 0), "")

	for i := 0; i < 400; i++ {
		switch k := rng.Intn(100); {
		case k < 70: // a good ingest frame; one in ten is larger than a whole burst
			n := 1 + rng.Intn(24)
			if rng.Intn(10) == 0 {
				n = netserve.BurstEvents + 2 + rng.Intn(60)
			}
			events := make([]runtime.Event, n)
			for j := range events {
				events[j] = goodEvent()
			}
			ingest(events)
		case k < 86: // a frame the node refuses, the offender somewhere inside it
			events := make([]runtime.Event, 1+rng.Intn(12))
			for j := range events {
				events[j] = goodEvent()
			}
			bad := &events[rng.Intn(len(events))]
			switch rng.Intn(4) {
			case 0:
				bad.Tenant = 99
			case 1:
				bad.Stream = 1000
			case 2:
				bad.Value = math.NaN()
			case 3:
				bad.Tenant, bad.Stream = late, 0
			}
			ingest(events)
		case k < 90:
			wire.EncodeRequest(fw.Begin(), wire.Request{Op: wire.OpDrain, Seq: seq})
			add(wire.OpDrain, ackFor(local.Drain(), 0), "")
		case k < 94:
			wire.EncodeRequest(fw.Begin(), wire.Request{Op: wire.OpDrain, Seq: seq})
			add(wire.OpDrain, ackFor(local.Drain(), 0), "")
			wire.EncodeRequest(fw.Begin(), wire.Request{Op: wire.OpReport, Seq: seq})
			add(wire.OpReport, ackFor(nil, 0), local.Report().Text())
		case k < 97:
			q := wire.QuerySpec{Name: fmt.Sprintf("q%d", queries),
				Spec: protospec.Spec{Protocol: "ft-nrp", Lo: 100 * float64(1+rng.Intn(4)), Hi: 900, EpsPlus: 0.2, EpsMinus: 0.2}}
			build, err := q.Spec.Factory()
			if err != nil {
				t.Fatal(err)
			}
			qi, err := local.AddQuery(2, runtime.QuerySpec{Name: q.Name, NewProtocol: build})
			wire.EncodeRequest(fw.Begin(), wire.Request{Op: wire.OpAddQuery, Seq: seq, TI: 2, Query: q})
			add(wire.OpAddQuery, ackFor(err, uint64(qi)), "")
			queries++
		default: // may name a slot already evicted: an error ack, same text
			qi := rng.Intn(queries)
			wire.EncodeRequest(fw.Begin(), wire.Request{Op: wire.OpRemoveQuery, Seq: seq, TI: 2, QI: qi})
			add(wire.OpRemoveQuery, ackFor(local.RemoveQuery(2, qi), 0), "")
		}
	}
	if err := local.Drain(); err != nil {
		t.Fatal(err)
	}
	return framed.Bytes(), ops, local.Report().Text()
}

// TestBurstEquivalence pins what coalescing must not change. One request
// stream reaches a live server one byte per write, one frame per write, one
// read buffer's worth per write and all at once; however the reads fall
// into bursts, replies return in request order, every frame gets the status
// and message a frame-at-a-time in-process node gives it (so a refused
// frame's neighbours, staged in the same burst, still applied), and the
// final report is byte-identical to that node's (so nothing applied twice).
func TestBurstEquivalence(t *testing.T) {
	cfg := runtime.Config{Shards: 2, Seed: 11}
	data, ops, wantFinal := burstScript(t, cfg)
	var ingestFrames, refused uint64
	for _, op := range ops {
		if op.hdr.Op == wire.OpIngest {
			ingestFrames++
			if op.want.Status == wire.StatusError {
				refused++
			}
		}
	}
	if refused < 20 {
		t.Fatalf("script refuses only %d frames", refused)
	}
	chunkings := []struct {
		name string
		cuts func() []int // offsets at which a write ends
	}{
		{"byte", func() []int {
			cuts := make([]int, len(data))
			for i := range cuts {
				cuts[i] = i + 1
			}
			return cuts
		}},
		{"frame", func() []int {
			cuts := make([]int, len(ops))
			for i, op := range ops {
				cuts[i] = op.end
			}
			return cuts
		}},
		{"16KiB", func() []int { // one read buffer's worth per write: frames straddle the cuts
			var cuts []int
			for at := 16 << 10; at < len(data); at += 16 << 10 {
				cuts = append(cuts, at)
			}
			return append(cuts, len(data))
		}},
		{"all", func() []int { return []int{len(data)} }},
	}
	for _, ch := range chunkings {
		t.Run(ch.name, func(t *testing.T) {
			s := startServer(t, cfg, compileSpecs(t, wireSpecs()), netserve.Options{})
			c := dialT(t, s.Addr().String())
			c.nc.SetDeadline(time.Now().Add(60 * time.Second))
			wrote := make(chan error, 1)
			go func() {
				at := 0
				for _, cut := range ch.cuts() {
					if _, err := c.nc.Write(data[at:cut]); err != nil {
						wrote <- err
						return
					}
					at = cut
				}
				wrote <- nil
			}()
			for i, op := range ops {
				r, hdr := c.read()
				if hdr.Op != wire.ReplyTo(op.hdr.Op) || hdr.Seq != op.hdr.Seq {
					t.Fatalf("reply %d: header %+v answers request %+v out of order", i, hdr, op.hdr)
				}
				rep, err := wire.DecodeReply(hdr, r)
				if err != nil {
					t.Fatal(err)
				}
				if op.hdr.Op == wire.OpReport && rep.Report.Text() != op.report {
					t.Fatalf("reply %d: mid-stream report diverges:\n got:\n%s\nwant:\n%s", i, rep.Report.Text(), op.report)
				}
				if got := rep.Ack; got != op.want {
					t.Fatalf("reply %d (op %d): ack %+v, frame-at-a-time reference says %+v", i, op.hdr.Op, got, op.want)
				}
			}
			if err := <-wrote; err != nil {
				t.Fatal(err)
			}
			if got := c.report().Text(); got != wantFinal {
				t.Fatalf("final report diverges from the in-process node:\n got:\n%s\nwant:\n%s", got, wantFinal)
			}
			st := s.Stats()
			if st.Frames != ingestFrames || st.Bursts == 0 || st.Bursts > st.Frames || st.ShedFrames != 0 || st.Flushes == 0 {
				t.Fatalf("server stats %+v, want %d ingest frames", st, ingestFrames)
			}
			if ch.name == "all" && st.Bursts*2 > st.Frames {
				t.Fatalf("server stats %+v: a single write was not coalesced", st)
			}
		})
	}
}

// TestWriteTimeoutAbortsStalledPeer pins the WriteTimeout contract: a peer
// that pipelines ingest and never reads its acks is aborted once the
// server has been blocked writing to it for WriteTimeout, and the control
// driver — which never touches a socket — keeps serving everyone else
// throughout. The peer sends far more acks' worth of frames than the write
// buffer holds, so the deadline has to be in force when an encode writes
// through, not only at the flush.
func TestWriteTimeoutAbortsStalledPeer(t *testing.T) {
	s := startServer(t, runtime.Config{Shards: 1, Seed: 1}, compileSpecs(t, wireSpecs()),
		netserve.Options{WriteTimeout: 100 * time.Millisecond})
	stalled := dialT(t, s.Addr().String())
	healthy := dialT(t, s.Addr().String())

	// One-event frames: the most ack bytes per request byte. The writer
	// stops when the server hangs up on it.
	var frames bytes.Buffer
	fw := wire.NewFrameWriter(&frames, 0)
	for i := 0; i < 2048; i++ {
		wire.EncodeIngest(fw.Begin(), uint64(1000+i), []runtime.Event{{Tenant: 0, Stream: 1, Value: float64(i)}})
		if err := fw.End(); err != nil {
			t.Fatal(err)
		}
	}
	fw.Flush()
	const giveUp = 20 * time.Second
	aborted := make(chan time.Duration, 1)
	go func() {
		start := time.Now()
		stalled.nc.SetWriteDeadline(start.Add(giveUp))
		for {
			if _, err := stalled.nc.Write(frames.Bytes()); err != nil {
				aborted <- time.Since(start)
				return
			}
		}
	}()

	healthy.nc.SetDeadline(time.Now().Add(giveUp))
	for served := 0; ; served++ {
		select {
		case took := <-aborted:
			if took >= giveUp {
				t.Fatalf("stalled peer was never aborted (writer gave up after %v)", took)
			}
			if served == 0 {
				t.Fatal("no control round completed while the peer was stalled")
			}
			// The frames acked into the void still applied; the server is
			// otherwise untouched.
			if rep := healthy.report(); len(rep.Tenants) != 3 || rep.Tenants[0].Events == 0 {
				t.Fatalf("report after the abort: %+v", rep)
			}
			return
		default:
		}
		// Each round trip goes through the driver; a wedged driver fails the
		// read deadline. (Stats rather than Report while the peer may still
		// be ingesting: Node.Report wants a quiesced node.)
		healthy.mustOK(request(wire.Request{Op: wire.OpDrain}))
		healthy.mustOK(request(wire.Request{Op: wire.OpStats}))
	}
}

// TestOversizeFrameClosesBurstBeforeIt pins the cap rule on its own: a
// frame that takes the staged burst past the cap is served separately from
// the small frames staged before it, in order, in the same read.
func TestOversizeFrameClosesBurstBeforeIt(t *testing.T) {
	s := startServer(t, runtime.Config{Shards: 1, Seed: 1}, compileSpecs(t, wireSpecs()), netserve.Options{})
	c := dialT(t, s.Addr().String())
	first := c.seq + 1
	sizes := []int{3, 4, 3 * netserve.BurstEvents}
	for _, n := range sizes {
		events := make([]runtime.Event, n)
		for i := range events {
			events[i] = runtime.Event{Tenant: 0, Stream: stream.ID(i % 40), Value: float64(i)}
		}
		wire.EncodeIngest(c.fw.Begin(), c.nextSeq(), events)
		if err := c.fw.End(); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.fw.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		r, hdr := c.read()
		if a, err := wire.DecodeAck(r); err != nil || a.Status != wire.StatusOK || hdr.Seq != first+uint64(i) {
			t.Fatalf("ack %d: %+v %+v %v", i, hdr, a, err)
		}
	}
	c.mustOK(request(wire.Request{Op: wire.OpDrain}))
	if st := s.Stats(); st.Frames != 3 || st.Bursts != 2 || st.Events != uint64(sizes[0]+sizes[1]+sizes[2]) {
		t.Fatalf("server stats %+v, want 3 frames in 2 bursts", st)
	}
}
