package client_test

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"adaptivefilters/client"
	"adaptivefilters/internal/runtime"
	"adaptivefilters/internal/wire"
)

// heldFrame is one ingest frame a holdServer has read and not yet acked.
type heldFrame struct {
	seq    uint64
	events int
}

// holdServer answers the wire handshake and then acknowledges ingest
// frames only when the test says so, so a test decides exactly when the
// client's window opens. It serves one connection at a time.
type holdServer struct {
	ln net.Listener
	// frames holds every frame a test sends before it reads any back; stop
	// releases a serve blocked on it once the test is over.
	frames chan heldFrame
	stop   chan struct{}

	mu sync.Mutex
	nc net.Conn
	fw *wire.FrameWriter
}

func startHoldServer(t *testing.T) *holdServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	h := &holdServer{ln: ln, frames: make(chan heldFrame, 64), stop: make(chan struct{})}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			h.serve(nc)
		}
	}()
	t.Cleanup(func() {
		close(h.stop)
		ln.Close()
		h.drop()
		<-done
	})
	return h
}

// serve greets one connection and reads its ingest frames until it breaks.
func (h *holdServer) serve(nc net.Conn) {
	fr := wire.NewFrameReader(nc, 0)
	fw := wire.NewFrameWriter(nc, 0)
	r, err := fr.Next()
	if err != nil {
		nc.Close()
		return
	}
	hdr, err := wire.DecodeHeader(r)
	if err != nil {
		nc.Close()
		return
	}
	h.mu.Lock()
	h.nc, h.fw = nc, fw
	wire.EncodeReply(fw.Begin(), wire.Reply{Op: wire.OpHello, Seq: hdr.Seq, Shards: 1})
	if fw.End() == nil {
		fw.Flush()
	}
	h.mu.Unlock()
	var events []runtime.Event
	for {
		r, err := fr.Next()
		if err != nil {
			nc.Close()
			return
		}
		hdr, err := wire.DecodeHeader(r)
		if err != nil || hdr.Op != wire.OpIngest {
			nc.Close()
			return
		}
		if events, err = wire.DecodeIngestInto(r, events[:0]); err != nil {
			nc.Close()
			return
		}
		select {
		case h.frames <- heldFrame{seq: hdr.Seq, events: len(events)}:
		case <-h.stop:
			nc.Close()
			return
		}
	}
}

// next returns the next ingest frame the server read.
func (h *holdServer) next(t *testing.T) heldFrame {
	t.Helper()
	select {
	case f := <-h.frames:
		return f
	case <-time.After(5 * time.Second):
		t.Fatal("no ingest frame reached the server")
		return heldFrame{}
	}
}

// ack answers one held frame StatusOK.
func (h *holdServer) ack(t *testing.T, f heldFrame) {
	t.Helper()
	h.mu.Lock()
	defer h.mu.Unlock()
	wire.EncodeAck(h.fw.Begin(), wire.OpIngest, f.seq, wire.StatusOK, 0, "")
	err := h.fw.End()
	if err == nil {
		err = h.fw.Flush()
	}
	if err != nil {
		t.Fatal(err)
	}
}

// drop breaks the current connection without answering what it holds.
func (h *holdServer) drop() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.nc != nil {
		h.nc.Close()
	}
}

// batch is n events of tenant 0.
func batch(n int) []runtime.Event {
	return make([]runtime.Event, n)
}

// ingestAsync runs Ingest on its own goroutine; the channel yields its
// error once it returns.
func ingestAsync(c *client.Client, events []runtime.Event) <-chan error {
	done := make(chan error, 1)
	go func() {
		_, err := c.Ingest(events)
		done <- err
	}()
	return done
}

// blocked fails unless done stays silent for a while: the Ingest behind it
// is waiting on the window.
func blocked(t *testing.T, done <-chan error, what string) {
	t.Helper()
	select {
	case err := <-done:
		t.Fatalf("%s returned (%v) with the window full", what, err)
	case <-time.After(50 * time.Millisecond):
	}
}

// returned waits for the Ingest behind done and fails on its error.
func returned(t *testing.T, done <-chan error, what string) {
	t.Helper()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("%s still blocked after the window opened", what)
	}
}

func mustIngest(t *testing.T, c *client.Client, n int) {
	t.Helper()
	if _, err := c.Ingest(batch(n)); err != nil {
		t.Fatal(err)
	}
}

func mustFlush(t *testing.T, c *client.Client) {
	t.Helper()
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestIngestWindowCountsEvents fills a 10-event window with batches of 4
// and 6 events — exactly the window, so neither waits — and checks that a
// one-event batch then blocks until an ack gives 4 events back.
func TestIngestWindowCountsEvents(t *testing.T) {
	h := startHoldServer(t)
	c, err := client.Dial(h.ln.Addr().String(), client.Options{InflightEvents: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	mustIngest(t, c, 4)
	mustIngest(t, c, 6)
	mustFlush(t, c)
	f1, f2 := h.next(t), h.next(t)
	if f1.events != 4 || f2.events != 6 {
		t.Fatalf("server read batches of %d and %d events, want 4 and 6", f1.events, f2.events)
	}

	done := ingestAsync(c, batch(1))
	blocked(t, done, "Ingest of 1 event past a full 10-event window")
	h.ack(t, f1)
	returned(t, done, "Ingest of 1 event")
	mustFlush(t, c)
	if f3 := h.next(t); f3.events != 1 {
		t.Fatalf("third batch carried %d events, want 1", f3.events)
	}

	// 6 + 1 events are in flight: 3 more fit, 4 do not.
	mustIngest(t, c, 3)
	done = ingestAsync(c, batch(1))
	blocked(t, done, "Ingest of 1 event past 6+1+3 in a 10-event window")
	h.ack(t, f2)
	returned(t, done, "Ingest of 1 event")
}

// TestIngestOversizedBatchGoesAlone sends a batch larger than the whole
// window: it waits until nothing else is in flight, then goes out on its
// own, and the next batch waits for its ack.
func TestIngestOversizedBatchGoesAlone(t *testing.T) {
	h := startHoldServer(t)
	acked := make(chan uint64, 16) // OnIngestAck must not block the reader
	c, err := client.Dial(h.ln.Addr().String(), client.Options{
		InflightEvents: 4,
		OnIngestAck:    func(seq uint64, _ byte) { acked <- seq },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	mustIngest(t, c, 1)
	mustFlush(t, c)
	f1 := h.next(t)

	done := ingestAsync(c, batch(10))
	blocked(t, done, "Ingest of 10 events beside 1 in flight")
	h.ack(t, f1)
	returned(t, done, "Ingest of 10 events into an empty 4-event window")
	mustFlush(t, c)
	f2 := h.next(t)
	if f2.events != 10 {
		t.Fatalf("oversized batch carried %d events, want 10", f2.events)
	}

	done = ingestAsync(c, batch(1))
	blocked(t, done, "Ingest of 1 event behind an oversized batch")
	h.ack(t, f2)
	returned(t, done, "Ingest of 1 event")
	mustFlush(t, c)
	f3 := h.next(t)
	h.ack(t, f3)

	for _, want := range []uint64{f1.seq, f2.seq, f3.seq} {
		select {
		case seq := <-acked:
			if seq != want {
				t.Fatalf("ack for batch %d, want %d", seq, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("batch %d was never acked", want)
		}
	}
}

// TestLostBatchesGiveWindowBack fills the window, breaks the connection
// under it and checks the batches come back StatusLost and their events
// leave the window: after the redial a full-window batch goes out at once.
func TestLostBatchesGiveWindowBack(t *testing.T) {
	h := startHoldServer(t)
	statuses := make(chan byte, 16) // OnIngestAck must not block the reader
	c, err := client.Dial(h.ln.Addr().String(), client.Options{
		InflightEvents: 4,
		Reconnect:      true,
		RetryWait:      5 * time.Millisecond,
		OnIngestAck:    func(_ uint64, status byte) { statuses <- status },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	mustIngest(t, c, 4)
	mustFlush(t, c)
	h.next(t)
	h.drop()
	select {
	case st := <-statuses:
		if st != client.StatusLost {
			t.Fatalf("held batch answered %d, want StatusLost", st)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the broken connection's batch was never reported")
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		done := ingestAsync(c, batch(4))
		var err error
		select {
		case err = <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("Ingest blocked on a window the lost batch should have released")
		}
		if err == nil {
			break
		}
		if !errors.Is(err, client.ErrDisconnected) {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("client never reconnected")
		}
		time.Sleep(time.Millisecond)
	}
	mustFlush(t, c)
	f := h.next(t)
	if f.events != 4 {
		t.Fatalf("batch after the redial carried %d events, want 4", f.events)
	}
	h.ack(t, f)
	select {
	case st := <-statuses:
		if st != wire.StatusOK {
			t.Fatalf("batch after the redial answered %d, want StatusOK", st)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("batch after the redial was never acked")
	}
	if st := c.Stats(); st.Lost != 1 || st.Acked != 1 {
		t.Fatalf("stats = %+v, want 1 lost and 1 acked", st)
	}
}

// TestFlushDefersBehindAMailbox checks Flush's backlog rule: with more
// than a shard mailbox (4,096 events) sent and unanswered, Flush leaves a
// small batch buffered, and the client sends it by itself as soon as an
// ack brings the backlog under that.
func TestFlushDefersBehindAMailbox(t *testing.T) {
	h := startHoldServer(t)
	c, err := client.Dial(h.ln.Addr().String(), client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	mustIngest(t, c, 4000) // past the 16 KiB write buffer: written through
	mustFlush(t, c)
	f1 := h.next(t)
	mustIngest(t, c, 200) // 4,200 in flight
	mustFlush(t, c)
	select {
	case f := <-h.frames:
		t.Fatalf("Flush sent a %d-event batch with 4,200 events in flight", f.events)
	case <-time.After(50 * time.Millisecond):
	}
	h.ack(t, f1)
	if f2 := h.next(t); f2.events != 200 {
		t.Fatalf("deferred batch carried %d events, want 200", f2.events)
	}
}
