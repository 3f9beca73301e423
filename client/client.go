// Package client is the Go client of the serving plane: batched,
// pipelined, reconnect-aware access to a netserve server over the
// internal/wire protocol (DESIGN.md §9).
//
// # Pipelining
//
// Ingest is asynchronous: it frames the batch, returns its sequence
// number, and lets up to Options.InflightEvents events ride the connection
// unacknowledged. A background reader matches acks to sequence numbers as
// they return and hands them to Options.OnIngestAck — the hook an
// open-loop load generator uses to timestamp completions without ever
// blocking the send path. A synchronous call (Do, one wire.Request per
// control op; Drain, Report and Shutdown are Do with the op filled in)
// flushes the pipeline and waits for its own reply; because the
// server answers each connection in request order, a Drain ack also
// proves every earlier ingest batch was accepted or shed.
//
// # Reconnect
//
// With Options.Reconnect, a broken connection fails all in-flight calls
// (pipelined ingest acks are reported to OnIngestAck as StatusLost — the
// client cannot know whether the server applied them) and redials in the
// background with constant backoff. Calls made while the link is down
// fail fast with ErrDisconnected; an open-loop generator counts those as
// lost sends and keeps pace, a closed-loop caller retries after the link
// returns.
package client

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"adaptivefilters/internal/runtime"
	"adaptivefilters/internal/wire"
)

// StatusLost is delivered to OnIngestAck for batches whose connection
// died before the ack returned: the client cannot know whether the server
// applied them. It is a client-side code, never on the wire.
const StatusLost byte = 0xFF

// ErrDisconnected fails calls made while the link is down (redialing or
// closed for good).
var ErrDisconnected = errors.New("client: not connected")

// ErrClosed fails calls made after Close.
var ErrClosed = errors.New("client: closed")

// Options tunes a Client. The zero value is usable.
type Options struct {
	// InflightEvents caps the events of unacknowledged pipelined ingest
	// batches: Ingest flushes and waits while the events in flight plus
	// its batch would pass it. A batch larger than the window goes out
	// alone, once nothing else is in flight. 0 means DefaultInflightEvents.
	InflightEvents int
	// OnIngestAck, when set, observes every ingest batch's completion:
	// the batch's sequence number and wire.StatusOK, wire.StatusShed,
	// wire.StatusError or StatusLost. Called on the reader goroutine —
	// keep it cheap and do not call back into the Client from it.
	OnIngestAck func(seq uint64, status byte)
	// Reconnect redials a broken connection in the background.
	Reconnect bool
	// RetryWait is the pause between redial attempts (0 = 100ms).
	RetryWait time.Duration
}

// DefaultInflightEvents is the ingest window when Options leaves it 0:
// four of the runtime's default shard mailboxes (runtime.DefaultQueue
// events each). A window of one mailbox stalls the pipeline whenever the
// shard's mailbox fills: the server's connection goroutine blocks posting,
// acks stop, and the client blocks on its window while the shard applies
// (DESIGN.md §9.3).
const DefaultInflightEvents = 4 * runtime.DefaultQueue

// flushBacklog is the count of events in flight past which Flush leaves
// the buffered frames to the client's flusher, which sends them once acks
// bring the count back under it: one default shard mailbox. Behind that
// much the server has work queued, and a paced sender that paid a socket
// write per batch while it catches up would take the CPU it needs
// (DESIGN.md §9.3). It must exceed what the 16 KiB write buffer can hold
// (1,638 events at the smallest, 10 bytes), so a deferred Flush always
// has frames on the wire whose acks will end the deferral.
const flushBacklog = runtime.DefaultQueue

func (o Options) inflightEvents() int {
	if o.InflightEvents <= 0 {
		return DefaultInflightEvents
	}
	return o.InflightEvents
}

func (o Options) retryWait() time.Duration {
	if o.RetryWait <= 0 {
		return 100 * time.Millisecond
	}
	return o.RetryWait
}

// result carries a synchronous call's reply.
type result struct {
	rep wire.Reply
	err error
}

// call is one request awaiting its reply.
type call struct {
	seq    uint64
	op     byte
	ch     chan result // nil for pipelined ingest
	events int         // a pipelined batch's share of the ingest window
}

// pendingRing is the FIFO of requests awaiting replies. The server answers
// each connection strictly in request order (ingest acks from the reader,
// control replies from the driver, never reordered), so the oldest pending
// call is always the one the next reply matches — a ring buffer replaces
// the seq→call map and its ever-growing-key rehash churn. The ring grows to
// the high-water count of batches in flight and is then allocation-free.
type pendingRing struct {
	buf  []call
	head int
	size int
}

// push appends a call at the tail.
func (r *pendingRing) push(cl call) {
	if r.size == len(r.buf) {
		grown := make([]call, max(16, 2*len(r.buf)))
		for i := 0; i < r.size; i++ {
			grown[i] = r.buf[(r.head+i)%len(r.buf)]
		}
		r.buf, r.head = grown, 0
	}
	r.buf[(r.head+r.size)%len(r.buf)] = cl
	r.size++
}

// peek returns the oldest pending call without removing it.
func (r *pendingRing) peek() (call, bool) {
	if r.size == 0 {
		return call{}, false
	}
	return r.buf[r.head], true
}

// pop removes and returns the oldest pending call.
func (r *pendingRing) pop() (call, bool) {
	if r.size == 0 {
		return call{}, false
	}
	cl := r.buf[r.head]
	r.buf[r.head] = call{} // release the result channel
	r.head = (r.head + 1) % len(r.buf)
	r.size--
	return cl, true
}

// dropTail rolls back the newest pending call if it carries seq — the
// unregister path for a frame that never made it onto the socket — and
// returns it. ok is false if nothing was removed (a disconnect may already
// have cleared it).
func (r *pendingRing) dropTail(seq uint64) (cl call, ok bool) {
	if r.size == 0 {
		return call{}, false
	}
	i := (r.head + r.size - 1) % len(r.buf)
	if cl = r.buf[i]; cl.seq != seq {
		return call{}, false
	}
	r.buf[i] = call{}
	r.size--
	return cl, true
}

// Stats counts ingest batch outcomes since Dial.
type Stats struct {
	Acked uint64 // StatusOK
	Shed  uint64 // StatusShed dropped by server backpressure
	Lost  uint64 // connection died before the ack
}

// Client is one connection to a netserve server. Methods are safe for
// concurrent use, though the intended shape is one ingest goroutine.
type Client struct {
	addr string
	opts Options

	// wmu serializes the send path: frame encoding, sequence assignment
	// and socket flushes.
	wmu sync.Mutex
	nc  net.Conn
	fw  *wire.FrameWriter
	seq uint64

	// pmu guards the pending ring, the ingest window (events of pipelined
	// batches not yet answered) and link state; cond signals window space
	// and state changes.
	pmu      sync.Mutex
	cond     *sync.Cond
	pending  pendingRing
	inflight int
	up       bool
	closed   bool
	stats    Stats
	// deferred is set while a Flush has left frames buffered; the reader
	// clears it and wakes the flusher through kick once the backlog is
	// back under flushBacklog. stopFlush ends the flusher with the reader.
	deferred  bool
	kick      chan struct{}
	stopFlush chan struct{}

	wg sync.WaitGroup
}

// Dial connects, performs the wire handshake and starts the reader and
// the flusher.
func Dial(addr string, opts Options) (*Client, error) {
	c := &Client{addr: addr, opts: opts, kick: make(chan struct{}, 1), stopFlush: make(chan struct{})}
	c.cond = sync.NewCond(&c.pmu)
	nc, fr, err := c.connect()
	if err != nil {
		return nil, err
	}
	c.nc = nc
	c.fw = wire.NewFrameWriter(nc, wire.DefaultMaxFrame)
	c.up = true
	c.wg.Add(2)
	go c.readLoop(fr)
	go c.flushLoop()
	return c, nil
}

// flushLoop sends the frames a deferred Flush left buffered, each time the
// reader says the backlog is back under flushBacklog. It writes, so the
// reader never has to: a reader blocked on a write could stop reading the
// acks the server is blocked writing.
func (c *Client) flushLoop() {
	defer c.wg.Done()
	for {
		select {
		case <-c.kick:
		case <-c.stopFlush:
			return
		}
		// A failed write means a broken connection, which the reader
		// reports by failing every pending call.
		c.wmu.Lock()
		_ = c.fw.Flush()
		c.wmu.Unlock()
	}
}

// connect dials and completes the Hello exchange on a fresh socket.
func (c *Client) connect() (net.Conn, *wire.FrameReader, error) {
	nc, err := net.Dial("tcp", c.addr)
	if err != nil {
		return nil, nil, err
	}
	fw := wire.NewFrameWriter(nc, wire.DefaultMaxFrame)
	wire.EncodeRequest(fw.Begin(), wire.Request{Op: wire.OpHello})
	if err := fw.End(); err == nil {
		err = fw.Flush()
	}
	if err != nil {
		nc.Close()
		return nil, nil, err
	}
	fr := wire.NewFrameReader(nc, wire.DefaultMaxFrame)
	r, err := fr.Next()
	if err != nil {
		nc.Close()
		return nil, nil, fmt.Errorf("client: handshake: %w", err)
	}
	hdr, err := wire.DecodeHeader(r)
	if err == nil && hdr.Op != wire.ReplyTo(wire.OpHello) {
		err = fmt.Errorf("client: handshake reply has op %d", hdr.Op)
	}
	if err == nil {
		var rep wire.Reply
		if rep, err = wire.DecodeReply(hdr, r); err == nil && rep.Status != wire.StatusOK {
			err = fmt.Errorf("client: server refused hello: %s", rep.Msg)
		}
	}
	if err != nil {
		nc.Close()
		return nil, nil, err
	}
	return nc, fr, nil
}

// Close tears the client down: in-flight calls fail, the reader exits, no
// redial. Safe to call more than once.
func (c *Client) Close() error {
	c.pmu.Lock()
	if c.closed {
		c.pmu.Unlock()
		return nil
	}
	c.closed = true
	c.failPendingLocked(ErrClosed)
	nc := c.nc
	c.pmu.Unlock()
	if nc != nil {
		nc.Close()
	}
	c.wg.Wait()
	return nil
}

// Stats returns ingest outcome counts so far.
func (c *Client) Stats() Stats {
	c.pmu.Lock()
	defer c.pmu.Unlock()
	return c.stats
}

// failPendingLocked fails every outstanding call, oldest first; pmu held.
func (c *Client) failPendingLocked(err error) {
	for {
		cl, ok := c.pending.pop()
		if !ok {
			break
		}
		if cl.ch != nil {
			cl.ch <- result{err: err}
			continue
		}
		c.stats.Lost++
		if c.opts.OnIngestAck != nil {
			c.opts.OnIngestAck(cl.seq, StatusLost)
		}
	}
	c.inflight = 0
	c.deferred = false
	c.up = false
	c.cond.Broadcast()
}

// readLoop matches replies to pending calls; on connection failure it
// fails in-flight work and, when Reconnect is set, redials until Close.
func (c *Client) readLoop(fr *wire.FrameReader) {
	defer c.wg.Done()
	defer close(c.stopFlush)
	for {
		err := c.readReplies(fr)
		c.pmu.Lock()
		c.failPendingLocked(err)
		if c.closed || !c.opts.Reconnect {
			c.closed = true
			c.cond.Broadcast()
			c.pmu.Unlock()
			return
		}
		c.pmu.Unlock()
		var nc net.Conn
		for {
			if nc, fr, err = c.connect(); err == nil {
				break
			}
			c.pmu.Lock()
			closed := c.closed
			c.pmu.Unlock()
			if closed {
				return
			}
			time.Sleep(c.opts.retryWait())
		}
		c.wmu.Lock()
		c.pmu.Lock()
		if c.closed {
			c.pmu.Unlock()
			c.wmu.Unlock()
			nc.Close()
			return
		}
		c.nc = nc
		c.fw = wire.NewFrameWriter(nc, wire.DefaultMaxFrame)
		c.up = true
		c.cond.Broadcast()
		c.pmu.Unlock()
		c.wmu.Unlock()
	}
}

// readReplies consumes one connection's reply stream until it breaks.
func (c *Client) readReplies(fr *wire.FrameReader) error {
	for {
		r, err := fr.Next()
		if err != nil {
			return err
		}
		hdr, err := wire.DecodeHeader(r)
		if err != nil {
			return err
		}
		// Replies arrive in request order, so the reply must match the
		// oldest pending call. A mismatch leaves the call in the ring for
		// failPendingLocked, so a waiting Do still gets its error.
		c.pmu.Lock()
		cl, ok := c.pending.peek()
		if ok && cl.seq == hdr.Seq && hdr.Op == wire.ReplyTo(cl.op) {
			c.pending.pop()
		} else {
			ok = false
		}
		c.pmu.Unlock()
		if !ok {
			return fmt.Errorf("client: reply (op=%d seq=%d) matches no request", hdr.Op, hdr.Seq)
		}
		var res result
		res.rep, res.err = wire.DecodeReply(hdr, r)
		if res.err != nil {
			if cl.ch != nil {
				cl.ch <- res
			}
			return res.err
		}
		if cl.ch != nil {
			cl.ch <- res
			continue
		}
		c.pmu.Lock()
		c.inflight -= cl.events
		if c.deferred && c.inflight <= flushBacklog {
			c.deferred = false
			select {
			case c.kick <- struct{}{}:
			default: // the flusher is already due to run
			}
		}
		switch res.rep.Status {
		case wire.StatusShed:
			c.stats.Shed++
		default:
			c.stats.Acked++
		}
		c.cond.Signal()
		c.pmu.Unlock()
		if c.opts.OnIngestAck != nil {
			c.opts.OnIngestAck(hdr.Seq, res.rep.Status)
		}
	}
}

// register installs a pending call under a fresh sequence number and
// charges its events to the ingest window. The caller must hold wmu (so
// the frame goes out after registration, and no reply can race ahead of
// it).
func (c *Client) register(cl call) (uint64, error) {
	c.pmu.Lock()
	defer c.pmu.Unlock()
	if c.closed {
		return 0, ErrClosed
	}
	if !c.up {
		return 0, ErrDisconnected
	}
	c.seq++
	cl.seq = c.seq
	c.pending.push(cl)
	c.inflight += cl.events
	return c.seq, nil
}

// unregister rolls back a registration whose frame never made it out. The
// caller still holds wmu, so the registration is necessarily the newest
// pending call (nothing can have registered behind it).
func (c *Client) unregister(seq uint64) {
	c.pmu.Lock()
	if cl, ok := c.pending.dropTail(seq); ok {
		c.inflight -= cl.events
		c.cond.Signal()
	}
	c.pmu.Unlock()
}

// Ingest frames one event batch onto the pipeline and returns its
// sequence number without waiting for the ack. While the events in flight
// plus this batch would pass the window it flushes and blocks until acks
// open space; a batch larger than the whole window waits until nothing
// else is in flight. The batch is encoded before return; the caller may
// reuse the slice immediately.
func (c *Client) Ingest(events []runtime.Event) (uint64, error) {
	// Wait for window space outside wmu so acks can drain.
	c.pmu.Lock()
	for c.windowFullLocked(len(events)) {
		c.pmu.Unlock()
		if err := c.flush(false); err != nil {
			return 0, err
		}
		c.pmu.Lock()
		if c.windowFullLocked(len(events)) {
			c.cond.Wait()
		}
	}
	c.pmu.Unlock()

	c.wmu.Lock()
	defer c.wmu.Unlock()
	seq, err := c.register(call{op: wire.OpIngest, events: len(events)})
	if err != nil {
		return 0, err
	}
	wire.EncodeIngest(c.fw.Begin(), seq, events)
	if err := c.fw.End(); err != nil {
		c.unregister(seq)
		return 0, err
	}
	return seq, nil
}

// windowFullLocked reports whether a batch of n events must wait: the link
// is up and other events are in flight that, with these, would pass the
// window. pmu held.
func (c *Client) windowFullLocked(n int) bool {
	return c.up && !c.closed && c.inflight > 0 && c.inflight+n > c.opts.inflightEvents()
}

// Flush pushes buffered frames to the socket. While more than one shard
// mailbox of events (flushBacklog) is in flight it leaves them buffered
// instead, and the client sends them as soon as acks bring the backlog
// under that: the server has work queued either way.
func (c *Client) Flush() error { return c.flush(true) }

// flush is Flush; mayDefer lets it leave the frames to the flusher. Ingest
// waiting on a full window flushes at once: it is about to block anyway,
// and holding its frames back cost saturated `wire-range` 3 % of its
// events/s.
func (c *Client) flush(mayDefer bool) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.pmu.Lock()
	up := c.up && !c.closed
	if up && mayDefer && c.inflight > flushBacklog {
		c.deferred = true
		c.pmu.Unlock()
		return nil
	}
	c.pmu.Unlock()
	if !up {
		return ErrDisconnected
	}
	return c.fw.Flush()
}

// Do performs one synchronous control request — any op but OpIngest,
// which pipelines through Ingest — and returns the server's reply. The
// client assigns req.Seq; an error ack comes back as an error.
func (c *Client) Do(req wire.Request) (wire.Reply, error) {
	if req.Op == wire.OpIngest {
		return wire.Reply{}, errors.New("client: ingest goes through Ingest, not Do")
	}
	ch := make(chan result, 1)
	c.wmu.Lock()
	seq, err := c.register(call{op: req.Op, ch: ch})
	if err != nil {
		c.wmu.Unlock()
		return wire.Reply{}, err
	}
	req.Seq = seq
	wire.EncodeRequest(c.fw.Begin(), req)
	if err := c.fw.End(); err == nil {
		err = c.fw.Flush()
	}
	if err != nil {
		c.wmu.Unlock()
		c.unregister(seq)
		return wire.Reply{}, err
	}
	c.wmu.Unlock()
	res := <-ch
	if res.err == nil {
		res.err = res.rep.Err()
	}
	if res.err != nil {
		return wire.Reply{}, res.err
	}
	return res.rep, nil
}

// Drain asks the server to apply everything ingested so far and waits for
// the barrier ack; it also proves every earlier pipelined batch on this
// connection was answered.
func (c *Client) Drain() error {
	_, err := c.Do(wire.Request{Op: wire.OpDrain})
	return err
}

// Report drains nothing by itself: call Drain first for a stable answer.
// The decoded report renders (Report.Text) byte-identically to an
// in-process run of the same node.
func (c *Client) Report() (*runtime.Report, error) {
	rep, err := c.Do(wire.Request{Op: wire.OpReport})
	return rep.Report, err
}

// Shutdown asks the server to stop, waits for the ack, then closes the
// client (suppressing any redial).
func (c *Client) Shutdown() error {
	_, err := c.Do(wire.Request{Op: wire.OpShutdown})
	c.Close()
	return err
}
