// Package netserve is the TCP front end of the serving plane: it exposes a
// runtime.Node over the internal/wire protocol so ingest, drain barriers,
// reports and tenant lifecycle arrive from the network instead of an
// in-process caller (DESIGN.md §9).
//
// # Threading
//
// runtime.Node ingests concurrently (one runtime.Ingester per caller) but
// keeps a single-goroutine contract for control ops — Drain, Report,
// lifecycle, snapshots. The server splits along exactly that line:
//
//	conn 1 ⇄ socket ──ingest──→ Node ←──┐
//	conn 2 ⇄ socket ──ingest──→ Node ←──┼── driver (control side)
//	conn 3 ⇄ socket ──control op, wait──┘
//
// Each connection is one goroutine that reads, ingests and writes. It owns
// a private runtime.Ingester and serves OpIngest itself, so ingest from K
// connections runs on K cores and never queues behind the driver. A control
// op goes to the single driver goroutine, the only caller into the node's
// control side; the connection waits, the driver hands the reply back, and
// the connection writes it. Only a connection's own goroutine ever touches
// its socket, so replies leave in request order by construction — the
// invariant pipelining clients match acks against — and a peer that stops
// reading can stall nobody but itself.
//
// # Bursts
//
// The unit of work is not a frame but a read burst: the run of complete
// frames already sitting in the connection's read buffer
// (wire.FrameReader.Ready). The connection decodes every OpIngest frame of
// the burst into one event buffer, remembering which events each frame
// brought, and closes the burst when going on would block on the socket,
// when a control op arrives, or when burstEvents events are staged. Closing
// a burst is one shed check and one Ingester.Ingest for all of it, then one
// ack frame per ingest frame, in request order. Ingest is all-or-nothing,
// so a refused burst is replayed frame by frame: the error ack lands on the
// frame that earned it, its neighbours apply, nothing applies twice. Acks
// collect in the write buffer and are flushed once, just before the
// connection blocks on the socket (or hands a control op to the driver). A
// burst never waits for more input: a client that sends one frame and
// waits gets its ack at once.
//
// Events on one connection apply in arrival order; a tenant fed from
// several connections interleaves at burst granularity in scheduling
// order, exactly the runtime.Ingester contract.
//
// # Backpressure
//
// Two regimes, deliberately different:
//
//   - Stall: the request queue is bounded. When the driver falls behind,
//     connections block enqueueing, stop draining their sockets, and TCP
//     flow control pushes back to the sender. Nothing is dropped.
//   - Shed: when the node's deepest shard backlog, counted in events,
//     reaches the shed watermark (by default the shard mailbox's capacity),
//     ingest is acked StatusShed and dropped before touching the node — a
//     burst at a time, every frame of it acked. Load shedding is visible to
//     the client (the ack says so) and to the operator (Stats.ShedFrames),
//     bounded in cost (the events die before the shard mailboxes), and
//     leaves non-ingest traffic — drains, reports, lifecycle — intact.
//
// The write deadline is armed once per burst, before the burst's first
// reply byte is encoded (the write buffer may write through mid-encode), so
// a connection whose peer stops reading replies is aborted after
// WriteTimeout. The driver never touches a socket and cannot be wedged by
// one.
package netserve

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"adaptivefilters/internal/runtime"
	"adaptivefilters/internal/wire"
)

// Options tunes a Server. The zero value is production-sane.
type Options struct {
	// ShedWatermark sheds ingest bursts while the node's deepest shard
	// backlog (runtime.Node.PendingEvents) is at or above this many events.
	// 0 means the node's mailbox capacity (runtime.Config.Queue) — shed
	// exactly when a shard mailbox is full and ingest would otherwise block
	// the connection. Negative disables shedding entirely.
	ShedWatermark int
	// WriteTimeout bounds how long a connection may block writing replies
	// to the socket before it is aborted (0 = 30s).
	WriteTimeout time.Duration
}

func (o Options) writeTimeout() time.Duration {
	if o.WriteTimeout <= 0 {
		return 30 * time.Second
	}
	return o.WriteTimeout
}

// burstEvents caps how many events a connection stages before it closes a
// burst. It bounds coalescing, not frame size: a frame that takes a burst
// over the cap is served on its own, never split. A burst's fixed cost —
// Ingest's lock pair and mailbox append, the write deadline, the counters —
// is paid once per burst, and a shard mailbox is bounded in events, so the
// node's heap does not depend on how large a burst is: the cap is sized to
// what one 16 KiB read delivers. Measured on wire-range (32-event frames):
// 256, 512 and 1024 all read 19–20 M events/s against 14.3 M at the old cap
// of 64; 512 has the lowest CPU per event (70.2 ns against 99.7), and
// 1024 costs +5.7 % heap against +2.7 % (this connection's buffer and the
// ingester's staging do grow with the cap) for nothing (DESIGN.md §9.2).
const burstEvents = 512

// queueDepth bounds the queue of control ops waiting for the driver;
// connections stall when it is full.
const queueDepth = 64

// staged is one ingest frame of the open burst: its header, the events it
// brought (buf[lo:hi]) and, once the burst has closed, why they were
// refused.
type staged struct {
	hdr    wire.Header
	lo, hi int
	err    error
}

// conn is one accepted connection, served by one goroutine.
type conn struct {
	nc net.Conn
	fr *wire.FrameReader
	fw *wire.FrameWriter
	// ing is the connection's private ingest handle; buf holds the open
	// burst's events and frames says which frame brought which (the ingester
	// copies events into the shard mailboxes, so both are reused and steady
	// state allocates nothing).
	ing    *runtime.Ingester
	buf    []runtime.Event
	frames []staged
	// unflushed is set while the write buffer may hold reply bytes.
	unflushed bool
	// req is the control op this connection forwarded to the driver and is
	// waiting on; handled carries the driver's reply back.
	req     wire.Request
	handled chan wire.Reply
}

// Stats counts what the ingest path has served since Serve. Frames ÷
// Bursts is the coalescing factor: how many ingest frames share one shed
// check, one Ingest call and one deadline.
type Stats struct {
	Frames     uint64 // ingest frames decoded
	Bursts     uint64 // bursts closed (shed checks made)
	Events     uint64 // events those frames carried
	ShedFrames uint64 // ingest frames acked StatusShed
	Flushes    uint64 // write-buffer flushes
}

// Server serves one runtime.Node over one listener. The caller owns the
// node's lifecycle: start it before Serve, stop it after Wait returns.
type Server struct {
	node *runtime.Node
	ln   net.Listener
	opts Options
	shed int

	reqs chan *conn // connections waiting on a control op
	done chan struct{}
	stop sync.Once
	wg   sync.WaitGroup

	mu    sync.Mutex
	conns map[*conn]struct{}

	// Bumped once per burst (or flush), never per frame or per event.
	frames, bursts, events, shedFrames, flushes atomic.Uint64
}

// Serve starts serving node on ln and returns immediately.
func Serve(ln net.Listener, node *runtime.Node, opts Options) *Server {
	s := &Server{
		node:  node,
		ln:    ln,
		opts:  opts,
		shed:  opts.ShedWatermark,
		reqs:  make(chan *conn, queueDepth),
		done:  make(chan struct{}),
		conns: make(map[*conn]struct{}),
	}
	if s.shed == 0 {
		s.shed = node.QueueCap()
	}
	s.wg.Add(2)
	go s.acceptLoop()
	go s.drive()
	return s
}

// Addr returns the listener's address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Stats returns the ingest path's counters so far. Safe from any goroutine.
func (s *Server) Stats() Stats {
	return Stats{
		Frames:     s.frames.Load(),
		Bursts:     s.bursts.Load(),
		Events:     s.events.Load(),
		ShedFrames: s.shedFrames.Load(),
		Flushes:    s.flushes.Load(),
	}
}

// Close stops the server: the listener closes, live connections abort,
// the driver exits. Safe to call more than once and from any goroutine.
func (s *Server) Close() {
	s.stop.Do(func() {
		close(s.done)
		s.ln.Close()
		s.mu.Lock()
		for c := range s.conns {
			c.nc.Close()
		}
		s.mu.Unlock()
	})
}

// Wait blocks until the server has fully stopped (Close was called or a
// client's Shutdown request was served).
func (s *Server) Wait() { s.wg.Wait() }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		c := &conn{
			nc:      nc,
			fr:      wire.NewFrameReader(nc, wire.DefaultMaxFrame),
			fw:      wire.NewFrameWriter(nc, wire.DefaultMaxFrame),
			ing:     s.node.NewIngester(),
			handled: make(chan wire.Reply),
		}
		s.mu.Lock()
		select {
		case <-s.done:
			s.mu.Unlock()
			nc.Close()
			return
		default:
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(c)
	}
}

func (s *Server) dropConn(c *conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// serveConn is a connection's one goroutine: it stages the ingest frames
// of each read burst, closes the burst (closeBurst) when it would block,
// hit the cap or met a control op, and forwards control ops to the driver,
// writing the reply the driver hands back. Anything that breaks the
// protocol — a corrupt frame, an unknown op, a malformed body — or a
// socket error aborts the connection; per-request failures (a bad tenant
// id, an admission the node refuses) are answered with error acks.
func (s *Server) serveConn(c *conn) {
	defer s.wg.Done()
	defer s.dropConn(c)
	defer c.nc.Close()
	for {
		if !c.fr.Ready() {
			// The next read may block: everything owed goes out first.
			if s.closeBurst(c) != nil || s.flush(c) != nil {
				return
			}
		}
		r, err := c.fr.Next()
		if err != nil {
			return
		}
		hdr, err := wire.DecodeHeader(r)
		if err != nil {
			return
		}
		if hdr.Op == wire.OpIngest {
			lo := len(c.buf)
			c.buf, err = wire.DecodeIngestInto(r, c.buf)
			if err != nil || r.Done() != nil {
				return
			}
			c.frames = append(c.frames, staged{hdr: hdr, lo: lo, hi: len(c.buf)})
			if len(c.buf) >= burstEvents && s.closeBurst(c) != nil {
				return
			}
			continue
		}
		if c.req, err = wire.DecodeRequest(hdr, r); err != nil {
			return // an unknown op, a malformed body or trailing garbage
		}
		// The control op must see every earlier ingest applied, and the
		// driver may take a while: acks already earned do not wait for it.
		if s.closeBurst(c) != nil || s.flush(c) != nil {
			return
		}
		select {
		case s.reqs <- c: // stall here is the backpressure path
		case <-s.done:
			return
		}
		var rep wire.Reply
		select {
		case rep = <-c.handled:
		case <-s.done:
			return
		}
		s.arm(c)
		wire.EncodeReply(c.fw.Begin(), rep)
		if c.fw.End() != nil {
			return
		}
		if hdr.Op == wire.OpShutdown {
			// Graceful shutdown: the ack goes out, then the server stops.
			s.flush(c)
			s.Close()
			return
		}
	}
}

// arm sets the write deadline for the reply bytes about to be encoded. It
// runs before the first of them, not at the flush: the write buffer writes
// through when it fills, so any encode may reach the socket.
func (s *Server) arm(c *conn) {
	c.nc.SetWriteDeadline(time.Now().Add(s.opts.writeTimeout()))
	c.unflushed = true
}

// flush pushes the buffered replies to the socket, under the deadline the
// last arm set.
func (s *Server) flush(c *conn) error {
	if !c.unflushed {
		return nil
	}
	c.unflushed = false
	s.flushes.Add(1)
	return c.fw.Flush()
}

// closeBurst serves the staged ingest frames: one shed check and one
// Ingest for all of them, then one ack per frame in request order. A frame
// that took the burst over burstEvents is served separately, after the
// frames before it.
func (s *Server) closeBurst(c *conn) error {
	frames := c.frames
	if len(frames) == 0 {
		return nil
	}
	var err error
	if n := len(frames) - 1; n > 0 && frames[n].hi > burstEvents {
		err = s.serveBurst(c, frames[:n])
		frames = frames[n:]
	}
	if err == nil {
		err = s.serveBurst(c, frames)
	}
	c.frames, c.buf = c.frames[:0], c.buf[:0]
	return err
}

func (s *Server) serveBurst(c *conn, frames []staged) error {
	events := c.buf[frames[0].lo:frames[len(frames)-1].hi]
	s.bursts.Add(1)
	s.frames.Add(uint64(len(frames)))
	s.events.Add(uint64(len(events)))
	status := wire.StatusOK
	if s.shed >= 0 && s.node.PendingEvents() >= s.shed {
		status = wire.StatusShed
		s.shedFrames.Add(uint64(len(frames)))
	} else if err := c.ing.Ingest(events); err != nil {
		// Ingest routes all or nothing, so nothing has applied. Replay the
		// burst a frame at a time: the frames that earned the refusal get it,
		// their neighbours apply, exactly once.
		for i := range frames {
			if len(frames) > 1 {
				err = c.ing.Ingest(c.buf[frames[i].lo:frames[i].hi])
			}
			frames[i].err = err
		}
	}
	s.arm(c)
	for i := range frames {
		f := &frames[i]
		st, msg := status, ""
		if f.err != nil {
			st, msg = wire.StatusError, f.err.Error()
		}
		wire.EncodeAck(c.fw.Begin(), f.hdr.Op, f.hdr.Seq, st, 0, msg)
		if err := c.fw.End(); err != nil {
			return err
		}
	}
	return nil
}

// drive is the hub: the single goroutine that talks to the Node's control
// side (connections ingest directly through their own handles). It never
// touches a socket — each reply goes back to the connection that asked —
// so no peer can wedge it. A refused op is answered with an error ack
// carrying the node's message.
func (s *Server) drive() {
	defer s.wg.Done()
	for {
		select {
		case c := <-s.reqs:
			rep, err := Apply(s.node, c.req)
			if err != nil {
				rep = wire.Reply{Op: c.req.Op, Seq: c.req.Seq,
					Ack: wire.Ack{Status: wire.StatusError, Msg: err.Error()}}
			}
			select {
			case c.handled <- rep: // the connection is waiting right here
			case <-s.done:
			}
		case <-s.done:
			return
		}
	}
}

// Apply runs one control request against node: the one place an op meets
// a runtime.Node, and where wire specs are compiled. It returns the reply
// with the request's op and sequence number, an admission's slot id in its
// Value, or the node's error when the op is refused. Apply drives the
// node's control side, so its caller must be that side's single goroutine
// (a Server's driver, or a cluster's router through a LocalMember).
// OpShutdown is a no-op here; stopping is the server's business.
func Apply(node *runtime.Node, req wire.Request) (wire.Reply, error) {
	rep := wire.Reply{Op: req.Op, Seq: req.Seq}
	var slot int
	var err error
	var spec runtime.TenantSpec
	switch req.Op {
	case wire.OpHello:
		rep.Shards, rep.Tenants = node.Shards(), node.NumTenants()
	case wire.OpDrain:
		err = node.Drain()
	case wire.OpReport:
		rep.Report = node.Report()
	case wire.OpShutdown:
	case wire.OpAddTenant:
		if spec, err = req.Tenant.Runtime(); err == nil {
			slot, err = node.AddTenant(spec)
		}
	case wire.OpAddTenantLabeled:
		if spec, err = req.Tenant.Runtime(); err == nil {
			slot, err = node.AddTenantLabeled(spec, req.Label)
		}
	case wire.OpImportTenant:
		if spec, err = req.Tenant.Runtime(); err == nil {
			slot, err = node.ImportTenant(spec, req.Snap)
		}
	case wire.OpAddQuery:
		if req.TI < 0 || req.TI >= node.NumTenants() || !node.Alive(req.TI) {
			return wire.Reply{}, fmt.Errorf("netserve: no live tenant %d", req.TI)
		}
		var q runtime.QuerySpec
		if q, err = req.Query.Runtime(node.StreamCount(req.TI)); err == nil {
			slot, err = node.AddQuery(req.TI, q)
		}
	case wire.OpRemoveTenant:
		err = node.RemoveTenant(req.TI)
	case wire.OpRemoveQuery:
		err = node.RemoveQuery(req.TI, req.QI)
	case wire.OpExportTenant:
		rep.Snap, err = node.ExportTenant(req.TI)
	case wire.OpStats:
		rep.Stats = wire.Stats{
			Pending:     node.PendingEvents(),
			QueueCap:    node.QueueCap(),
			TotalEvents: node.TotalEvents(),
			Tenants:     node.NumTenants(),
		}
	default:
		err = fmt.Errorf("netserve: op %d is not a control request", req.Op)
	}
	if err != nil {
		return wire.Reply{}, err
	}
	rep.Value = uint64(slot)
	return rep, nil
}
