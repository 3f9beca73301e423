// Wire mode: the -listen and -connect halves of the serving plane. Both
// ends are configured with the same flags; the listener hosts the tenants
// on a runtime.Node behind internal/netserve, the connector plays their
// workloads at it through the client package as an open-loop load
// generator — one lane per connection.
package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"slices"
	"sync"
	"time"

	"adaptivefilters/client"
	"adaptivefilters/internal/netserve"
	"adaptivefilters/internal/runtime"
	"adaptivefilters/internal/wire"
)

// runListen hosts the configured node behind a TCP front end and serves
// until a client's -shutdown request or SIGINT. The resolved address is
// printed first (so -listen :0 runs are scriptable); with -ready-file it is
// also written to a file once the listener is accepting, so scripts can
// poll for readiness instead of sleeping. After serving stops the node's
// own report is rendered — byte-comparable against both an in-process run
// and a report fetched over the wire.
func runListen(p simParams, stdout io.Writer) error {
	ts, err := p.buildTenants()
	if err != nil {
		return err
	}
	ctx, stopSig := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stopSig()
	node, err := startNode(ctx, p, ts, stdout)
	if err != nil {
		return err
	}
	defer node.Stop()
	ln, err := net.Listen("tcp", p.Listen)
	if err != nil {
		return err
	}
	s := netserve.Serve(ln, node, netserve.Options{})
	defer context.AfterFunc(ctx, s.Close)()
	fmt.Fprintf(stdout, "listening:  %s   tenants=%d queries/tenant=%d shards=%d\n",
		s.Addr(), p.Tenants, p.Queries, node.Shards())
	if p.ReadyFile != "" {
		// Written after Serve: the listener accepts from this point on, so a
		// reader that sees the file can connect without racing the server.
		// Write-then-rename keeps partial reads impossible.
		tmp := p.ReadyFile + ".tmp"
		if err := os.WriteFile(tmp, []byte(s.Addr().String()+"\n"), 0o644); err != nil {
			return err
		}
		if err := os.Rename(tmp, p.ReadyFile); err != nil {
			return err
		}
	}
	s.Wait()
	// The driver goroutine has exited (Wait synchronizes with it), so the
	// node is ours to inspect again.
	fmt.Fprintf(stdout, "served:     %d events applied\n", node.TotalEvents())
	return p.finish(stdout, node.Report(), ts)
}

// sendRec records one in-flight batch: its intended deadline and event
// count, keyed by ingest sequence number until the ack lands.
type sendRec struct {
	due time.Time
	n   int
}

// ackRec parks an ack that arrived before the sender recorded the batch's
// deadline (Ingest returns the sequence number after the frame is out).
type ackRec struct {
	at     time.Time
	status byte
}

// wireConn is one -connect connection — one lane: a pipelined client plus
// the ack bookkeeping its reader goroutine and sender goroutine share.
type wireConn struct {
	cl *client.Client
	// Open-loop pacing (-rate): batch i is due at start + i·gap, start
	// being the first send; gap 0 is unpaced.
	gap   time.Duration
	start time.Time

	mu                   sync.Mutex
	inflight             map[uint64]sendRec
	early                map[uint64]ackRec
	samples              []float64
	okEv, shedEv, lostEv uint64

	// Sender-goroutine-only counters, read after the sender joins.
	batches, sentEv, droppedEv uint64
}

// dialWireConn dials one connection and wires its ack callback into the
// connection's own bookkeeping, so connections never contend on a lock.
func dialWireConn(addr string, gap time.Duration) (*wireConn, error) {
	wc := &wireConn{
		gap:      gap,
		inflight: make(map[uint64]sendRec),
		early:    make(map[uint64]ackRec),
	}
	cl, err := client.Dial(addr, client.Options{
		Reconnect: true,
		OnIngestAck: func(seq uint64, status byte) {
			at := time.Now()
			wc.mu.Lock()
			if rec, ok := wc.inflight[seq]; ok {
				delete(wc.inflight, seq)
				wc.settle(rec, at, status)
			} else {
				wc.early[seq] = ackRec{at, status}
			}
			wc.mu.Unlock()
		},
	})
	if err != nil {
		return nil, err
	}
	wc.cl = cl
	return wc, nil
}

// settle accounts one acked batch. Caller holds wc.mu.
func (wc *wireConn) settle(rec sendRec, at time.Time, status byte) {
	switch status {
	case wire.StatusOK:
		wc.okEv += uint64(rec.n)
		wc.samples = append(wc.samples, float64(at.Sub(rec.due)))
	case wire.StatusShed:
		wc.shedEv += uint64(rec.n)
	default:
		wc.lostEv += uint64(rec.n)
	}
}

// Ingest sends one batch as an open-loop sender: the batch is due at its
// scheduled instant regardless of how long earlier sends took, and its
// ack's latency is measured against that intended deadline — a stalled
// server inflates the recorded percentiles instead of silently slowing the
// generator down (coordinated omission is measured, not hidden). Unpaced,
// the deadline is the send instant and the pipeline runs as fast as the
// window allows.
func (wc *wireConn) Ingest(events []runtime.Event) error {
	due := time.Now()
	if wc.gap > 0 {
		if wc.batches == 0 {
			wc.start = due
		}
		due = wc.start.Add(time.Duration(wc.batches) * wc.gap)
		time.Sleep(time.Until(due))
	}
	wc.batches++
	n := len(events)
	seq, err := wc.cl.Ingest(events)
	if errors.Is(err, client.ErrDisconnected) {
		// The link is redialing: drop the batch and keep pace rather than
		// stalling the schedule.
		wc.droppedEv += uint64(n)
		return nil
	}
	if err != nil {
		return err
	}
	wc.sentEv += uint64(n)
	wc.mu.Lock()
	if a, ok := wc.early[seq]; ok {
		delete(wc.early, seq)
		wc.settle(sendRec{due, n}, a.at, a.status)
	} else {
		wc.inflight[seq] = sendRec{due, n}
	}
	wc.mu.Unlock()
	return nil
}

// wireConns is the -connect target: the remote node, seen through every
// connection the lanes sent on.
type wireConns []*wireConn

// Drain is the barrier: each connection's drain ack proves every earlier
// pipelined batch on that connection was answered, so a report fetched
// afterwards is stable.
func (cs wireConns) Drain() error {
	for _, wc := range cs {
		if err := retryWire(wc.cl.Drain); err != nil {
			return err
		}
	}
	return nil
}

func (cs wireConns) Report() (rep *runtime.Report, err error) {
	err = retryWire(func() error {
		rep, err = cs[0].cl.Report()
		return err
	})
	return rep, err
}

func (cs wireConns) Close() {
	for _, wc := range cs {
		wc.cl.Close()
	}
}

// runConnect plays the configured workload against a remote -listen process
// over -conns pipelined connections, concurrently against the server's
// per-connection readers. The remote process, started with the same flags,
// owns the node; only the traces are used here. The open-loop rate
// budget is global: each connection paces at rate/conns.
func runConnect(p simParams, stdout io.Writer) error {
	ts, err := p.buildTenants()
	if err != nil {
		return err
	}
	nconn := p.Conns
	if nconn > p.Tenants {
		nconn = p.Tenants // an idle extra connection would only add noise
	}
	var gap time.Duration
	rateLabel := "unpaced"
	if p.Rate > 0 {
		gap = time.Duration(float64(p.Batch) * float64(nconn) / p.Rate * float64(time.Second))
		rateLabel = fmt.Sprintf("%.0f events/sec", p.Rate)
	}
	var conns wireConns
	defer func() { conns.Close() }()
	for len(conns) < nconn {
		wc, err := dialWireConn(p.Connect, gap)
		if err != nil {
			return err
		}
		conns = append(conns, wc)
	}
	fmt.Fprintf(stdout, "connected:  %s   tenants=%d queries/tenant=%d batch=%d conns=%d rate=%s\n",
		p.Connect, p.Tenants, p.Queries, p.Batch, nconn, rateLabel)

	lanes := make([]lane, nconn)
	for c, wc := range conns {
		lanes[c] = wc
	}
	res, err := p.play(lanes, conns, ts, 0, nil)
	if err != nil {
		return err
	}

	var samples []float64
	var okEvents, shedEvents, lostEvents uint64
	var batches, sentEv, droppedEv uint64
	var ackedB, shedB, lostB uint64
	for _, wc := range conns {
		wc.mu.Lock()
		samples = append(samples, wc.samples...)
		okEvents += wc.okEv
		shedEvents += wc.shedEv
		lostEvents += wc.lostEv
		wc.mu.Unlock()
		batches += wc.batches
		sentEv += wc.sentEv
		droppedEv += wc.droppedEv
		st := wc.cl.Stats()
		ackedB += st.Acked
		shedB += st.Shed
		lostB += st.Lost
	}
	p50, p99, p999 := latencyPercentiles(samples)

	fmt.Fprintf(stdout, "sent:       %d events in %d batches (%d events dropped while disconnected)\n",
		sentEv, batches, droppedEv)
	fmt.Fprintf(stdout, "acks:       ok=%d shed=%d lost=%d batches (events ok=%d shed=%d lost=%d)\n",
		ackedB, shedB, lostB, okEvents, shedEvents, lostEvents)
	fmt.Fprintf(stdout, "throughput: %.0f events/sec applied in %v\n",
		float64(okEvents)/res.elapsed.Seconds(), res.elapsed.Round(time.Millisecond))
	if len(samples) > 0 {
		fmt.Fprintf(stdout, "latency:    p50=%v p99=%v p999=%v over %d acks (vs intended deadlines)\n",
			time.Duration(p50).Round(time.Microsecond),
			time.Duration(p99).Round(time.Microsecond),
			time.Duration(p999).Round(time.Microsecond), len(samples))
	}
	if err := p.finish(stdout, res.report, ts); err != nil {
		return err
	}
	if p.Shutdown {
		if err := conns[0].cl.Shutdown(); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "shutdown:   remote acknowledged")
	}
	return nil
}

// latencyPercentiles reduces ack latencies to their p50/p99/p999 by nearest
// rank — the smallest sample at least that share of the samples are ≤ — as
// benchmark/ does. The rank is ⌈p·n⌉ with p in per-mille, taken in integers
// so a float product like 0.99·n cannot step over an integer. The input is
// not modified; no samples yield zeros.
func latencyPercentiles(samples []float64) (p50, p99, p999 float64) {
	if len(samples) == 0 {
		return 0, 0, 0
	}
	sorted := slices.Sorted(slices.Values(samples))
	at := func(perMille int) float64 { return sorted[(perMille*len(sorted)+999)/1000-1] }
	return at(500), at(990), at(999)
}

// retryWire retries a synchronous call across a background redial: while
// the link is down calls fail fast with ErrDisconnected, so a closed-loop
// step like the final drain/report waits the reconnect out.
func retryWire(f func() error) error {
	var err error
	for i := 0; i < 100; i++ {
		if err = f(); !errors.Is(err, client.ErrDisconnected) {
			return err
		}
		time.Sleep(100 * time.Millisecond)
	}
	return err
}
