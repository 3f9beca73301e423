package bench_test

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"adaptivefilters/client"
	"adaptivefilters/internal/bench"
	"adaptivefilters/internal/netserve"
	"adaptivefilters/internal/runtime"
	"adaptivefilters/internal/wire"
)

// setLatency attaches measured ack-latency percentiles to an
// already-measured suite entry (the gate's latency rule reads them).
func setLatency(name string, p50, p99, p999 float64) {
	for i := range suite.Results {
		if suite.Results[i].Name == name {
			suite.Results[i].P50Ns = p50
			suite.Results[i].P99Ns = p99
			suite.Results[i].P999Ns = p999
			return
		}
	}
}

// wireBatch builds one deterministic ingest batch over the benchSpecs
// population.
func wireBatch(size int) []runtime.Event {
	specs := benchSpecs(8, 200)
	batches := benchBatches(specs, 2000, size)
	return batches[0]
}

// BenchmarkWireCodec measures the ingest frame codec in isolation — the
// per-batch serialization cost every wire hop pays on top of the local
// ingest path. Both directions are ingest-path rows: the regression gate
// pins their steady-state allocs/op at the committed 0 (pooled frame
// buffers, appended decode).
func BenchmarkWireCodec(b *testing.B) {
	const size = 512
	batch := wireBatch(size)

	b.Run("encode", func(b *testing.B) {
		fw := wire.NewFrameWriter(io.Discard, 0)
		pass := func() {
			wire.EncodeIngest(fw.Begin(), 1, batch)
			if err := fw.End(); err != nil {
				b.Fatal(err)
			}
			if err := fw.Flush(); err != nil {
				b.Fatal(err)
			}
		}
		pass() // warm the pooled payload buffer at its working size
		measure(b, "wire-ingest-encode", size, true, pass)
	})

	b.Run("decode", func(b *testing.B) {
		var framed bytes.Buffer
		fw := wire.NewFrameWriter(&framed, 0)
		wire.EncodeIngest(fw.Begin(), 1, batch)
		if err := fw.End(); err != nil {
			b.Fatal(err)
		}
		if err := fw.Flush(); err != nil {
			b.Fatal(err)
		}
		fr := wire.NewFrameReader(&repeatReader{data: framed.Bytes()}, 0)
		dst := make([]runtime.Event, 0, size)
		pass := func() {
			r, err := fr.Next()
			if err != nil {
				b.Fatal(err)
			}
			if _, err := wire.DecodeHeader(r); err != nil {
				b.Fatal(err)
			}
			dst, err = wire.DecodeIngestInto(r, dst[:0])
			if err != nil {
				b.Fatal(err)
			}
		}
		pass() // warm the reader's frame buffer
		measure(b, "wire-ingest-decode", size, true, pass)
	})
}

// repeatReader endlessly replays one byte sequence, so a FrameReader sees
// an infinite stream of identical frames without per-op reslicing cost.
type repeatReader struct {
	data []byte
	off  int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	if r.off == len(r.data) {
		r.off = 0
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}

// BenchmarkWireLoopbackIngest measures the serving plane end to end over a
// loopback TCP connection: client-side framing, pipelined sends, the
// server hub, shard application and the ack path back. One op pushes the
// full multi-tenant batch set through the pipeline and drains. Per-batch
// ack latency (measured against the send instant — the pipeline is
// unpaced, so this is pure service + queueing time) lands in the row's
// p50/p99/p999 fields, which the regression gate bounds against the
// committed baseline.
//
// The shards rows send 512-event frames, where per-frame transport cost all
// but vanishes; the batch=32 row sends the small frames a paced client
// really sends, so what the server pays per frame — and saves by serving a
// read burst at a time — shows up in the gate.
func BenchmarkWireLoopbackIngest(b *testing.B) {
	const (
		tenants   = 8
		streams   = 200
		perTenant = 2000
	)
	specs := benchSpecs(tenants, streams)
	totalEvents := tenants * perTenant
	for _, row := range []struct {
		name          string
		shards, batch int
	}{
		{"shards=1", 1, 512},
		{"shards=4", 4, 512},
		{"batch=32", 1, 32},
	} {
		shards, batches := row.shards, benchBatches(specs, perTenant, row.batch)
		b.Run(row.name, func(b *testing.B) {
			node, err := runtime.NewNode(runtime.Config{Shards: shards, Seed: 42}, specs)
			if err != nil {
				b.Fatal(err)
			}
			if err := node.Start(b.Context()); err != nil {
				b.Fatal(err)
			}
			defer node.Stop()
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			srv := netserve.Serve(ln, node, netserve.Options{})
			defer srv.Close()

			var (
				mu      sync.Mutex
				sent    = make(map[uint64]time.Time)
				samples []float64
			)
			c, err := client.Dial(ln.Addr().String(), client.Options{
				OnIngestAck: func(seq uint64, status byte) {
					at := time.Now()
					mu.Lock()
					if t0, ok := sent[seq]; ok {
						delete(sent, seq)
						if status == wire.StatusOK {
							samples = append(samples, float64(at.Sub(t0)))
						}
					}
					mu.Unlock()
				},
			})
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()

			pass := func() {
				for _, batch := range batches {
					t0 := time.Now()
					seq, err := c.Ingest(batch)
					if err != nil {
						b.Fatal(err)
					}
					// An ack that beat this bookkeeping just loses its
					// sample; the percentiles are over the rest.
					mu.Lock()
					sent[seq] = t0
					mu.Unlock()
				}
				if err := c.Drain(); err != nil {
					b.Fatal(err)
				}
			}
			for i := 0; i < 4; i++ {
				pass() // warm pools, protocol scratch and socket buffers
			}
			mu.Lock()
			samples = samples[:0] // percentiles come from the timed passes only
			mu.Unlock()
			name := "wire-loopback-ingest/" + row.name
			measure(b, name, totalEvents, false, pass)
			mu.Lock()
			p50, p99, p999 := bench.LatencyPercentiles(samples)
			mu.Unlock()
			setLatency(name, p50, p99, p999)
		})
	}
}

// BenchmarkWireLoopbackIngestMultiConn measures the off-driver ingest plane:
// four pipelined connections push disjoint tenant subsets concurrently, so
// each connection's server-side reader decodes, validates and routes on its
// own goroutine with its own Ingester — the configuration the netserve hub
// split exists for. Tenant i drives over connection i mod 4 (the partition
// under which the node's answers stay bit-identical to one connection), and
// every connection's per-batch ack latency feeds one shared percentile row.
func BenchmarkWireLoopbackIngestMultiConn(b *testing.B) {
	const (
		tenants   = 8
		streams   = 200
		perTenant = 2000
		batchSize = 512
		conns     = 4
		shards    = 4
	)
	specs := benchSpecs(tenants, streams)
	lanes := laneBatches(benchBatches(specs, perTenant, batchSize), conns, batchSize)
	totalEvents := tenants * perTenant

	node, err := runtime.NewNode(runtime.Config{Shards: shards, Seed: 42}, specs)
	if err != nil {
		b.Fatal(err)
	}
	if err := node.Start(b.Context()); err != nil {
		b.Fatal(err)
	}
	defer node.Stop()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	srv := netserve.Serve(ln, node, netserve.Options{})
	defer srv.Close()

	type connState struct {
		c       *client.Client
		mu      sync.Mutex
		sent    map[uint64]time.Time
		samples []float64
	}
	states := make([]*connState, conns)
	for ci := range states {
		st := &connState{sent: make(map[uint64]time.Time)}
		st.c, err = client.Dial(ln.Addr().String(), client.Options{
			OnIngestAck: func(seq uint64, status byte) {
				at := time.Now()
				st.mu.Lock()
				if t0, ok := st.sent[seq]; ok {
					delete(st.sent, seq)
					if status == wire.StatusOK {
						st.samples = append(st.samples, float64(at.Sub(t0)))
					}
				}
				st.mu.Unlock()
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		defer st.c.Close()
		states[ci] = st
	}

	pass := func() {
		var wg sync.WaitGroup
		errs := make([]error, conns)
		for ci := range states {
			wg.Add(1)
			go func(ci int) {
				defer wg.Done()
				st := states[ci]
				for _, batch := range lanes[ci] {
					t0 := time.Now()
					seq, err := st.c.Ingest(batch)
					if err != nil {
						errs[ci] = err
						return
					}
					st.mu.Lock()
					st.sent[seq] = t0
					st.mu.Unlock()
				}
				// Per-connection drain barriers this pipeline; the last one
				// to finish leaves the node quiescent for the next op.
				errs[ci] = st.c.Drain()
			}(ci)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	for i := 0; i < 4; i++ {
		pass() // warm pools, protocol scratch and socket buffers
	}
	var samples []float64
	for _, st := range states {
		st.mu.Lock()
		st.samples = st.samples[:0] // percentiles come from the timed passes only
		st.mu.Unlock()
	}
	name := fmt.Sprintf("wire-loopback-ingest/conns=%d/shards=%d", conns, shards)
	measure(b, name, totalEvents, false, pass)
	for _, st := range states {
		st.mu.Lock()
		samples = append(samples, st.samples...)
		st.mu.Unlock()
	}
	p50, p99, p999 := bench.LatencyPercentiles(samples)
	setLatency(name, p50, p99, p999)
}
