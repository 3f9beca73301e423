package experiment

import (
	"context"
	"net"
	"sync"
	"sync/atomic"
	"testing"

	"adaptivefilters/client"
	"adaptivefilters/internal/netserve"
	"adaptivefilters/internal/runtime"
	"adaptivefilters/internal/wire"
	"adaptivefilters/internal/workload"
)

// servingFixture is the golden server-cost experiment as a deployment would
// host it: the four rows are four tenants, each over its own copy of the
// workload's streams.
func servingFixture(t *testing.T) (w workload.Workload, tenants []wire.TenantSpec) {
	t.Helper()
	o := goldenOpts()
	w = synWorkload(o, 20, o.scaled(100_000))
	for _, row := range serverCostRows {
		tenants = append(tenants, wire.TenantSpec{Name: row.name, Initial: w.Initial(), Spec: row.spec})
	}
	return w, tenants
}

// playTenant feeds tenant ti the whole workload in batches.
func playTenant(t *testing.T, w workload.Workload, ti int, ingest func([]runtime.Event) error) {
	buf := make([]runtime.Event, 0, runBatch)
	flush := func() {
		if err := ingest(buf); err != nil {
			t.Error(err)
		}
		buf = buf[:0]
	}
	for _, ev := range w.Events() {
		if buf = append(buf, runtime.Event{Tenant: ti, Stream: ev.Stream, Value: ev.Value}); len(buf) == runBatch {
			flush()
		}
	}
	flush()
}

// TestServerCostGoldenOnServingStack certifies a figure on the paths
// deployments take. The server-cost rows draw on no seed, so hosted as
// co-tenants of one sharded node behind concurrent ingesters, and again
// admitted declaratively over a loopback connection, they must reproduce
// the committed table — the one Run's one-tenant nodes produce — exactly.
func TestServerCostGoldenOnServingStack(t *testing.T) {
	if *updateGolden {
		t.Skip("golden update pass")
	}
	w, tenants := servingFixture(t)
	counters := func(rep *runtime.Report) []Result {
		out := make([]Result, len(rep.Tenants))
		for ti, tr := range rep.Tenants {
			out[ti] = Result{MaintMessages: tr.Counter.Maintenance(), ServerOps: tr.Counter.ServerOps}
		}
		return out
	}

	t.Run("4-shards-2-ingesters", func(t *testing.T) {
		specs := make([]runtime.TenantSpec, len(tenants))
		for ti, ts := range tenants {
			var err error
			if specs[ti], err = ts.Runtime(); err != nil {
				t.Fatal(err)
			}
		}
		node, err := runtime.NewNode(runtime.Config{Shards: 4, Seed: 99}, specs)
		if err != nil {
			t.Fatal(err)
		}
		if err := node.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
		defer node.Stop()
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ing := node.NewIngester()
				for ti := g; ti < len(tenants); ti += 2 {
					playTenant(t, w, ti, ing.Ingest)
				}
			}()
		}
		wg.Wait()
		if err := node.Drain(); err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "servercost", serverCostTable(w.Name(), counters(node.Report())))
	})

	t.Run("loopback-wire", func(t *testing.T) {
		node, err := runtime.NewNodeLabeled(runtime.Config{Shards: 2, Seed: 99}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := node.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
		defer node.Stop()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := netserve.Serve(ln, node, netserve.Options{ShedWatermark: -1})
		defer srv.Wait()
		defer srv.Close()
		var refused atomic.Int64
		cl, err := client.Dial(srv.Addr().String(), client.Options{
			OnIngestAck: func(_ uint64, status byte) {
				if status != wire.StatusOK {
					refused.Add(1)
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		for ti, ts := range tenants {
			rep, err := cl.Do(wire.Request{Op: wire.OpAddTenant, Tenant: ts})
			if got := int(rep.Value); err != nil || got != ti {
				t.Fatalf("AddTenant(%s) = %d, %v; want slot %d", ts.Name, got, err, ti)
			}
		}
		for ti := range tenants {
			playTenant(t, w, ti, func(evs []runtime.Event) error {
				_, err := cl.Ingest(evs)
				return err
			})
		}
		if err := cl.Drain(); err != nil {
			t.Fatal(err)
		}
		if n := refused.Load(); n != 0 {
			t.Fatalf("%d ingest batches were not applied", n)
		}
		rep, err := cl.Report()
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "servercost", serverCostTable(w.Name(), counters(rep)))
	})
}
