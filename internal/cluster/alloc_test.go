package cluster

import (
	"fmt"
	"testing"

	"adaptivefilters/internal/protospec"
	"adaptivefilters/internal/runtime"
	"adaptivefilters/internal/sim"
	"adaptivefilters/internal/wire"
)

// TestClusterIngestAllocFree extends the runtime's zero-allocation ingest
// path through the router: once warm, Ingest + Drain of a mixed FT-NRP / RTP
// population — placement lookup, per-member batch split, member node ingest
// — allocates nothing, on one member and spread over three.
//
// A member's shard mailboxes grow to the deepest backlog they have held,
// which depends on scheduling, so the warm-up grows them on purpose (the
// runtime's TestIngestPathAllocFree holds its loops at a gate instead, which
// a router in front of the nodes cannot reach).
func TestClusterIngestAllocFree(t *testing.T) {
	const tenants, streams, perTenant, batchSize = 8, 200, 2000, 512
	specs := make([]wire.TenantSpec, tenants)
	walks := make([][]float64, tenants)
	for i := range specs {
		initial := initialValues(streams+i, sim.DeriveSeed(1000, int64(i)))
		specs[i] = wire.TenantSpec{Name: fmt.Sprintf("q%d", i), Initial: initial}
		if i%2 == 0 {
			specs[i].Spec = protospec.Spec{Protocol: "ft-nrp", Lo: 300, Hi: 700,
				EpsPlus: 0.3, EpsMinus: 0.3, Selection: protospec.SelectRandom}
		} else {
			specs[i].Spec = protospec.Spec{Protocol: "rtp", Q: 500, K: 5, R: 3}
		}
		walks[i] = append([]float64(nil), initial...)
	}
	// Per-tenant walks interleaved round-robin: a mixed uplink.
	rng := sim.NewRNG(2000)
	var all []runtime.Event
	for e := 0; e < perTenant; e++ {
		for i, w := range walks {
			s := rng.Intn(len(w))
			w[s] += rng.Normal(0, 40)
			all = append(all, runtime.Event{Tenant: i, Stream: s, Value: w[s]})
		}
	}
	var batches [][]runtime.Event
	for rest := all; len(rest) > 0; rest = rest[min(batchSize, len(rest)):] {
		batches = append(batches, rest[:min(batchSize, len(rest))])
	}

	for _, members := range []int{1, 3} {
		t.Run(fmt.Sprintf("members=%d", members), func(t *testing.T) {
			c, stop := localCluster(t, Config{}, members, func(int) int { return 2 })
			defer stop()
			for _, spec := range specs {
				if _, err := c.AddTenant(spec); err != nil {
					t.Fatal(err)
				}
			}
			ingest := func(b []runtime.Event) {
				if err := c.Ingest(b); err != nil {
					t.Fatal(err)
				}
			}
			drain := func() {
				if err := c.Drain(); err != nil {
					t.Fatal(err)
				}
			}
			pass := func() {
				for _, b := range batches {
					ingest(b)
				}
				drain()
			}
			pass() // the router's and ingesters' slices, protocol scratch
			// An inbox holds at most its capacity plus one batch. An Ingest
			// into an empty inbox is admitted whole, and one right behind it
			// lands in the other of the two alternating slice sets, whether or
			// not it waited for the swap; so two such Ingests, each giving
			// every busy shard more than that, outgrow any pass's backlog.
			var giant []runtime.Event
			for len(giant) <= tenants*(c.members[0].(*LocalMember).Node().QueueCap()+batchSize) {
				giant = append(giant, all...)
			}
			ingest(giant)
			ingest(giant)
			// Two barriers on an idle node are two swaps per shard: both
			// control queues hold a barrier once.
			drain()
			drain()
			pass()
			if allocs := testing.AllocsPerRun(5, pass); allocs != 0 {
				t.Errorf("cluster Ingest + Drain allocated %.1f objects per pass, want 0", allocs)
			}
		})
	}
}
