package netserve_test

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"adaptivefilters/internal/netserve"
	"adaptivefilters/internal/runtime"
	"adaptivefilters/internal/server"
	"adaptivefilters/internal/snapshot"
	"adaptivefilters/internal/stream"
	"adaptivefilters/internal/wire"
)

// bomb wraps a protocol and panics on its n-th report.
type bomb struct {
	server.Protocol
	n, seen int
}

func (b *bomb) HandleUpdate(id stream.ID, v float64) {
	if b.seen++; b.seen == b.n {
		panic("bomb at report 5")
	}
	b.Protocol.HandleUpdate(id, v)
}

// TestQuarantineOverWire serves a node whose tenant 1 panics at its 5th
// report, between two healthy tenants on one shard. Every ingest frame
// carries one tenant's events, so the quarantined tenant's frames come back
// as error acks while its shard-mates' apply; the report fetched over the
// wire carries the quarantine flag, its shard-mates' entries equal those of
// an in-process node that never hosted the bad tenant, and the bad
// tenant's next frame is refused with its name and the panic value.
func TestQuarantineOverWire(t *testing.T) {
	specs := compileSpecs(t, wireSpecs())[:2]
	badSpec := specs[0]
	badSpec.Name = "bad"
	build := badSpec.NewProtocol
	badSpec.NewProtocol = func(h server.Host, seed int64) server.Protocol {
		return &bomb{Protocol: build(h, seed), n: 5}
	}
	cfg := runtime.Config{Shards: 1, Seed: 11}
	s := startServer(t, cfg, []runtime.TenantSpec{specs[0], badSpec, specs[1]}, netserve.Options{})
	c := dialT(t, s.Addr().String())
	ref, err := runtime.NewNodeLabeled(cfg, specs, []int64{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer ref.Stop()

	// One frame per tenant per batch, pipelined, in two rounds with a drain
	// between them; the in-process reference gets the healthy tenants'
	// frames, renumbered. The panic comes early in the first round, so in
	// the second every frame of the bad tenant is refused.
	batches := workload(3000, 48)
	for round, part := range [][][]runtime.Event{batches[:len(batches)/2], batches[len(batches)/2:]} {
		var tenants []int
		for _, b := range part {
			for ti := 0; ti < 3; ti++ {
				var frame []runtime.Event
				for _, ev := range b {
					if ev.Tenant == ti {
						frame = append(frame, ev)
					}
				}
				if len(frame) == 0 {
					continue
				}
				wire.EncodeIngest(c.fw.Begin(), c.nextSeq(), frame)
				c.end()
				tenants = append(tenants, ti)
				if ti == 1 {
					continue
				}
				for i := range frame {
					frame[i].Tenant = ti / 2
				}
				if err := ref.Ingest(frame); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, ti := range tenants {
			r, _ := c.read()
			a, err := wire.DecodeAck(r)
			switch {
			case err != nil:
				t.Fatal(err)
			case ti == 1 && a.Status == wire.StatusError && strings.Contains(a.Msg, "quarantined"):
			case ti == 1 && round == 1 || a.Status != wire.StatusOK:
				t.Fatalf("round %d, tenant %d frame: ack %+v", round, ti, a)
			}
		}
		c.mustOK(request(wire.Request{Op: wire.OpDrain}))
	}
	if err := ref.Drain(); err != nil {
		t.Fatal(err)
	}

	got, want := c.report(), ref.Report()
	for i, j := range map[int]int{0: 0, 2: 1} {
		if !reflect.DeepEqual(got.Tenants[i], want.Tenants[j]) {
			t.Fatalf("shard-mate %d diverges from a node without the bad tenant:\n got %+v\nwant %+v",
				i, got.Tenants[i], want.Tenants[j])
		}
	}
	if br := got.Tenants[1]; !br.Alive || !br.Quarantined || br.Answer != nil {
		t.Fatalf("bad tenant's report entry over the wire = %+v", br)
	}
	a := c.ack(func(p *snapshot.Writer, seq uint64) {
		wire.EncodeIngest(p, seq, []runtime.Event{{Tenant: 1, Stream: 0, Value: 1}})
	})
	if a.Status != wire.StatusError || !strings.Contains(a.Msg, "(bad)") || !strings.Contains(a.Msg, "bomb at report 5") {
		t.Fatalf("ingest for the quarantined tenant: ack %+v; want an error naming it and the panic", a)
	}
}
