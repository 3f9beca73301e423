package runtime

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"adaptivefilters/internal/core"
	"adaptivefilters/internal/query"
	"adaptivefilters/internal/server"
	"adaptivefilters/internal/sim"
	"adaptivefilters/internal/stream"
)

// gatedProto holds the shard loop inside HandleUpdate until the test opens
// the gate: the slowest possible protocol, and one a test can wait on.
type gatedProto struct {
	server.Protocol
	entered chan<- struct{}
	gate    <-chan struct{}
}

func (p gatedProto) HandleUpdate(id stream.ID, v float64) {
	p.entered <- struct{}{}
	<-p.gate
	p.Protocol.HandleUpdate(id, v)
}

// TestStopUnblocksIngestOnFullMailbox pins the shutdown paths of Ingest: an
// Ingest blocked on a full mailbox returns the context's error promptly —
// while the shard loop is still stuck applying — whether the node is
// stopped or its Start context is cancelled; the handle's staging is empty
// on every return path; and Stop returns once the loop is released, so the
// loops and the cancellation hook are gone.
func TestStopUnblocksIngestOnFullMailbox(t *testing.T) {
	for _, how := range []string{"stop", "cancel"} {
		t.Run(how, func(t *testing.T) {
			entered := make(chan struct{}, 8)
			gate := make(chan struct{})
			specs := []TenantSpec{{
				Name:    "gated",
				Initial: []float64{100, 200, 300},
				NewProtocol: func(h server.Host, _ int64) server.Protocol {
					return gatedProto{Protocol: core.NewZTNRP(h, query.NewRange(150, 250)), entered: entered, gate: gate}
				},
			}, {
				Name:    "other-shard",
				Initial: []float64{100, 200, 300},
				NewProtocol: func(h server.Host, _ int64) server.Protocol {
					return core.NewZTNRP(h, query.NewRange(150, 250))
				},
			}}
			node, err := NewNode(Config{Shards: 2, Seed: 1, Queue: 1}, specs)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if err := node.Start(ctx); err != nil {
				t.Fatal(err)
			}
			// Every event crosses the range boundary, so applying one enters
			// the gated protocol. The first is taken by the loop, which then
			// sits at the gate; the second fills the one-event inbox.
			cross := func(i int) Event { return Event{Tenant: 0, Stream: 0, Value: float64(200 - 100*(i%2))} }
			ing := node.NewIngester()
			if err := ing.Ingest([]Event{cross(0)}); err != nil {
				t.Fatal(err)
			}
			<-entered
			if err := ing.Ingest([]Event{cross(1)}); err != nil {
				t.Fatal(err)
			}
			// The third batch spans both shards: the post to shard 0 blocks with
			// both shards' staging populated.
			blocked := make(chan error, 1)
			go func() { blocked <- ing.Ingest([]Event{{Tenant: 1, Stream: 0, Value: 200}, cross(2)}) }()
			// The inbox is full and the loop cannot swap: whatever time the
			// call is given, it must not return before shutdown begins.
			select {
			case err := <-blocked:
				t.Fatalf("Ingest returned %v with the mailbox full and the loop held", err)
			case <-time.After(50 * time.Millisecond):
			}
			stopped := make(chan struct{})
			if how == "stop" {
				go func() { node.Stop(); close(stopped) }()
			} else {
				cancel()
			}
			select {
			case err := <-blocked:
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("blocked Ingest returned %v, want context.Canceled", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("Ingest stayed blocked on the full mailbox after shutdown began")
			}
			for s := range ing.stage {
				if st := ing.stage[s]; len(st.recs) != 0 || len(st.ys) != 0 {
					t.Fatalf("shard %d staging holds %d records, %d ys after a refused Ingest", s, len(st.recs), len(st.ys))
				}
			}
			if err := ing.Ingest([]Event{cross(3)}); err == nil {
				t.Fatal("Ingest after shutdown succeeded")
			}
			// The loop is still at the gate; release it and the node winds
			// down: Stop waits for both loops and the hook.
			close(gate)
			if how == "cancel" {
				go func() { node.Stop(); close(stopped) }()
			}
			select {
			case <-stopped:
			case <-time.After(10 * time.Second):
				t.Fatal("Stop did not return")
			}
			node.Stop() // idempotent
		})
	}
}

// mailboxCase is one configuration of the mailbox property.
type mailboxCase struct {
	shards, queue, ingesters int
}

// mailboxPhases is the per-tenant traffic of the mailbox property: tenant
// ti's events in phase p are phases[p][ti], a walk over its own partition.
// Tenant 7 is admitted after phase 0 and has no events in it.
const (
	mailboxTenants     = 7
	mailboxPhaseEvents = 2500
)

func mailboxTraffic(seed int64) (initial []TenantSpec, late TenantSpec, phases [3][][]Event) {
	rng := sim.NewRNG(seed)
	var walks, walksY [][]float64
	build := func(adm int) TenantSpec {
		vals := make([]float64, 12+rng.Intn(6))
		ys := make([]float64, len(vals))
		for i := range vals {
			vals[i], ys[i] = rng.Uniform(0, 1000), rng.Uniform(0, 1000)
		}
		spec := propSpec(adm, vals, ys)
		walks = append(walks, vals)
		if len(spec.SpatialInitial) > 0 {
			walksY = append(walksY, ys)
		} else {
			walksY = append(walksY, nil)
		}
		return spec
	}
	// Admissions 0..6 rotate through every tenant kind (2 is composite, 3 is
	// planar); admission 10 is a second planar tenant, admitted live.
	for adm := 0; adm < mailboxTenants; adm++ {
		initial = append(initial, build(adm))
	}
	late = build(10)
	for p := range phases {
		phases[p] = make([][]Event, len(walks))
		for ti := range walks {
			if ti == mailboxTenants && p == 0 {
				continue
			}
			evs := make([]Event, mailboxPhaseEvents)
			for i := range evs {
				s := rng.Intn(len(walks[ti]))
				walks[ti][s] += rng.Normal(0, 40)
				evs[i] = Event{Tenant: ti, Stream: s, Value: walks[ti][s]}
				if walksY[ti] != nil {
					walksY[ti][s] += rng.Normal(0, 40)
					evs[i].Y = walksY[ti][s]
				}
			}
			phases[p][ti] = evs
		}
	}
	return initial, late, phases
}

// mailboxControl runs the lifecycle step that follows phase p: a planar
// tenant admitted live, then a query evicted from the composite tenant.
func mailboxControl(t *testing.T, node *Node, p int, late TenantSpec) {
	t.Helper()
	switch p {
	case 0:
		ti, err := node.AddTenant(late)
		if err != nil || ti != mailboxTenants {
			t.Fatalf("AddTenant = %d, %v", ti, err)
		}
	case 1:
		if err := node.RemoveQuery(2, 1); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMailboxProperty is the mailbox's property test: seeded schedules of
// batches sized 1 … 3 × capacity (so "admitted below capacity, never split"
// is exercised, overshoot included), 1–4 ingesters each owning its tenants,
// planar and 1-D tenants mixed on one shard (the Y side array must stay
// aligned with the records), Drain racing the ingesters and AddTenant /
// RemoveQuery between phases. Whatever the shard count, capacity and
// interleaving, the final report is byte-identical to a one-shard
// single-caller node's, every routed batch is counted applied exactly once,
// and nothing is queued after a Drain.
func TestMailboxProperty(t *testing.T) {
	const seed = 20261002
	initial, late, phases := mailboxTraffic(seed)

	ref, err := NewNode(Config{Shards: 1, Seed: 42}, initial)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	for p := range phases {
		for _, evs := range phases[p] {
			if err := ref.Ingest(evs); err != nil {
				t.Fatal(err)
			}
		}
		mailboxControl(t, ref, p, late)
	}
	if err := ref.Drain(); err != nil {
		t.Fatal(err)
	}
	want := ref.Report().Text()
	ref.Stop()

	pick := sim.NewRNG(seed + 1)
	var cases []mailboxCase
	for _, shards := range []int{1, 2, 4} {
		for _, queue := range []int{1, 64, 0} {
			cases = append(cases, mailboxCase{shards, queue, 1 + pick.Intn(4)})
		}
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("shards=%d/queue=%d/ingesters=%d", c.shards, c.queue, c.ingesters), func(t *testing.T) {
			node, err := NewNode(Config{Shards: c.shards, Seed: 42, Queue: c.queue}, initial)
			if err != nil {
				t.Fatal(err)
			}
			if err := node.Start(context.Background()); err != nil {
				t.Fatal(err)
			}
			defer node.Stop()
			routed := make([]uint64, c.shards) // batches routed per shard, summed over ingesters
			var routedMu sync.Mutex
			for p := range phases {
				var wg sync.WaitGroup
				errs := make([]error, c.ingesters)
				for g := 0; g < c.ingesters; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						rng := sim.NewRNG(sim.DeriveSeed(seed, int64(c.shards), int64(c.queue), int64(p), int64(g)))
						ing := node.NewIngester()
						// Lanes: this ingester's tenants, each played in its
						// own order, interleaved event by event.
						var lanes [][]Event
						left := 0
						for ti, evs := range phases[p] {
							if ti%c.ingesters == g && len(evs) > 0 {
								lanes = append(lanes, evs)
								left += len(evs)
							}
						}
						mine := make([]uint64, c.shards)
						var batch []Event
						for left > 0 {
							size := min(1+rng.Intn(3*node.QueueCap()), left)
							batch = batch[:0]
							touched := make([]bool, c.shards)
							for len(batch) < size {
								k := rng.Intn(len(lanes))
								ev := lanes[k][0]
								batch = append(batch, ev)
								touched[ev.Tenant%c.shards] = true
								if lanes[k] = lanes[k][1:]; len(lanes[k]) == 0 {
									lanes = append(lanes[:k], lanes[k+1:]...)
								}
							}
							left -= size
							if err := ing.Ingest(batch); err != nil {
								errs[g] = err
								return
							}
							for s, hit := range touched {
								if hit {
									mine[s]++
								}
							}
						}
						routedMu.Lock()
						for s := range mine {
							routed[s] += mine[s]
						}
						routedMu.Unlock()
					}(g)
				}
				// Barriers race the ingesters, some of them blocked on a full
				// mailbox while the write lock is wanted.
				for i := 0; i < 3; i++ {
					if err := node.Drain(); err != nil {
						t.Fatal(err)
					}
				}
				wg.Wait()
				for _, err := range errs {
					if err != nil {
						t.Fatal(err)
					}
				}
				mailboxControl(t, node, p, late)
			}
			if err := node.Drain(); err != nil {
				t.Fatal(err)
			}
			for _, st := range node.ShardStats() {
				if st.Queued != 0 {
					t.Errorf("shard %d: %d batches queued after Drain", st.Shard, st.Queued)
				}
				if st.Applied != routed[st.Shard] {
					t.Errorf("shard %d: applied %d batches, routed %d", st.Shard, st.Applied, routed[st.Shard])
				}
			}
			if got := node.PendingEvents(); got != 0 {
				t.Errorf("PendingEvents after Drain = %d", got)
			}
			if got := node.Report().Text(); got != want {
				t.Fatalf("report diverges from the one-shard single-caller node:\n got:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}

// TestIngestPathAllocFree is the hot path's allocation invariant as an
// ordinary test: once the mailboxes, the staging slices and the protocols'
// scratch are warm, Ingest + Drain of a mixed 1-D / planar / composite
// batch set allocates exactly nothing, at one shard and at four, from
// one-event batches to a full netserve burst, through one ingester and
// through two. The second composite tenant's 64 queries are all active, so
// nearly every event reports and the crossed-only dispatch is on the path.
// Two ingesters own disjoint tenants and are driven alternately from the
// test goroutine, so the schedule stays the test's to choose.
//
// A mailbox's slices grow to the deepest backlog they have held, which
// depends on how the ingester and the loops were scheduled. So that "warm"
// is not a matter of luck, the warm-up holds every loop at a gate while a
// whole pass is routed (a pass fits the default capacity, so nothing
// blocks): each inbox then holds the deepest backlog any schedule of a pass
// can produce. A held pass makes exactly three swaps per shard — into the
// gate, out of it, and the Drain's, which the test posts only once the
// second is done — so two held passes grow both alternating slice sets.
func TestIngestPathAllocFree(t *testing.T) {
	active, _ := mqWalk(40, 0, 53)
	specs := []TenantSpec{
		testSpecs(1, 40)[0],
		spatialSpec("fleet", 40, 5),
		qpSpec("plane", 4, 40, 51),
		{Name: "active", Initial: active, Queries: mqActiveQueries(64)},
	}
	for _, ingesters := range []int{1, 2} {
		for _, shards := range []int{1, 4} {
			for _, size := range []int{1, 32, 512} {
				name := fmt.Sprintf("shards=%d/batch=%d", shards, size)
				if ingesters > 1 {
					name += fmt.Sprintf("/ingesters=%d", ingesters)
				}
				t.Run(name, func(t *testing.T) {
					ingestPathAllocFree(t, specs, shards, size, ingesters)
				})
			}
		}
	}
}

// ingestPathAllocFree is one TestIngestPathAllocFree case.
func ingestPathAllocFree(t *testing.T, specs []TenantSpec, shards, size, ingesters int) {
	batches := testEvents(specs, 1000, size)
	node, err := NewNode(Config{Shards: shards, Seed: 42}, specs)
	if err != nil {
		t.Fatal(err)
	}
	if err := node.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer node.Stop()
	// Ingester g owns the tenants t ≡ g (mod ingesters); each batch is split
	// into per-ingester lanes ahead of time.
	ings := make([]*Ingester, ingesters)
	lanes := make([][][]Event, len(batches))
	for g := range ings {
		ings[g] = node.NewIngester()
	}
	for i, b := range batches {
		lanes[i] = make([][]Event, ingesters)
		for _, ev := range b {
			lanes[i][ev.Tenant%ingesters] = append(lanes[i][ev.Tenant%ingesters], ev)
		}
	}
	route := func() {
		for _, lane := range lanes {
			for g, evs := range lane {
				if err := ings[g].Ingest(evs); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	pass := func() {
		route()
		if err := node.Drain(); err != nil {
			t.Fatal(err)
		}
	}
	pass() // t0 and protocol scratch
	for i := 0; i < 2; i++ {
		gate, held := make(chan struct{}), make(chan struct{}, shards)
		for s := range node.shards {
			node.shards[s].postControl(control{init: func() { held <- struct{}{}; <-gate }})
		}
		for range node.shards {
			<-held
		}
		route()
		close(gate)
		for node.PendingEvents() != 0 {
			time.Sleep(time.Millisecond)
		}
		if err := node.Drain(); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(5, pass); allocs != 0 {
		t.Errorf("Ingest + Drain allocated %.1f objects per pass, want 0", allocs)
	}
}
