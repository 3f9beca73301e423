package core_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"adaptivefilters/internal/comm"
	"adaptivefilters/internal/core"
	"adaptivefilters/internal/filter"
	"adaptivefilters/internal/query"
	"adaptivefilters/internal/runtime"
	"adaptivefilters/internal/server"
	"adaptivefilters/internal/sim"
	"adaptivefilters/internal/stream"
)

// countingHost wraps a cluster and independently tallies the charges each
// host primitive is specified to make, so a test can assert the cluster's
// counter equals the tally — i.e. that every message a protocol causes goes
// through the shared charge table and nothing pokes the counter directly.
type countingHost[V comparable, C filter.Of[V, C]] struct {
	c *server.ClusterOf[V, C]

	probes       uint64 // Probe messages
	replies      uint64 // ProbeReply messages
	installs     uint64 // Install messages
	probeIfCalls int
}

func (h *countingHost[V, C]) N() int { return h.c.N() }

func (h *countingHost[V, C]) Probe(id stream.ID) V {
	h.probes++
	h.replies++
	return h.c.Probe(id)
}

func (h *countingHost[V, C]) ProbeIf(id stream.ID, cons C) (V, bool) {
	h.probeIfCalls++
	h.probes++
	v, ok := h.c.ProbeIf(id, cons)
	if ok {
		h.replies++
	}
	return v, ok
}

func (h *countingHost[V, C]) ProbeAllInto(dst []V) []V {
	n := uint64(h.c.N())
	h.probes += n
	h.replies += n
	return h.c.ProbeAllInto(dst)
}

func (h *countingHost[V, C]) ProbeBatch(ids []stream.ID) {
	h.probes += uint64(len(ids))
	h.replies += uint64(len(ids))
	h.c.ProbeBatch(ids)
}

func (h *countingHost[V, C]) Install(id stream.ID, cons C, expectInside bool) {
	h.installs++
	h.c.Install(id, cons, expectInside)
}

func (h *countingHost[V, C]) InstallBatch(ids []stream.ID, cons C) {
	h.installs += uint64(len(ids))
	h.c.InstallBatch(ids, cons)
}

func (h *countingHost[V, C]) InstallAllExcept(skip []stream.ID, cons C) {
	h.installs += uint64(h.c.N() - len(skip))
	h.c.InstallAllExcept(skip, cons)
}

func (h *countingHost[V, C]) Table(id stream.ID) V    { return h.c.Table(id) }
func (h *countingHost[V, C]) TableValues(dst []V) []V { return h.c.TableValues(dst) }
func (h *countingHost[V, C]) AddServerOps(n int)      { h.c.AddServerOps(n) }

// chargeParity runs build behind a countingHost through a churn-heavy walk
// of 30 streams — draw places a value, step moves one — and asserts the
// cluster's counter holds exactly the charges the host primitives specify,
// across both phases. wantProbeIf requires the conditional expanding
// search to have fired.
func chargeParity[V comparable, C filter.Of[V, C]](t *testing.T, draw func(*rand.Rand) V, step func(*rand.Rand, V) V,
	build func(server.HostOf[V, C]) server.ProtocolOf[V], wantProbeIf bool) {
	rng := rand.New(rand.NewSource(21))
	vals := make([]V, 30)
	for i := range vals {
		vals[i] = draw(rng)
	}
	c := server.NewClusterOf[V, C](append([]V(nil), vals...))
	h := &countingHost[V, C]{c: c}
	c.SetProtocol(build(h))
	c.Initialize()
	for range 4000 {
		id := rng.Intn(len(vals))
		vals[id] = step(rng, vals[id])
		c.Deliver(id, vals[id])
	}
	if wantProbeIf && h.probeIfCalls == 0 {
		t.Fatal("walk never exercised the conditional expanding search")
	}
	ctr := c.Counter()
	both := func(k comm.Kind) uint64 {
		return ctr.Get(comm.Init, k) + ctr.Get(comm.Maintenance, k)
	}
	if got := both(comm.Probe); got != h.probes {
		t.Errorf("Probe charges = %d, host primitives specify %d", got, h.probes)
	}
	if got := both(comm.ProbeReply); got != h.replies {
		t.Errorf("ProbeReply charges = %d, host primitives specify %d", got, h.replies)
	}
	if got := both(comm.Install); got != h.installs {
		t.Errorf("Install charges = %d, host primitives specify %d", got, h.installs)
	}
}

// TestChargeParity holds both rank protocols, on the line and in the
// plane, to the shared charge table.
func TestChargeParity(t *testing.T) {
	lineDraw := func(rng *rand.Rand) float64 { return rng.Float64()*120 - 60 }
	lineStep := func(rng *rand.Rand, v float64) float64 { return v + rng.NormFloat64()*15 }
	planarDraw := func(rng *rand.Rand) filter.Point { return pt(rng.Float64()*120-60, rng.Float64()*120-60) }
	planarStep := func(rng *rand.Rand, p filter.Point) filter.Point {
		p.X += rng.NormFloat64() * 15
		p.Y += rng.NormFloat64() * 15
		return p
	}
	rank := core.RankTolerance{K: 4, R: 3}
	frac := core.DefaultFTRPConfig(core.FractionTolerance{EpsPlus: 0.3, EpsMinus: 0.3})
	t.Run("rtp", func(t *testing.T) {
		chargeParity(t, lineDraw, lineStep, func(h server.Host) server.Protocol {
			return core.NewRTP(h, query.At(0), rank)
		}, true)
	})
	t.Run("ft-rp", func(t *testing.T) {
		chargeParity(t, lineDraw, lineStep, func(h server.Host) server.Protocol {
			return core.NewFTRP(h, query.At(0), 6, frac)
		}, false)
	})
	t.Run("rtp2d", func(t *testing.T) {
		chargeParity(t, planarDraw, planarStep, func(h server.SpatialHost) server.SpatialProtocol {
			return core.NewRTP(h, query.Around(pt(0, 0)), rank)
		}, true)
	})
	t.Run("ft-rp2d", func(t *testing.T) {
		chargeParity(t, planarDraw, planarStep, func(h server.SpatialHost) server.SpatialProtocol {
			return core.NewFTRP(h, query.Around(pt(0, 0)), 6, frac)
		}, false)
	})
}

// facadeMatchesRuntime drives one deterministic event sequence through a
// bare synchronous cluster and through a runtime.Node hosting the same
// protocol as a tenant — at shard counts 1 and 4 — and requires identical
// answers and identical message counters: the runtime adds placement,
// never semantics. draw places a value, step moves one, event renders a
// move as the runtime's event and tenant makes the tenant spec.
func facadeMatchesRuntime[V comparable, C filter.Of[V, C]](t *testing.T, draw func(*sim.RNG) V, step func(*sim.RNG, V) V,
	event func(id int, v V) runtime.Event, tenant func(initial []V) runtime.TenantSpec,
	build func(server.HostOf[V, C]) server.ProtocolOf[V]) {
	const n, steps = 30, 2000
	initial := func() []V {
		rng := sim.NewRNG(51)
		vals := make([]V, n)
		for i := range vals {
			vals[i] = draw(rng)
		}
		return vals
	}
	type move struct {
		id int
		v  V
	}
	rng, cur := sim.NewRNG(52), initial()
	moves := make([]move, steps)
	for j := range moves {
		id := rng.Intn(n)
		cur[id] = step(rng, cur[id])
		moves[j] = move{id, cur[id]}
	}

	c := server.NewClusterOf[V, C](initial())
	c.SetProtocol(build(c))
	c.Initialize()
	for _, m := range moves {
		c.Deliver(m.id, m.v)
	}
	wantAnswer := c.Protocol().Answer()
	wantCounter := fmt.Sprintf("%+v", *c.Counter())

	evs := make([]runtime.Event, 0, steps)
	for _, m := range moves {
		evs = append(evs, event(m.id, m.v))
	}
	for _, shards := range []int{1, 4} {
		node, err := runtime.NewNode(runtime.Config{Shards: shards, Seed: 42},
			[]runtime.TenantSpec{tenant(initial())})
		if err != nil {
			t.Fatal(err)
		}
		if err := node.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
		if err := node.Ingest(evs); err != nil {
			node.Stop()
			t.Fatal(err)
		}
		if err := node.Drain(); err != nil {
			node.Stop()
			t.Fatal(err)
		}
		tr := node.Report().Tenants[0]
		if got := tr.Answer; !reflect.DeepEqual(got, wantAnswer) {
			t.Errorf("shards=%d: answer = %v, cluster = %v", shards, got, wantAnswer)
		}
		if got := fmt.Sprintf("%+v", tr.Counter); got != wantCounter {
			t.Errorf("shards=%d: counter = %s, cluster = %s", shards, got, wantCounter)
		}
		node.Stop()
	}
}

// TestFacadeMatchesRuntime runs facadeMatchesRuntime for both rank
// protocols on the line and in the plane.
func TestFacadeMatchesRuntime(t *testing.T) {
	line := func(t *testing.T, build func(server.Host) server.Protocol) {
		facadeMatchesRuntime(t,
			func(rng *sim.RNG) float64 { return rng.Uniform(0, 1000) },
			func(rng *sim.RNG, v float64) float64 { return v + rng.Normal(0, 30) },
			func(id int, v float64) runtime.Event { return runtime.Event{Stream: id, Value: v} },
			func(initial []float64) runtime.TenantSpec {
				return runtime.TenantSpec{Name: "facade", Initial: initial,
					NewProtocol: func(h server.Host, _ int64) server.Protocol { return build(h) }}
			}, build)
	}
	planar := func(t *testing.T, build func(server.SpatialHost) server.SpatialProtocol) {
		facadeMatchesRuntime(t,
			func(rng *sim.RNG) filter.Point { return pt(rng.Uniform(0, 1000), rng.Uniform(0, 1000)) },
			func(rng *sim.RNG, p filter.Point) filter.Point {
				p.X += rng.Normal(0, 30)
				p.Y += rng.Normal(0, 30)
				return p
			},
			func(id int, p filter.Point) runtime.Event { return runtime.Event{Stream: id, Value: p.X, Y: p.Y} },
			func(initial []filter.Point) runtime.TenantSpec {
				return runtime.TenantSpec{Name: "facade", SpatialInitial: initial,
					NewSpatial: func(h server.SpatialHost, _ int64) server.SpatialProtocol { return build(h) }}
			}, build)
	}
	rank := core.RankTolerance{K: 4, R: 3}
	frac := core.DefaultFTRPConfig(core.FractionTolerance{EpsPlus: 0.3, EpsMinus: 0.3})
	q := pt(500, 500)
	t.Run("rtp", func(t *testing.T) {
		line(t, func(h server.Host) server.Protocol { return core.NewRTP(h, query.At(q.X), rank) })
	})
	t.Run("ft-rp", func(t *testing.T) {
		line(t, func(h server.Host) server.Protocol { return core.NewFTRP(h, query.At(q.X), 5, frac) })
	})
	t.Run("rtp2d", func(t *testing.T) {
		planar(t, func(h server.SpatialHost) server.SpatialProtocol { return core.NewRTP(h, query.Around(q), rank) })
	})
	t.Run("ft-rp2d", func(t *testing.T) {
		planar(t, func(h server.SpatialHost) server.SpatialProtocol { return core.NewFTRP(h, query.Around(q), 5, frac) })
	})
}
