package server_test

import (
	"fmt"
	"math/rand"
	"testing"

	"adaptivefilters/internal/core"
	"adaptivefilters/internal/oracle"
	"adaptivefilters/internal/query"
	"adaptivefilters/internal/server"
)

// rangeQuery is one standing range query with its fraction tolerance.
type rangeQuery struct {
	rng query.Range
	tol core.FractionTolerance
}

func fabricQueries() []rangeQuery {
	return []rangeQuery{
		{query.NewRange(100, 300), core.FractionTolerance{EpsPlus: 0.3, EpsMinus: 0.3}},
		{query.NewRange(250, 500), core.FractionTolerance{EpsPlus: 0.2, EpsMinus: 0.2}},
		{query.NewRange(700, 900), core.FractionTolerance{EpsPlus: 0.4, EpsMinus: 0.4}},
	}
}

// rangeFabric builds and initializes a composite serving one FT-NRP query
// per entry of qs. ReinitNever: a re-initialization would cost a per-query
// ProbeAllInto, defeating the shared-probe economics the tests below measure.
func rangeFabric(initial []float64, qs []rangeQuery, seed int64) *server.Composite {
	comp := server.NewComposite(initial)
	for qi, q := range qs {
		comp.AddQuery(fmt.Sprintf("q%d", qi), int64(qi), func(h server.Host) server.Protocol {
			return core.NewFTNRP(h, q.rng, core.FTNRPConfig{
				Tol:       q.tol,
				Selection: core.SelectBoundaryNearest,
				Seed:      seed + int64(qi),
				Reinit:    core.ReinitNever,
			})
		})
	}
	comp.Initialize()
	return comp
}

func TestSingleMessageCoversAllQueries(t *testing.T) {
	// A value change crossing two query boundaries at once must cost one
	// update message.
	comp := rangeFabric([]float64{275}, []rangeQuery{ // inside both ranges
		{rng: query.NewRange(100, 300)},
		{rng: query.NewRange(250, 500)},
	}, 1)
	before := comp.Counter().Maintenance()
	comp.Deliver(0, 600) // leaves both ranges
	if got := comp.Counter().Maintenance() - before; got != 1 {
		t.Fatalf("double crossing cost %d messages, want 1", got)
	}
	if len(comp.Answer(0)) != 0 || len(comp.Answer(1)) != 0 {
		t.Fatalf("answers = %v / %v, want empty", comp.Answer(0), comp.Answer(1))
	}
}

func TestNoCrossingIsSilent(t *testing.T) {
	comp := rangeFabric([]float64{275}, []rangeQuery{{rng: query.NewRange(100, 300)}}, 1)
	before := comp.Counter().Maintenance()
	comp.Deliver(0, 280)
	if got := comp.Counter().Maintenance(); got != before {
		t.Fatal("in-range move produced a message")
	}
}

func TestFractionInvariantPerQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	n := 80
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = rng.Float64() * 1000
	}
	comp := rangeFabric(vals, fabricQueries(), 7)
	chk := oracle.New(vals)
	for step := 0; step < 4000; step++ {
		id := rng.Intn(n)
		vals[id] += rng.NormFloat64() * 60
		chk.Apply(id, vals[id])
		comp.Deliver(id, vals[id])
		for qi, q := range fabricQueries() {
			if err := chk.CheckFractionRange(comp.Answer(qi), q.rng, q.tol); err != nil {
				t.Fatalf("step %d query %d: %v", step, qi, err)
			}
		}
	}
}

func TestSilentStreamsCount(t *testing.T) {
	// One query covering few streams: streams silenced for the only query
	// are fully shut down.
	vals := []float64{150, 160, 170, 180, 900, 910, 920, 930}
	comp := rangeFabric(vals, []rangeQuery{{
		query.NewRange(100, 300), core.FractionTolerance{EpsPlus: 0.5, EpsMinus: 0.5},
	}}, 1)
	// n+ = floor(4·0.5) = 2, n- = floor(4·0.5·0.5/0.5) = 2 → 4 silent.
	if got := comp.SilentStreams(); got != 4 {
		t.Fatalf("SilentStreams = %d, want 4", got)
	}
}

func TestSharedBeatsIndependentClusters(t *testing.T) {
	// The point of the extension: one composite-filtered population costs
	// fewer messages than one cluster per query.
	rng := rand.New(rand.NewSource(41))
	n := 100
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = rng.Float64() * 1000
	}
	steps := 8000
	moves := make([][2]float64, steps) // (id, value)
	cur := append([]float64(nil), vals...)
	for s := range moves {
		id := rng.Intn(n)
		cur[id] += rng.NormFloat64() * 50
		moves[s] = [2]float64{float64(id), cur[id]}
	}

	comp := rangeFabric(vals, fabricQueries(), 3)
	for _, mv := range moves {
		comp.Deliver(int(mv[0]), mv[1])
	}
	shared := comp.Counter().Maintenance()

	var independent uint64
	for _, q := range fabricQueries() {
		c := server.NewCluster(vals)
		c.SetProtocol(core.NewFTNRP(c, q.rng, core.FTNRPConfig{
			Tol: q.tol, Selection: core.SelectBoundaryNearest, Seed: 3,
		}))
		c.Initialize()
		for _, mv := range moves {
			c.Deliver(int(mv[0]), mv[1])
		}
		independent += c.Counter().Maintenance()
	}
	if shared >= independent {
		t.Fatalf("shared = %d messages, independent = %d; sharing must win", shared, independent)
	}
}

func TestAnswersMatchIndependentProtocolSemantics(t *testing.T) {
	// With zero tolerance everywhere, shared answers must be exact.
	rng := rand.New(rand.NewSource(51))
	n := 60
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = rng.Float64() * 1000
	}
	zero := []rangeQuery{
		{rng: query.NewRange(100, 300)},
		{rng: query.NewRange(250, 500)},
	}
	comp := rangeFabric(vals, zero, 1)
	chk := oracle.New(vals)
	for step := 0; step < 3000; step++ {
		id := rng.Intn(n)
		v := rng.Float64() * 1000
		vals[id] = v
		chk.Apply(id, v)
		comp.Deliver(id, v)
		for qi, q := range zero {
			if err := chk.CheckFractionRange(comp.Answer(qi), q.rng, core.FractionTolerance{}); err != nil {
				t.Fatalf("step %d query %d: %v", step, qi, err)
			}
		}
	}
}
