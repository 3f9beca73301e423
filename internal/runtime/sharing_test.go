package runtime

import (
	"context"
	"fmt"
	"testing"
	"time"

	"adaptivefilters/internal/core"
	"adaptivefilters/internal/query"
	"adaptivefilters/internal/server"
	"adaptivefilters/internal/sim"
)

// mqWalk pre-generates a seeded random walk over one tenant's `streams`
// streams: the initial values, then `steps` moves.
func mqWalk(streams, steps int, seed int64) (initial []float64, moves []Event) {
	rng := sim.NewRNG(seed)
	initial = make([]float64, streams)
	for i := range initial {
		initial[i] = rng.Uniform(0, 1000)
	}
	cur := append([]float64(nil), initial...)
	moves = make([]Event, steps)
	for i := range moves {
		s := rng.Intn(streams)
		cur[s] += rng.Normal(0, 20)
		moves[i] = Event{Stream: s, Value: cur[s]}
	}
	return initial, moves
}

// mqQueries builds m overlapping FT-NRP range queries spread over the
// walk's [0,1000] band, so composite entries genuinely share crossings.
func mqQueries(m int) []QuerySpec {
	qs := make([]QuerySpec, m)
	for j := 0; j < m; j++ {
		lo := 150 + float64((j*43)%500)
		qs[j] = QuerySpec{
			Name: fmt.Sprintf("q%d", j),
			NewProtocol: func(h server.Host, seed int64) server.Protocol {
				return core.NewFTNRP(h, query.NewRange(lo, lo+300), core.FTNRPConfig{
					Tol:       core.FractionTolerance{EpsPlus: 0.2, EpsMinus: 0.2},
					Selection: core.SelectBoundaryNearest,
					Seed:      seed,
				})
			},
		}
	}
	return qs
}

// mqActiveCore is the active-query count inside the wide-M populations.
const mqActiveCore = 2

// mqWideQueries is the query index's target population: the active core of
// mqQueries(mqActiveCore) plus m-mqActiveCore standing queries whose ranges
// sit beyond the walk's reach, so they install filters but almost never
// cross. Per-event cost must track the active set, not the standing count.
func mqWideQueries(m int) []QuerySpec {
	qs := mqQueries(mqActiveCore)
	for j := mqActiveCore; j < m; j++ {
		lo := 1500 + float64(j*7)
		qs = append(qs, QuerySpec{
			Name: fmt.Sprintf("q%d", j),
			NewProtocol: func(h server.Host, seed int64) server.Protocol {
				return core.NewFTNRP(h, query.NewRange(lo, lo+200), core.FTNRPConfig{
					Tol:       core.FractionTolerance{EpsPlus: 0.2, EpsMinus: 0.2},
					Selection: core.SelectBoundaryNearest,
					Seed:      seed,
				})
			},
		})
	}
	return qs
}

// mqActiveQueries builds m queries that are all active over the walk's
// [0,1000] band — the end-to-end benchmark's node-multiquery mix at any m:
// 7/16 FT-NRP over 16 replicated bands (asked more than once, so they share
// evaluation classes), 7/16 FT-NRP over distinct overlapping ranges, the
// rest ZT-NRP. Nearly every event crosses somebody's boundary, so it drives
// the report path — the dispatch to the queries that crossed — where
// mqWideQueries drives the no-report path.
func mqActiveQueries(m int) []QuerySpec {
	ranged := func(name string, zero bool, lo, hi float64) QuerySpec {
		return QuerySpec{
			Name: name,
			NewProtocol: func(h server.Host, seed int64) server.Protocol {
				if zero {
					return core.NewZTNRP(h, query.NewRange(lo, hi))
				}
				return core.NewFTNRP(h, query.NewRange(lo, hi), core.FTNRPConfig{
					Tol:       core.FractionTolerance{EpsPlus: 0.2, EpsMinus: 0.2},
					Selection: core.SelectBoundaryNearest,
					Seed:      seed,
				})
			},
		}
	}
	bands := m * 7 / 16
	qs := make([]QuerySpec, 0, m)
	for i := 0; i < bands; i++ {
		lo := 60 * float64(i%16)
		qs = append(qs, ranged(fmt.Sprintf("band-%d", i), false, lo, lo+100))
	}
	for i := 0; i < bands; i++ {
		lo := 100 + 25*float64(i)
		qs = append(qs, ranged(fmt.Sprintf("range-%d", i), false, lo, lo+200))
	}
	for i := 0; len(qs) < m; i++ {
		lo := 120 * float64(i)
		qs = append(qs, ranged(fmt.Sprintf("zt-%d", i), true, lo, lo+80))
	}
	return qs
}

// startedNode builds and starts a Shards: 2, Seed: 42 node over specs.
func startedNode(t *testing.T, specs []TenantSpec) *Node {
	t.Helper()
	node, err := NewNode(Config{Shards: 2, Seed: 42}, specs)
	if err != nil {
		t.Fatal(err)
	}
	if err := node.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(node.Stop)
	return node
}

// ingestDrained ingests every batch and drains.
func ingestDrained(t *testing.T, node *Node, batches [][]Event) {
	t.Helper()
	ingestAll(t, node, batches)
	if err := node.Drain(); err != nil {
		t.Fatal(err)
	}
}

// TestCompositeSharingBeatsIndependentTenants pins the paper-level payoff
// of the query plane: a composite tenant serving M range queries costs
// strictly fewer maintenance messages than M independent single-query
// tenants watching the same partition, for every M > 1. Message counts are
// deterministic, so each row also pins its exact counts; one more message
// anywhere in the filtering or sharing logic fails the row. The wide and
// all-active rows are composite only (an independent deployment at M = 256
// would ingest 2.56M events), and so is the mixed row: its RTP queries
// handle their own install mismatch reports, which sharing cannot save,
// and against the independent tenants it wins on some walks and loses on
// others, by up to a few hundred messages either way.
func TestCompositeSharingBeatsIndependentTenants(t *testing.T) {
	qpInitial := qpSpec("shared", 4, 80, 11).Initial
	qpMv := qpMoves(qpInitial, 6000, 12)
	mqInitial, mqMv := mqWalk(300, 10000, 29)
	for _, row := range []struct {
		name      string
		initial   []float64
		moves     []Event
		queries   []QuerySpec
		comp, ind uint64 // ind == 0: composite only
	}{
		{"mixed/m=4", qpInitial, qpMv, qpQueries(4), 13683, 0},
		{"composite/m=1", mqInitial, mqMv, mqQueries(1), 197, 197},
		{"composite/m=4", mqInitial, mqMv, mqQueries(4), 1029, 1035},
		{"composite/m=16", mqInitial, mqMv, mqQueries(16), 3263, 4145},
		{"wide/m=64", mqInitial, mqMv, mqWideQueries(64), 465, 0},
		{"wide/m=256", mqInitial, mqMv, mqWideQueries(256), 465, 0},
		{"active/m=64", mqInitial, mqMv, mqActiveQueries(64), 23018, 0},
	} {
		t.Run(row.name, func(t *testing.T) {
			m := len(row.queries)
			shared := startedNode(t, []TenantSpec{{Name: "mq", Initial: row.initial, Queries: row.queries}})
			ingestDrained(t, shared, batched(row.moves, 512))
			comp := shared.Report().Totals.Maintenance()
			if comp != row.comp {
				t.Errorf("composite: %d maintenance messages, want %d", comp, row.comp)
			}
			if row.ind == 0 {
				return
			}
			// M single-query tenants, each a full copy of the partition fed
			// the same walk: the independent deployment of the same queries.
			indSpecs := make([]TenantSpec, m)
			for j, qs := range row.queries {
				indSpecs[j] = TenantSpec{Name: qs.Name, Initial: row.initial, NewProtocol: qs.NewProtocol}
			}
			fanout := make([]Event, 0, m*len(row.moves))
			for _, mv := range row.moves {
				for j := 0; j < m; j++ {
					fanout = append(fanout, Event{Tenant: j, Stream: mv.Stream, Value: mv.Value})
				}
			}
			ind := startedNode(t, indSpecs)
			ingestDrained(t, ind, batched(fanout, 512))
			indMaint := ind.Report().Totals.Maintenance()
			if indMaint != row.ind {
				t.Errorf("independent: %d maintenance messages, want %d", indMaint, row.ind)
			}
			if m > 1 && comp >= indMaint {
				t.Errorf("composite = %d maintenance messages, independent = %d; sharing must win", comp, indMaint)
			}
		})
	}
}

// TestWideCompositeNearFlat is the query index's scaling bound: hosting 64
// or 256 standing queries on one composite tenant, all but mqActiveCore of
// them dormant, must cost no more than maxFactor times per event what one
// query costs. Both sides run on this host in this process, so the ratio
// holds on any machine: measured about 1.2×, while a return to scanning
// every standing query per event (server.SetQueryIndexEnabled(false)) costs
// about 16× at M = 64 and 60× at M = 256. Each side's per-event time is the
// best of several interleaved samples, and each sample repeats whole passes
// until minSample has elapsed, so a preemption or GC pause under parallel
// package load inflates a small share of one sample, not the verdict.
func TestWideCompositeNearFlat(t *testing.T) {
	const samples, minSample, maxFactor = 5, 40 * time.Millisecond, 3.0
	initial, moves := mqWalk(300, 10000, 29)
	batches := batched(moves, 512)
	sides := []struct {
		m       int
		queries []QuerySpec
	}{{1, mqQueries(1)}, {64, mqWideQueries(64)}, {256, mqWideQueries(256)}}
	nodes := make([]*Node, len(sides))
	for i, side := range sides {
		nodes[i] = startedNode(t, []TenantSpec{{Name: "mq", Initial: initial, Queries: side.queries}})
		ingestDrained(t, nodes[i], batches) // warm protocol and index scratch
	}
	perEvent := make([]float64, len(sides)) // best ns/event per side
	for s := 0; s < samples; s++ {
		for i, node := range nodes {
			start := time.Now()
			passes := 0
			for ; time.Since(start) < minSample; passes++ {
				ingestDrained(t, node, batches)
			}
			ns := float64(time.Since(start)) / float64(passes*len(moves))
			if s == 0 || ns < perEvent[i] {
				perEvent[i] = ns
			}
		}
	}
	for i, side := range sides[1:] {
		factor := perEvent[i+1] / perEvent[0]
		t.Logf("m=%d: %.1f ns/event vs %.1f at m=1 (%.2f×)", side.m, perEvent[i+1], perEvent[0], factor)
		if factor > maxFactor {
			t.Errorf("m=%d: per-event cost %.2f× that of m=1, want at most %.0f×", side.m, factor, maxFactor)
		}
	}
}
