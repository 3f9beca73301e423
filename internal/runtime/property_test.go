package runtime

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"adaptivefilters/internal/core"
	"adaptivefilters/internal/filter"
	"adaptivefilters/internal/query"
	"adaptivefilters/internal/server"
	"adaptivefilters/internal/sim"
)

// This file holds the randomized-schedule property test of ISSUEs 4 and 5:
// a seeded generator interleaves Ingest / Drain / AddTenant / RemoveTenant
// / AddQuery / RemoveQuery / Snapshot operations over a mixed population of
// single-query and multi-query tenants, and the resulting trajectory —
// every tenant's answers (per query slot for composite tenants), counters,
// event counts, and the snapshot bytes themselves — must be identical at
// shard counts 1, 4 and 8, and across a snapshot→restore cut at every
// barrier the schedule produced. CI runs it under -race, so it also
// exercises the barrier publication protocol the lifecycle relies on.

type opKind int

const (
	opIngest opKind = iota
	opDrain
	opAdd
	opRemove
	opSnapshot
	opAddQuery
	opRemoveQuery
)

type schedOp struct {
	kind   opKind
	events []Event    // opIngest
	spec   TenantSpec // opAdd
	qspec  QuerySpec  // opAddQuery
	ti     int        // opRemove/opAddQuery/opRemoveQuery; for opAdd, the expected new slot
	qi     int        // opRemoveQuery; for opAddQuery, the expected new query slot
}

// propQuerySpec builds one standing-query spec for a composite tenant,
// rotating through protocols so the composite snapshot path sees
// heterogeneous per-query state (including RNG positions) and the
// composite's dispatch sees both kinds of query: range queries it may skip
// on reports their own filter did not cause (over ranges that differ by
// admission, so they fire apart) and rank queries that see every report.
func propQuerySpec(j int) QuerySpec {
	name := fmt.Sprintf("pq-%d", j)
	shift := 35 * float64(j/6)
	switch j % 6 {
	case 0:
		return QuerySpec{Name: name,
			NewProtocol: func(h server.Host, seed int64) server.Protocol {
				return core.NewFTNRP(h, query.NewRange(200+shift, 650+shift), core.FTNRPConfig{
					Tol:       core.FractionTolerance{EpsPlus: 0.3, EpsMinus: 0.3},
					Selection: core.SelectRandom, // RNG-position restore path
					Seed:      seed,
				})
			}}
	case 1:
		return QuerySpec{Name: name,
			NewProtocol: func(h server.Host, seed int64) server.Protocol {
				return core.NewRTP(h, query.At(480), core.RankTolerance{K: 4, R: 2})
			}}
	case 2:
		// Band-filter coverage: VBKNN keeps an Olston band on every stream,
		// exercising the composite fabric's re-centering path (and the query
		// index's band classes) under the full lifecycle schedule.
		return QuerySpec{Name: name,
			NewProtocol: func(h server.Host, seed int64) server.Protocol {
				return core.NewVBKNN(h, query.NewKNN(query.At(500), 3), 60)
			}}
	case 3:
		return QuerySpec{Name: name,
			NewProtocol: func(h server.Host, seed int64) server.Protocol {
				return core.NewZTNRP(h, query.NewRange(350+shift, 800))
			}}
	case 4:
		// Shares [200, 650] with slot 0 at first admission: one evaluation
		// class, two protocols with different silent-filter choices.
		return QuerySpec{Name: name,
			NewProtocol: func(h server.Host, seed int64) server.Protocol {
				return core.NewFTNRP(h, query.NewRange(200+shift, 650+shift), core.FTNRPConfig{
					Tol:       core.FractionTolerance{EpsPlus: 0.15, EpsMinus: 0.15},
					Selection: core.SelectBoundaryNearest,
					Seed:      seed,
					Faithful:  true,
				})
			}}
	default:
		return QuerySpec{Name: name,
			NewProtocol: func(h server.Host, seed int64) server.Protocol {
				return core.NewZTNRP(h, query.NewRange(100+shift, 420))
			}}
	}
}

// propQueries is a composite tenant's t0 population: four range queries,
// one RTP and one VB-kNN.
func propQueries() []QuerySpec {
	qs := make([]QuerySpec, 6)
	for j := range qs {
		qs[j] = propQuerySpec(j)
	}
	return qs
}

// propSpec builds the tenant spec for admission number adm, rotating
// through the stateful protocols — a multi-query composite tenant and a
// spatial 2-D tenant included — so every ExportState/ImportState pair is
// exercised by the property. ys supplies the second coordinate for the
// spatial case (the other cases ignore it).
func propSpec(adm int, initial, ys []float64) TenantSpec {
	name := fmt.Sprintf("prop-%d", adm)
	switch adm % 7 {
	case 0:
		return TenantSpec{Name: name, Initial: initial,
			NewProtocol: func(h server.Host, seed int64) server.Protocol {
				return core.NewFTNRP(h, query.NewRange(300, 700), core.FTNRPConfig{
					Tol:       core.FractionTolerance{EpsPlus: 0.3, EpsMinus: 0.3},
					Selection: core.SelectRandom, // RNG-position restore path
					Seed:      seed,
				})
			}}
	case 1:
		return TenantSpec{Name: name, Initial: initial,
			NewProtocol: func(h server.Host, seed int64) server.Protocol {
				return core.NewRTP(h, query.At(500), core.RankTolerance{K: 4, R: 2})
			}}
	case 2:
		// A multi-query composite tenant: its query plane takes part in the
		// schedule via opAddQuery/opRemoveQuery.
		return TenantSpec{Name: name, Initial: initial, Queries: propQueries()}
	case 3:
		// A spatial 2-D tenant: its k-NN disk protocols snapshot through the
		// spatial record, alternating between the two protocols
		// across admissions.
		pts := make([]filter.Point, len(initial))
		for i := range pts {
			pts[i] = filter.Point{X: initial[i], Y: ys[i]}
		}
		q := query.Around(filter.Point{X: 500, Y: 500})
		if (adm/7)%2 == 0 {
			return TenantSpec{Name: name, SpatialInitial: pts,
				NewSpatial: func(h server.SpatialHost, seed int64) server.SpatialProtocol {
					return core.NewRTP(h, q, core.RankTolerance{K: 3, R: 2})
				}}
		}
		return TenantSpec{Name: name, SpatialInitial: pts,
			NewSpatial: func(h server.SpatialHost, seed int64) server.SpatialProtocol {
				return core.NewFTRP(h, q, 4, core.DefaultFTRPConfig(core.FractionTolerance{EpsPlus: 0.3, EpsMinus: 0.3}))
			}}
	case 4:
		return TenantSpec{Name: name, Initial: initial,
			NewProtocol: func(h server.Host, seed int64) server.Protocol {
				fc := core.DefaultFTRPConfig(core.FractionTolerance{EpsPlus: 0.25, EpsMinus: 0.25})
				fc.Seed = seed
				return core.NewFTRP(h, query.At(450), 5, fc)
			}}
	case 5:
		return TenantSpec{Name: name, Initial: initial,
			NewProtocol: func(h server.Host, seed int64) server.Protocol {
				return core.NewZTRP(h, query.At(550), 3)
			}}
	default:
		return TenantSpec{Name: name, Initial: initial,
			NewProtocol: func(h server.Host, seed int64) server.Protocol {
				return core.NewZTNRP(h, query.NewRange(250, 650))
			}}
	}
}

// genSchedule derives a deterministic operation schedule from seed. The
// generator tracks slot liveness — tenants and, for composite tenants,
// query slots — and per-stream walks so every generated operation is valid
// at its point in the schedule.
func genSchedule(seed int64, nOps int) (initial []TenantSpec, added []TenantSpec, ops []schedOp) {
	rng := sim.NewRNG(seed)
	var walks [][]float64
	var walksY [][]float64 // nil for 1-D tenants
	var alive []bool
	var qalive [][]bool // per tenant, nil for single-query tenants
	var qadmissions []int
	admissions := 0
	newSlot := func() TenantSpec {
		vals := make([]float64, 12+rng.Intn(6))
		ys := make([]float64, len(vals))
		for i := range vals {
			vals[i] = rng.Uniform(0, 1000)
			ys[i] = rng.Uniform(0, 1000)
		}
		spec := propSpec(admissions, vals, ys)
		admissions++
		walks = append(walks, append([]float64(nil), vals...))
		if len(spec.SpatialInitial) > 0 {
			walksY = append(walksY, append([]float64(nil), ys...))
		} else {
			walksY = append(walksY, nil)
		}
		alive = append(alive, true)
		if len(spec.Queries) > 0 {
			qs := make([]bool, len(spec.Queries))
			for i := range qs {
				qs[i] = true
			}
			qalive = append(qalive, qs)
			qadmissions = append(qadmissions, len(spec.Queries))
		} else {
			qalive = append(qalive, nil)
			qadmissions = append(qadmissions, 0)
		}
		return spec
	}
	// Four initial slots so the spatial tenant (admission 3) is always
	// present from t0.
	for i := 0; i < 4; i++ {
		initial = append(initial, newSlot())
	}
	aliveCount := func() int {
		n := 0
		for _, a := range alive {
			if a {
				n++
			}
		}
		return n
	}
	randAlive := func() int {
		for {
			if ti := rng.Intn(len(alive)); alive[ti] {
				return ti
			}
		}
	}
	// composites returns the live composite tenants satisfying keep, where
	// keep is handed the tenant's live query count.
	composites := func(keep func(liveQ, slots int) bool) []int {
		var out []int
		for ti := range alive {
			if !alive[ti] || qalive[ti] == nil {
				continue
			}
			liveQ := 0
			for _, a := range qalive[ti] {
				if a {
					liveQ++
				}
			}
			if keep(liveQ, len(qalive[ti])) {
				out = append(out, ti)
			}
		}
		return out
	}
	for len(ops) < nOps {
		switch draw := rng.Intn(12); {
		case draw < 5:
			m := 20 + rng.Intn(40)
			evs := make([]Event, 0, m)
			for j := 0; j < m; j++ {
				ti := randAlive()
				s := rng.Intn(len(walks[ti]))
				walks[ti][s] += rng.Normal(0, 35)
				ev := Event{Tenant: ti, Stream: s, Value: walks[ti][s]}
				if walksY[ti] != nil {
					walksY[ti][s] += rng.Normal(0, 35)
					ev.Y = walksY[ti][s]
				}
				evs = append(evs, ev)
			}
			ops = append(ops, schedOp{kind: opIngest, events: evs})
		case draw == 5:
			ops = append(ops, schedOp{kind: opDrain})
		case draw == 6 && len(alive) < 8:
			expect := len(alive)
			spec := newSlot()
			added = append(added, spec)
			ops = append(ops, schedOp{kind: opAdd, spec: spec, ti: expect})
		case draw == 7 && aliveCount() > 2:
			ti := randAlive()
			if qalive[ti] != nil && len(composites(func(int, int) bool { return true })) == 1 {
				// Keep the last composite tenant alive so the schedule's
				// query-plane operations stay reachable.
				ops = append(ops, schedOp{kind: opDrain})
				continue
			}
			alive[ti] = false
			ops = append(ops, schedOp{kind: opRemove, ti: ti})
		case draw == 8:
			cand := composites(func(_, slots int) bool { return slots < 10 })
			if len(cand) == 0 {
				ops = append(ops, schedOp{kind: opSnapshot})
				continue
			}
			ti := cand[rng.Intn(len(cand))]
			qspec := propQuerySpec(qadmissions[ti])
			qadmissions[ti]++
			expect := len(qalive[ti])
			qalive[ti] = append(qalive[ti], true)
			ops = append(ops, schedOp{kind: opAddQuery, ti: ti, qspec: qspec, qi: expect})
		case draw == 9:
			cand := composites(func(liveQ, _ int) bool { return liveQ > 1 })
			if len(cand) == 0 {
				ops = append(ops, schedOp{kind: opSnapshot})
				continue
			}
			ti := cand[rng.Intn(len(cand))]
			var qi int
			for {
				if qi = rng.Intn(len(qalive[ti])); qalive[ti][qi] {
					break
				}
			}
			qalive[ti][qi] = false
			ops = append(ops, schedOp{kind: opRemoveQuery, ti: ti, qi: qi})
		default:
			ops = append(ops, schedOp{kind: opSnapshot})
		}
	}
	return initial, added, ops
}

// specsAt returns the per-slot spec list for the node state after
// executing ops[:k]: the initial slots plus every tenant admission in that
// prefix, with each composite tenant's Queries grown by every query
// admission it saw (RestoreNode needs one QuerySpec per slot ever
// admitted). Queries slices are copied so appends never alias the inputs.
func specsAt(initial, added []TenantSpec, ops []schedOp, k int) []TenantSpec {
	specs := append([]TenantSpec(nil), initial...)
	for i := range specs {
		specs[i].Queries = append([]QuerySpec(nil), specs[i].Queries...)
	}
	for _, o := range ops[:k] {
		switch o.kind {
		case opAdd:
			sp := added[0]
			added = added[1:]
			sp.Queries = append([]QuerySpec(nil), sp.Queries...)
			specs = append(specs, sp)
		case opAddQuery:
			specs[o.ti].Queries = append(specs[o.ti].Queries, o.qspec)
		}
	}
	return specs
}

// execOps drives ops[from:] on a running node, collecting the bytes of
// every snapshot op. The node is left quiesced but running.
func execOps(t *testing.T, node *Node, ops []schedOp, from int) [][]byte {
	t.Helper()
	var snaps [][]byte
	for i, o := range ops[from:] {
		var err error
		switch o.kind {
		case opIngest:
			err = node.Ingest(o.events)
		case opDrain:
			err = node.Drain()
		case opAdd:
			var ti int
			if ti, err = node.AddTenant(o.spec); err == nil && ti != o.ti {
				t.Fatalf("op %d: AddTenant slot = %d, want %d", from+i, ti, o.ti)
			}
		case opRemove:
			err = node.RemoveTenant(o.ti)
		case opAddQuery:
			var qi int
			if qi, err = node.AddQuery(o.ti, o.qspec); err == nil && qi != o.qi {
				t.Fatalf("op %d: AddQuery slot = %d, want %d", from+i, qi, o.qi)
			}
		case opRemoveQuery:
			err = node.RemoveQuery(o.ti, o.qi)
		case opSnapshot:
			var b []byte
			if b, err = node.Snapshot(); err == nil {
				snaps = append(snaps, b)
			}
		}
		if err != nil {
			t.Fatalf("op %d (kind %d): %v", from+i, o.kind, err)
		}
	}
	if err := node.Drain(); err != nil {
		t.Fatal(err)
	}
	return snaps
}

// fingerprint renders the full observable per-tenant state of a quiesced
// node — for multi-query tenants, every query slot's answer.
func fingerprint(node *Node) string {
	var b strings.Builder
	rep := node.Report()
	for ti := range rep.Tenants {
		if !rep.Tenants[ti].Alive {
			fmt.Fprintf(&b, "slot %d: removed\n", ti)
			continue
		}
		fmt.Fprintf(&b, "slot %d: %s", ti, tenantState(&rep.Tenants[ti]))
	}
	return b.String()
}

// TestScheduleProperty is the property described above, for a couple of
// generator seeds.
func TestScheduleProperty(t *testing.T) {
	shardCounts := []int{1, 4, 8}
	for _, seed := range []int64{11, 29} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			initial, added, ops := genSchedule(seed, 40)
			kinds := make(map[opKind]int)
			for _, o := range ops {
				kinds[o.kind]++
			}
			if kinds[opAddQuery] == 0 || kinds[opRemoveQuery] == 0 {
				t.Fatalf("schedule exercises no query lifecycle (kinds %v); adjust the generator", kinds)
			}
			spatial := false
			for _, sp := range initial {
				spatial = spatial || len(sp.SpatialInitial) > 0
			}
			if !spatial {
				t.Fatal("schedule hosts no spatial tenant; adjust the generator")
			}

			// Reference trajectory per shard count: identical fingerprints
			// and identical snapshot bytes everywhere.
			var refFP string
			var refSnaps [][]byte
			for _, shards := range shardCounts {
				node, err := NewNode(Config{Shards: shards, Seed: 42}, initial)
				if err != nil {
					t.Fatal(err)
				}
				if err := node.Start(context.Background()); err != nil {
					t.Fatal(err)
				}
				snaps := execOps(t, node, ops, 0)
				fp := fingerprint(node)
				node.Stop()
				if refFP == "" {
					refFP, refSnaps = fp, snaps
					continue
				}
				if fp != refFP {
					t.Fatalf("shards=%d fingerprint diverged:\n%s\nwant:\n%s", shards, fp, refFP)
				}
				if len(snaps) != len(refSnaps) {
					t.Fatalf("shards=%d produced %d snapshots, want %d", shards, len(snaps), len(refSnaps))
				}
				for i := range snaps {
					if !bytes.Equal(snaps[i], refSnaps[i]) {
						t.Fatalf("shards=%d snapshot %d differs", shards, i)
					}
				}
			}

			// Cut at every barrier: restore snapshot s at a rotating shard
			// count and replay the remaining schedule; the end state and
			// every later snapshot must be bit-identical to the
			// uninterrupted run's.
			snapIdx := 0
			for k, o := range ops {
				if o.kind != opSnapshot {
					continue
				}
				cutSnaps := refSnaps[snapIdx:]
				shards := shardCounts[snapIdx%len(shardCounts)]
				specs := specsAt(initial, added, ops, k)
				rn, err := RestoreNode(Config{Shards: shards}, specs, refSnaps[snapIdx])
				if err != nil {
					t.Fatalf("cut %d: restore failed: %v", snapIdx, err)
				}
				if err := rn.Start(context.Background()); err != nil {
					t.Fatal(err)
				}
				tail := execOps(t, rn, ops, k+1)
				fp := fingerprint(rn)
				rn.Stop()
				if fp != refFP {
					t.Fatalf("cut %d (shards=%d) fingerprint diverged:\n%s\nwant:\n%s",
						snapIdx, shards, fp, refFP)
				}
				if len(tail) != len(cutSnaps)-1 {
					t.Fatalf("cut %d: %d tail snapshots, want %d", snapIdx, len(tail), len(cutSnaps)-1)
				}
				for i := range tail {
					if !bytes.Equal(tail[i], cutSnaps[i+1]) {
						t.Fatalf("cut %d: tail snapshot %d differs from uninterrupted run", snapIdx, i)
					}
				}
				snapIdx++
			}
			if snapIdx == 0 {
				t.Fatal("schedule generated no snapshot barriers; adjust the generator")
			}
		})
	}
}

// TestSchedulePropertyIndexEquivalence pins the composite query index
// bit-identical to the linear reference evaluation under the full lifecycle
// schedule: answers, recorded sides, counter values and snapshot bytes
// (which encode all of them plus maintenance-message accounting) must match
// between index-off and index-on runs at shard counts 1, 4 and 8, with
// AddQuery/RemoveQuery interleaved — and across a restore cut at every
// snapshot barrier, where the restored node rebuilds its indexes from the
// linear run's snapshot bytes and must still reproduce the linear tail.
// The composite tenants are mixed (propQueries: range queries the indexed
// dispatch may skip beside an RTP and a VB-kNN it may not, plus whatever
// the schedule admits and removes), and the linear run dispatches every
// report to every live query, so the counters compared here — ServerOps
// among them — pin the crossed-only dispatch too. The schedule is three
// times the length TestScheduleProperty plays, to give it reports to skip.
func TestSchedulePropertyIndexEquivalence(t *testing.T) {
	shardCounts := []int{1, 4, 8}
	for _, seed := range []int64{11, 29} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			initial, added, ops := genSchedule(seed, 120)
			kinds := make(map[opKind]int)
			for _, o := range ops {
				kinds[o.kind]++
			}
			if kinds[opAddQuery] == 0 || kinds[opRemoveQuery] == 0 {
				t.Fatalf("schedule exercises no query lifecycle (kinds %v); adjust the generator", kinds)
			}

			run := func(indexed bool, shards int) (string, [][]byte) {
				prev := server.SetQueryIndexEnabled(indexed)
				defer server.SetQueryIndexEnabled(prev)
				node, err := NewNode(Config{Shards: shards, Seed: 42}, initial)
				if err != nil {
					t.Fatal(err)
				}
				if err := node.Start(context.Background()); err != nil {
					t.Fatal(err)
				}
				snaps := execOps(t, node, ops, 0)
				fp := fingerprint(node)
				node.Stop()
				return fp, snaps
			}

			refFP, refSnaps := run(false, 1) // linear reference
			for _, shards := range shardCounts {
				fp, snaps := run(true, shards)
				if fp != refFP {
					t.Fatalf("indexed shards=%d fingerprint diverged from linear:\n%s\nwant:\n%s",
						shards, fp, refFP)
				}
				if len(snaps) != len(refSnaps) {
					t.Fatalf("indexed shards=%d produced %d snapshots, want %d", shards, len(snaps), len(refSnaps))
				}
				for i := range snaps {
					if !bytes.Equal(snaps[i], refSnaps[i]) {
						t.Fatalf("indexed shards=%d snapshot %d differs from linear evaluation", shards, i)
					}
				}
			}

			// Cut at every barrier: restore the linear run's snapshot with the
			// index ON (forcing an index rebuild from snapshot state) and
			// replay the remaining schedule; tail snapshots and the end state
			// must still match the linear reference.
			snapIdx := 0
			for k, o := range ops {
				if o.kind != opSnapshot {
					continue
				}
				shards := shardCounts[snapIdx%len(shardCounts)]
				specs := specsAt(initial, added, ops, k)
				prev := server.SetQueryIndexEnabled(true)
				rn, err := RestoreNode(Config{Shards: shards}, specs, refSnaps[snapIdx])
				server.SetQueryIndexEnabled(prev)
				if err != nil {
					t.Fatalf("cut %d: restore failed: %v", snapIdx, err)
				}
				if err := rn.Start(context.Background()); err != nil {
					t.Fatal(err)
				}
				tail := execOps(t, rn, ops, k+1)
				fp := fingerprint(rn)
				rn.Stop()
				if fp != refFP {
					t.Fatalf("cut %d (shards=%d) indexed fingerprint diverged from linear:\n%s\nwant:\n%s",
						snapIdx, shards, fp, refFP)
				}
				cutSnaps := refSnaps[snapIdx:]
				if len(tail) != len(cutSnaps)-1 {
					t.Fatalf("cut %d: %d tail snapshots, want %d", snapIdx, len(tail), len(cutSnaps)-1)
				}
				for i := range tail {
					if !bytes.Equal(tail[i], cutSnaps[i+1]) {
						t.Fatalf("cut %d: indexed tail snapshot %d differs from linear run", snapIdx, i)
					}
				}
				snapIdx++
			}
		})
	}
}
