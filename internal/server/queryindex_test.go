package server_test

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"adaptivefilters/internal/core"
	"adaptivefilters/internal/filter"
	"adaptivefilters/internal/query"
	"adaptivefilters/internal/server"
	"adaptivefilters/internal/snapshot"
	"adaptivefilters/internal/stream"
)

// churner is an adversarial scripted protocol for the query-index
// equivalence tests: its maintenance phase installs constraints drawn from
// a palette covering every categorization edge the index has — shared
// duplicates, bands of every degeneracy (NaN width, ±Inf center, zero and
// negative width), silent and half-infinite intervals, unfiltered entries.
// All randomness is a pure function of (seed, update counter), so its only
// dynamic state is the counter and snapshot restore resumes the exact
// decision stream.
type churner struct {
	h       server.Host
	seed    uint64
	updates uint64
}

func churnMix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

func (p *churner) Name() string { return "churner" }

func (p *churner) pick(r uint64, v float64) filter.Constraint {
	w := 10 + float64(r%97)
	switch (r >> 32) % 16 {
	case 0:
		return filter.NoFilter()
	case 1:
		return filter.NewInterval(v-w, v+w)
	case 2:
		return filter.NewInterval(v+1, v+w) // current value just outside
	case 3:
		return filter.WideOpen()
	case 4:
		return filter.Shut()
	case 5:
		return filter.NewBand(v, w)
	case 6:
		return filter.NewBand(v, 0)
	case 7:
		return filter.NewInterval(v+w, v-w) // inverted: silent
	case 8:
		return filter.NewInterval(v-w, math.Inf(1))
	case 9:
		return filter.NewInterval(math.Inf(-1), v)
	case 10:
		return filter.NewBand(v, math.NaN()) // fires every update
	case 11:
		return filter.NewInterval(math.NaN(), v)
	case 12:
		return filter.NewBand(math.Inf(1), w) // region {+Inf}
	case 13:
		return filter.NewInterval(100, 200) // shared across queries
	default:
		return filter.NewBand(150, 25) // shared band
	}
}

func (p *churner) Initialize() {
	p.h.ProbeAll()
	for id := 0; id < p.h.N(); id++ {
		v, _ := p.h.Table(stream.ID(id))
		p.h.Install(stream.ID(id), p.pick(churnMix(p.seed^uint64(id)), v), false)
	}
}

func (p *churner) HandleUpdate(id stream.ID, v float64) {
	p.updates++
	r := churnMix(p.seed ^ churnMix(p.updates))
	n := uint64(p.h.N())
	switch r % 8 {
	case 0:
		p.h.Install(id, p.pick(r, v), false)
	case 1:
		tid := stream.ID((r >> 8) % n)
		tv := p.h.Probe(tid)
		p.h.Install(tid, p.pick(r>>16, tv), false)
	case 2:
		// ProbeIf re-records the probed stream's sides even on a miss.
		p.h.ProbeIf(stream.ID((r>>8)%n), filter.NewInterval(100, 500))
	case 3:
		p.h.AddServerOps(1)
	}
}

func (p *churner) Answer() []stream.ID { return nil }

func (p *churner) ExportState(w *snapshot.Writer)       { w.Uint64(p.updates) }
func (p *churner) ImportState(r *snapshot.Reader) error { p.updates = r.Uint64(); return r.Err() }

// population is one query mix of the equivalence harness: build returns the
// protocol factory for the query admitted under seed label seedID (the same
// function serves admission and restore, so a restored slot resumes the
// same configuration), queries is how many stand at t0, and nan says whether
// the schedule may deliver NaN (the rank tables of RTP and VB-kNN reject a
// NaN key by design, so the mix that hosts them gets ±Inf only).
type population struct {
	name    string
	queries int
	nan     bool
	build   func(seedID int64) func(server.Host) server.Protocol
}

func churnerBuild(seedID int64) func(server.Host) server.Protocol {
	return func(h server.Host) server.Protocol {
		return &churner{h: h, seed: uint64(seedID)*0x9E3779B97F4A7C15 + 1}
	}
}

// rangeBuild rotates through the CrossingDriven protocols — strict and
// Faithful FT-NRP under both re-initialization policies, ZT-NRP — over
// ranges that share boundaries with each other (and with the schedule's
// exact-boundary deliveries) or are distinct, by seed label.
func rangeBuild(seedID int64) func(server.Host) server.Protocol {
	ranges := [][2]float64{{100, 200}, {125, 175}, {100, 200}, {150, 260}, {60, 140}, {175, 300}}
	r := ranges[int(seedID)%len(ranges)]
	rng := query.NewRange(r[0], r[1])
	return func(h server.Host) server.Protocol {
		if seedID%3 == 2 {
			return core.NewZTNRP(h, rng)
		}
		cfg := core.FTNRPConfig{
			Tol:       core.FractionTolerance{EpsPlus: 0.25, EpsMinus: 0.25},
			Selection: core.SelectBoundaryNearest,
			Seed:      seedID,
			Faithful:  seedID%2 == 1,
		}
		if seedID%4 == 3 {
			cfg.Selection, cfg.Reinit = core.SelectRandom, core.ReinitNever
		}
		return core.NewFTNRP(h, rng, cfg)
	}
}

// mixedBuild is the serving mix: range queries that Deliver may skip, one
// RTP and one VB-kNN that see every report (VB-kNN's bands re-centre under
// the index), and a churner rewriting its entries adversarially.
func mixedBuild(seedID int64) func(server.Host) server.Protocol {
	switch seedID {
	case 1:
		return func(h server.Host) server.Protocol {
			return core.NewRTP(h, query.At(150), core.RankTolerance{K: 3, R: 2})
		}
	case 3:
		return func(h server.Host) server.Protocol {
			return core.NewVBKNN(h, query.NewKNN(query.At(150), 3), 40)
		}
	case 5:
		return churnerBuild(seedID)
	}
	return rangeBuild(seedID)
}

func populations() []population {
	return []population{
		{name: "churners", queries: 3, nan: true, build: churnerBuild},
		{name: "ranges", queries: 6, nan: true, build: func(seedID int64) func(server.Host) server.Protocol {
			if seedID == 4 {
				return churnerBuild(seedID)
			}
			return rangeBuild(seedID)
		}},
		{name: "mixed", queries: 8, nan: false, build: mixedBuild},
		// Past one bitmap word: classes, recorded sides and both dispatch
		// masks span slots on either side of 63/64.
		{name: "wide", queries: 70, nan: true, build: func(seedID int64) func(server.Host) server.Protocol {
			if seedID%10 == 4 {
				return churnerBuild(seedID)
			}
			return rangeBuild(seedID)
		}},
	}
}

// compOp is one step of a recorded composite schedule.
type compOp struct {
	kind int // see the op* constants
	s    int
	v    float64
	qi   int
}

const (
	opDeliver = iota
	opAddQuery
	opRemoveQuery
	opCut
	opAddUnfiltered // AddQuery without InitializeQuery: a filter.None entry at every stream
	opInitQuery     // InitializeQuery of the slot opAddUnfiltered left pending
)

// genCompOps records a deterministic schedule over n streams: mostly
// deliveries (with exact-boundary, ±Inf and — where the population allows —
// NaN values mixed in), plus query admissions, removals and snapshot cuts.
// Now and then a query is admitted but not yet initialized, so every stream
// holds a live filter.None entry for a while; it is initialized a few steps
// later, or removed if a cut came first (a restored slot counts as
// initialized). Liveness is simulated here so removals always target a live
// slot on both replays.
func genCompOps(seed int64, n, steps int, pop population) []compOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]compOp, 0, steps)
	live := make([]int, 0, 16)
	slots := pop.queries
	for qi := 0; qi < slots; qi++ {
		live = append(live, qi)
	}
	drop := func(qi int) {
		for j, l := range live {
			if l == qi {
				live = append(live[:j], live[j+1:]...)
				return
			}
		}
	}
	pending, pendingCut := -1, false
	for i := 0; i < steps; i++ {
		switch r := rng.Intn(100); {
		case r < 3 && slots < pop.queries+9:
			ops = append(ops, compOp{kind: opAddQuery, qi: slots})
			live = append(live, slots)
			slots++
		case r < 5 && len(live) > 1:
			qi := live[rng.Intn(len(live))]
			ops = append(ops, compOp{kind: opRemoveQuery, qi: qi})
			drop(qi)
			if qi == pending {
				pending = -1
			}
		case r < 8:
			ops = append(ops, compOp{kind: opCut})
			pendingCut = pending >= 0
		case r < 10 && pending < 0 && slots < pop.queries+14:
			ops = append(ops, compOp{kind: opAddUnfiltered, qi: slots})
			live = append(live, slots)
			pending, pendingCut = slots, false
			slots++
		case r < 18 && pending >= 0:
			if pendingCut {
				ops = append(ops, compOp{kind: opRemoveQuery, qi: pending})
				drop(pending)
			} else {
				ops = append(ops, compOp{kind: opInitQuery, qi: pending})
			}
			pending = -1
		default:
			v := rng.NormFloat64()*60 + 150
			switch rng.Intn(40) {
			case 0:
				v = math.Inf(1)
				if pop.nan {
					v = math.NaN() // linear-scan fallback + stream rebuild
				}
			case 1:
				v = math.Inf(1)
			case 2:
				v = math.Inf(-1)
			case 3, 4:
				v = []float64{100, 200, 150, 125, 175}[rng.Intn(5)]
			}
			ops = append(ops, compOp{kind: opDeliver, s: rng.Intn(n), v: v})
		}
	}
	return ops
}

// compCut is what the harness compares at every snapshot cut: the full
// fabric snapshot, and ServerOps beside it so a divergence in the skipped
// queries' charge reads as such.
type compCut struct {
	snap      []byte
	serverOps uint64
}

// replayComposite runs one recorded schedule with the query index on or
// off, returning the state at every cut plus the final one. Each cut
// round-trips the fabric through ExportState/ImportState into a fresh
// composite, so the restore-rebuild path is exercised mid-schedule, not
// just compared at the end.
func replayComposite(t *testing.T, indexed bool, initial []float64, ops []compOp, pop population) []compCut {
	t.Helper()
	prev := server.SetQueryIndexEnabled(indexed)
	defer server.SetQueryIndexEnabled(prev)

	factory := func(slot int, name string, seedID int64, h server.Host) (server.Protocol, error) {
		return pop.build(seedID)(h), nil
	}
	export := func(c *server.Composite) compCut {
		w := snapshot.NewWriter()
		c.ExportState(w)
		if err := w.Err(); err != nil {
			t.Fatalf("export: %v", err)
		}
		return compCut{snap: w.Bytes(), serverOps: c.Counter().ServerOps}
	}

	comp := server.NewComposite(initial)
	for qi := 0; qi < pop.queries; qi++ {
		comp.AddQuery(fmt.Sprintf("q%d", qi), int64(qi), pop.build(int64(qi)))
	}
	comp.Initialize()

	var cuts []compCut
	for _, op := range ops {
		switch op.kind {
		case opDeliver:
			comp.Deliver(stream.ID(op.s), op.v)
		case opAddQuery, opAddUnfiltered:
			qi := comp.AddQuery(fmt.Sprintf("q%d", op.qi), int64(op.qi), pop.build(int64(op.qi)))
			if qi != op.qi {
				t.Fatalf("AddQuery slot = %d, schedule expects %d", qi, op.qi)
			}
			if op.kind == opAddQuery {
				comp.InitializeQuery(qi)
			}
		case opInitQuery:
			comp.InitializeQuery(op.qi)
		case opRemoveQuery:
			if err := comp.RemoveQuery(op.qi); err != nil {
				t.Fatalf("RemoveQuery(%d): %v", op.qi, err)
			}
		case opCut:
			cut := export(comp)
			cuts = append(cuts, cut)
			restored := server.NewComposite(initial)
			if err := restored.ImportState(snapshot.NewReader(cut.snap), factory); err != nil {
				t.Fatalf("restore at cut %d: %v", len(cuts), err)
			}
			comp = restored
		}
	}
	return append(cuts, export(comp))
}

// BenchmarkCompositeDeliver prices Composite.Deliver at the end-to-end
// benchmark's node-multiquery shape: 64 streams under its 64 standing
// queries — 28 FT-NRP drawn from 16 ranges 60 apart, 28 overlapping FT-NRP
// 25 apart and 8 ZT-NRP, about 100 boundary keys per stream — fed a seeded
// random walk with Normal(0, 20) steps reflected into [0, 1000]. One op
// replays the walk forward and back, so every stream ends where it started;
// ns/event is the figure to compare, at 0 allocs/op.
func BenchmarkCompositeDeliver(b *testing.B) { benchCompositeDeliver(b, 1) }

// BenchmarkCompositeDeliverWide is the same walk under 256 standing
// queries, four bitmap words: the 64-query mix four times over, each copy's
// ranges 15 above the last one's.
func BenchmarkCompositeDeliverWide(b *testing.B) { benchCompositeDeliver(b, 4) }

func benchCompositeDeliver(b *testing.B, copies int) {
	const n, steps, sigma = 64, 4096, 20.0
	rng := rand.New(rand.NewSource(1))
	reflect := func(v float64) float64 {
		for v < 0 || v > 1000 {
			if v < 0 {
				v = -v
			} else {
				v = 2000 - v
			}
		}
		return v
	}
	initial := make([]float64, n)
	for s := range initial {
		initial[s] = rng.Float64() * 1000
	}
	type move struct {
		s stream.ID
		v float64
	}
	walk, back := make([]move, steps), make([]move, steps)
	cur := append([]float64(nil), initial...)
	for i := range walk {
		s := rng.Intn(n)
		back[steps-1-i] = move{stream.ID(s), cur[s]}
		cur[s] = reflect(cur[s] + rng.NormFloat64()*sigma)
		walk[i] = move{stream.ID(s), cur[s]}
	}
	walk = append(walk, back...)

	c := server.NewComposite(initial)
	ftnrp := func(seed int64, lo, hi float64) func(server.Host) server.Protocol {
		return func(h server.Host) server.Protocol {
			return core.NewFTNRP(h, query.NewRange(lo, hi), core.FTNRPConfig{
				Tol:       core.FractionTolerance{EpsPlus: 0.2, EpsMinus: 0.2},
				Selection: core.SelectBoundaryNearest,
				Seed:      seed,
			})
		}
	}
	for k := 0; k < copies; k++ {
		id, off := int64(64*k), 15*float64(k)
		for i := 0; i < 28; i++ {
			lo := off + 60*float64(i%16)
			c.AddQuery(fmt.Sprintf("band-%d", 28*k+i), id, ftnrp(id, lo, lo+100))
			id++
		}
		for i := 0; i < 28; i++ {
			lo := off + 100 + 25*float64(i)
			c.AddQuery(fmt.Sprintf("range-%d", 28*k+i), id, ftnrp(id, lo, lo+200))
			id++
		}
		for i := 0; i < 8; i++ {
			rg := query.NewRange(off+120*float64(i), off+120*float64(i)+80)
			c.AddQuery(fmt.Sprintf("zt-%d", 8*k+i), id, func(h server.Host) server.Protocol { return core.NewZTNRP(h, rg) })
			id++
		}
	}
	c.Initialize()
	replay := func() {
		for _, m := range walk {
			c.Deliver(m.s, m.v)
		}
	}
	replay() // grow the index and protocol scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replay()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(walk)), "ns/event")
}

// TestQueryIndexEquivalence pins the indexed Deliver — crossing detection
// and crossed-only dispatch — bit-identical to the linear reference, which
// scans every entry and dispatches to every live query: full fabric
// snapshots (constraint vectors, recorded sides, tables, counters, protocol
// state) and ServerOps compared at every snapshot cut and at the end. Four
// populations: adversarial constraint churn; CrossingDriven range queries;
// the serving mix of range queries, one RTP, one VB-kNN and a churner; and
// 70 range queries and churners, two bitmap words wide — each with query
// admission/removal, a not-yet-filtered slot, ±Inf and (where the
// protocols allow) NaN deliveries, and mid-schedule restores.
func TestQueryIndexEquivalence(t *testing.T) {
	const n = 24
	for _, pop := range populations() {
		pop := pop
		t.Run(pop.name, func(t *testing.T) {
			for _, seed := range []int64{1, 7, 23, 61} {
				rng := rand.New(rand.NewSource(seed ^ 0x5ca1ab1e))
				initial := make([]float64, n)
				for s := range initial {
					initial[s] = rng.NormFloat64()*60 + 150
				}
				ops := genCompOps(seed, n, 1500, pop)
				kinds := map[int]int{}
				for _, op := range ops {
					kinds[op.kind]++
				}
				for k := opDeliver; k <= opInitQuery; k++ {
					if kinds[k] == 0 {
						t.Fatalf("seed %d: schedule has no op of kind %d; adjust the generator", seed, k)
					}
				}
				linear := replayComposite(t, false, initial, ops, pop)
				indexed := replayComposite(t, true, initial, ops, pop)
				if len(linear) != len(indexed) {
					t.Fatalf("seed %d: %d cuts linear, %d indexed", seed, len(linear), len(indexed))
				}
				for i := range linear {
					if linear[i].serverOps != indexed[i].serverOps {
						t.Fatalf("seed %d: ServerOps at cut %d/%d: linear %d, indexed %d",
							seed, i+1, len(linear), linear[i].serverOps, indexed[i].serverOps)
					}
					if !bytes.Equal(linear[i].snap, indexed[i].snap) {
						t.Fatalf("seed %d: snapshot at cut %d/%d differs between linear and indexed evaluation",
							seed, i+1, len(linear))
					}
				}
			}
		})
	}
}
