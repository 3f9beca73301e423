package core_test

import (
	"math/rand"
	"testing"

	"adaptivefilters/internal/comm"
	"adaptivefilters/internal/core"
	"adaptivefilters/internal/oracle"
	"adaptivefilters/internal/query"
	"adaptivefilters/internal/server"
)

var testRange = query.NewRange(400, 600)

// ftnrpCluster builds a 10-stream scenario: ids 0..4 inside [400,600]
// (values 410,450,500,550,590), ids 5..9 outside (100,200,300,700,800).
func ftnrpVals() []float64 {
	return []float64{410, 450, 500, 550, 590, 100, 200, 300, 700, 800}
}

func ftnrpCluster(t *testing.T, cfg core.FTNRPConfig) (*server.Cluster, *core.FTNRP) {
	t.Helper()
	c := server.NewCluster(ftnrpVals())
	p := core.NewFTNRP(c, testRange, cfg)
	c.SetProtocol(p)
	c.Initialize()
	return c, p
}

func TestFTNRPInitializationAssignsFilters(t *testing.T) {
	cfg := core.FTNRPConfig{
		Tol:       core.FractionTolerance{EpsPlus: 0.4, EpsMinus: 0.4},
		Selection: core.SelectBoundaryNearest,
	}
	c, p := ftnrpCluster(t, cfg)
	// |A|=5: n⁺ = floor(5·0.4) = 2; n⁻ = floor(5·0.4·0.6/0.6) = 2.
	if p.NPlus() != 2 || p.NMinus() != 2 {
		t.Fatalf("n+/n- = %d/%d, want 2/2", p.NPlus(), p.NMinus())
	}
	if !sameIDs(p.Answer(), []int{0, 1, 2, 3, 4}) {
		t.Fatalf("A(t0) = %v", p.Answer())
	}
	// Boundary-nearest silences the inside streams closest to the boundary
	// (410 and 590) and the outside streams closest to it (300 and 700).
	wantWide := map[int]bool{0: true, 4: true}
	wantShut := map[int]bool{7: true, 8: true}
	for id := 0; id < c.N(); id++ {
		cons := c.Constraint(id)
		switch {
		case wantWide[id]:
			if !cons.IsWideOpen() {
				t.Fatalf("stream %d constraint = %v, want wide-open", id, cons)
			}
		case wantShut[id]:
			if !cons.IsShut() {
				t.Fatalf("stream %d constraint = %v, want shut", id, cons)
			}
		default:
			if cons.Silent() {
				t.Fatalf("stream %d unexpectedly silent: %v", id, cons)
			}
			if cons.Lo != 400 || cons.Hi != 600 {
				t.Fatalf("stream %d constraint = %v, want [400,600]", id, cons)
			}
		}
	}
}

func TestFTNRPZeroToleranceEqualsZTNRP(t *testing.T) {
	cfg := core.FTNRPConfig{Tol: core.FractionTolerance{}}
	c, p := ftnrpCluster(t, cfg)
	if p.NPlus() != 0 || p.NMinus() != 0 {
		t.Fatalf("zero tolerance allocated silent filters: %d/%d", p.NPlus(), p.NMinus())
	}
	// Behaves exactly like ZT-NRP on a crossing sequence.
	c2 := server.NewCluster(ftnrpVals())
	zt := core.NewZTNRP(c2, testRange)
	c2.SetProtocol(zt)
	c2.Initialize()
	rng := rand.New(rand.NewSource(5))
	for step := 0; step < 500; step++ {
		id := rng.Intn(10)
		v := rng.Float64() * 1000
		c.Deliver(id, v)
		c2.Deliver(id, v)
		if !sameIDs(p.Answer(), zt.Answer()) {
			t.Fatalf("step %d: FT-NRP(0,0) answer %v != ZT-NRP %v", step, p.Answer(), zt.Answer())
		}
	}
	if c.Counter().Maintenance() != c2.Counter().Maintenance() {
		t.Fatalf("message counts diverge: %d vs %d",
			c.Counter().Maintenance(), c2.Counter().Maintenance())
	}
}

func TestFTNRPSilentStreamsDoNotReport(t *testing.T) {
	cfg := core.FTNRPConfig{
		Tol:       core.FractionTolerance{EpsPlus: 0.4, EpsMinus: 0.4},
		Selection: core.SelectBoundaryNearest,
	}
	c, _ := ftnrpCluster(t, cfg)
	before := c.Counter().Maintenance()
	// Streams 0 (wide-open) and 7 (shut) cross the range; neither reports.
	c.Deliver(0, 900)
	c.Deliver(7, 500)
	if got := c.Counter().Maintenance(); got != before {
		t.Fatalf("silent streams produced %d messages", got-before)
	}
}

func TestFTNRPCase1InsertionIncrementsCount(t *testing.T) {
	cfg := core.FTNRPConfig{Tol: core.FractionTolerance{EpsPlus: 0.2, EpsMinus: 0.2}}
	c, p := ftnrpCluster(t, cfg)
	if p.Count() != 0 {
		t.Fatalf("count = %d at t0", p.Count())
	}
	c.Deliver(5, 450) // outside stream (unsilenced) enters
	if p.Count() != 1 {
		t.Fatalf("count = %d after insertion, want 1", p.Count())
	}
	if !p.HasAnswer(5) {
		t.Fatal("entering stream not in answer")
	}
	// A removal while count > 0 consumes the count without Fix_Error.
	probesBefore := c.Counter().Get(comm.Maintenance, comm.Probe)
	c.Deliver(1, 300)
	if p.Count() != 0 {
		t.Fatalf("count = %d after removal, want 0", p.Count())
	}
	if got := c.Counter().Get(comm.Maintenance, comm.Probe); got != probesBefore {
		t.Fatal("Fix_Error ran while count was positive")
	}
}

func TestFTNRPFixErrorConsultsSilentStreams(t *testing.T) {
	cfg := core.FTNRPConfig{
		Tol:       core.FractionTolerance{EpsPlus: 0.4, EpsMinus: 0.4},
		Selection: core.SelectBoundaryNearest,
	}
	c, p := ftnrpCluster(t, cfg)
	// count == 0; a removal triggers Fix_Error, which probes the first
	// false-positive stream (id 0, still inside) and pins it.
	c.Deliver(1, 300)
	if p.NPlus() != 1 {
		t.Fatalf("n+ = %d after Fix_Error, want 1 (one FP filter retired)", p.NPlus())
	}
	if cons := c.Constraint(0); cons.Silent() {
		t.Fatalf("probed FP stream still silent: %v", cons)
	}
	if !p.HasAnswer(0) {
		t.Fatal("pinned true positive dropped from answer")
	}
	// The probed stream was inside, so Fix_Error stops there: n⁻ untouched.
	if p.NMinus() != 2 {
		t.Fatalf("n- = %d, want 2", p.NMinus())
	}
}

func TestFTNRPFixErrorStrictRetiresOutsideFP(t *testing.T) {
	cfg := core.FTNRPConfig{
		Tol:       core.FractionTolerance{EpsPlus: 0.4, EpsMinus: 0.4},
		Selection: core.SelectBoundaryNearest,
	}
	c, p := ftnrpCluster(t, cfg)
	// Silently move FP stream 0 outside, then force Fix_Error.
	c.Deliver(0, 900) // silent (wide-open)
	c.Deliver(1, 300) // removal, count==0 → Fix_Error probes id 0: outside
	if p.HasAnswer(0) {
		t.Fatal("outside FP stream kept in answer")
	}
	// Strict mode: the filter is retired and [l,u] installed.
	if p.NPlus() != 1 {
		t.Fatalf("n+ = %d, want 1", p.NPlus())
	}
	if cons := c.Constraint(0); cons.Silent() {
		t.Fatalf("strict mode left silent filter on probed stream: %v", cons)
	}
	// The false-negative side was consulted too (paper's step 2).
	if p.NMinus() != 1 {
		t.Fatalf("n- = %d, want 1", p.NMinus())
	}
}

func TestFTNRPFaithfulKeepsFPPool(t *testing.T) {
	cfg := core.FTNRPConfig{
		Tol:       core.FractionTolerance{EpsPlus: 0.4, EpsMinus: 0.4},
		Selection: core.SelectBoundaryNearest,
		Faithful:  true,
	}
	c, p := ftnrpCluster(t, cfg)
	c.Deliver(0, 900) // silent FP stream leaves
	c.Deliver(1, 300) // Fix_Error probes id 0 → outside
	// Faithful mode: id 0 keeps its wide-open filter and stays in the pool.
	if p.NPlus() != 2 {
		t.Fatalf("faithful n+ = %d, want 2", p.NPlus())
	}
	if cons := c.Constraint(0); !cons.IsWideOpen() {
		t.Fatalf("faithful mode replaced the FP filter: %v", cons)
	}
}

func TestFTNRPFractionInvariantUnderRandomWalk(t *testing.T) {
	// Definition 3 must hold after every event for a spread of tolerances
	// and both heuristics (strict Fix_Error mode).
	tols := []core.FractionTolerance{
		{EpsPlus: 0, EpsMinus: 0},
		{EpsPlus: 0.1, EpsMinus: 0.1},
		{EpsPlus: 0.3, EpsMinus: 0.1},
		{EpsPlus: 0.1, EpsMinus: 0.3},
		{EpsPlus: 0.5, EpsMinus: 0.5},
	}
	for _, sel := range []core.Selection{core.SelectBoundaryNearest, core.SelectRandom} {
		for _, tol := range tols {
			rng := rand.New(rand.NewSource(int64(tol.EpsPlus*100)*7 + int64(tol.EpsMinus*100)))
			n := 50
			vals := make([]float64, n)
			for i := range vals {
				vals[i] = rng.Float64() * 1000
			}
			c := server.NewCluster(vals)
			p := core.NewFTNRP(c, testRange, core.FTNRPConfig{Tol: tol, Selection: sel, Seed: 42})
			c.SetProtocol(p)
			chk := oracle.New(vals)
			c.Initialize()
			if err := chk.CheckFractionRange(p.Answer(), testRange, tol); err != nil {
				t.Fatalf("%v/%v after init: %v", tol, sel, err)
			}
			cur := append([]float64(nil), vals...)
			for step := 0; step < 4000; step++ {
				id := rng.Intn(n)
				cur[id] += rng.NormFloat64() * 60
				chk.Apply(id, cur[id])
				c.Deliver(id, cur[id])
				if err := chk.CheckFractionRange(p.Answer(), testRange, tol); err != nil {
					t.Fatalf("%v/%v step %d: %v", tol, sel, step, err)
				}
			}
		}
	}
}

func TestFTNRPReinitRestoresSilentFilters(t *testing.T) {
	cfg := core.FTNRPConfig{
		Tol:       core.FractionTolerance{EpsPlus: 0.4, EpsMinus: 0.4},
		Selection: core.SelectBoundaryNearest,
		Reinit:    core.ReinitAlways,
	}
	// A larger population keeps |A| big enough that re-running the
	// initialization would allocate fresh silent filters.
	rng := rand.New(rand.NewSource(8))
	vals := make([]float64, 60)
	for i := range vals {
		vals[i] = 350 + rng.Float64()*300 // mostly inside [400,600] at t0
	}
	c := server.NewCluster(vals)
	p := core.NewFTNRP(c, testRange, cfg)
	c.SetProtocol(p)
	c.Initialize()
	// Jump targets uniform over [0,1000]: the in-range population shrinks
	// toward its stationary share, so removals outnumber insertions and the
	// count variable keeps returning to zero, draining the pools.
	for step := 0; step < 20000 && p.Reinits == 0; step++ {
		id := rng.Intn(c.N())
		c.Deliver(id, rng.Float64()*1000)
	}
	if p.Reinits == 0 {
		t.Fatal("pools never depleted; re-init untested")
	}
	if p.NPlus() == 0 && p.NMinus() == 0 {
		t.Fatal("re-initialization did not restore silent filters")
	}
}

func TestFTNRPReinitNeverDegradesToZT(t *testing.T) {
	cfg := core.FTNRPConfig{
		Tol:       core.FractionTolerance{EpsPlus: 0.4, EpsMinus: 0.4},
		Selection: core.SelectBoundaryNearest,
		Reinit:    core.ReinitNever,
	}
	c, p := ftnrpCluster(t, cfg)
	rng := rand.New(rand.NewSource(8))
	for step := 0; step < 500; step++ {
		id := rng.Intn(c.N())
		c.Deliver(id, rng.Float64()*1000)
	}
	if p.Reinits != 0 {
		t.Fatalf("ReinitNever re-initialized %d times", p.Reinits)
	}
	if p.NPlus() != 0 || p.NMinus() != 0 {
		t.Fatalf("pools not depleted after 500 random jumps: %d/%d", p.NPlus(), p.NMinus())
	}
}

func TestFTNRPZeroToleranceNeverReinits(t *testing.T) {
	cfg := core.FTNRPConfig{Tol: core.FractionTolerance{}, Reinit: core.ReinitAlways}
	c, p := ftnrpCluster(t, cfg)
	rng := rand.New(rand.NewSource(9))
	for step := 0; step < 500; step++ {
		c.Deliver(rng.Intn(c.N()), rng.Float64()*1000)
	}
	if p.Reinits != 0 {
		t.Fatalf("ε=0 re-initialized %d times (would loop forever)", p.Reinits)
	}
}

func TestFTNRPCapsFNFiltersByOutsidePopulation(t *testing.T) {
	// Nearly everything satisfies the query: the FN budget exceeds the
	// outside population and must be capped.
	vals := []float64{450, 460, 470, 480, 490, 500, 510, 520, 530, 700}
	c := server.NewCluster(vals)
	tol := core.FractionTolerance{EpsPlus: 0.5, EpsMinus: 0.5}
	p := core.NewFTNRP(c, testRange, core.FTNRPConfig{Tol: tol})
	c.SetProtocol(p)
	c.Initialize()
	if p.NMinus() > 1 {
		t.Fatalf("n- = %d with only one outside stream", p.NMinus())
	}
}

func TestFTNRPInvalidTolerancePanics(t *testing.T) {
	c := server.NewCluster(make([]float64, 3))
	defer func() {
		if recover() == nil {
			t.Error("invalid tolerance accepted")
		}
	}()
	core.NewFTNRP(c, testRange, core.FTNRPConfig{Tol: core.FractionTolerance{EpsPlus: 0.9}})
}

func TestFTNRPMessageSavingsVsZT(t *testing.T) {
	// On a random walk the fraction-based protocol must not cost more than
	// the zero-tolerance protocol (the whole point of Figures 10–12).
	run := func(tol core.FractionTolerance) uint64 {
		rng := rand.New(rand.NewSource(77))
		n := 200
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.Float64() * 1000
		}
		c := server.NewCluster(vals)
		p := core.NewFTNRP(c, testRange, core.FTNRPConfig{
			Tol: tol, Selection: core.SelectBoundaryNearest,
		})
		c.SetProtocol(p)
		c.Initialize()
		cur := append([]float64(nil), vals...)
		for step := 0; step < 20000; step++ {
			id := rng.Intn(n)
			cur[id] += rng.NormFloat64() * 30
			if cur[id] < 0 {
				cur[id] = -cur[id]
			}
			if cur[id] > 1000 {
				cur[id] = 2000 - cur[id]
			}
			c.Deliver(id, cur[id])
		}
		return c.Counter().Maintenance()
	}
	zt := run(core.FractionTolerance{})
	ft := run(core.FractionTolerance{EpsPlus: 0.4, EpsMinus: 0.4})
	if ft >= zt {
		t.Fatalf("FT-NRP(0.4) used %d messages, ZT used %d; tolerance not exploited", ft, zt)
	}
}

func TestZTNRPBasics(t *testing.T) {
	c := server.NewCluster(ftnrpVals())
	p := core.NewZTNRP(c, testRange)
	c.SetProtocol(p)
	c.Initialize()
	if p.Name() != "zt-nrp" {
		t.Fatalf("Name() = %q", p.Name())
	}
	if !sameIDs(p.Answer(), []int{0, 1, 2, 3, 4}) {
		t.Fatalf("A(t0) = %v", p.Answer())
	}
	// Exact maintenance under crossings.
	c.Deliver(0, 700) // leaves
	c.Deliver(8, 500) // enters
	if !sameIDs(p.Answer(), []int{1, 2, 3, 4, 8}) {
		t.Fatalf("A = %v", p.Answer())
	}
	// Within-range moves are silent.
	before := c.Counter().Maintenance()
	c.Deliver(1, 550)
	if c.Counter().Maintenance() != before {
		t.Fatal("in-range move produced a message")
	}
}

func TestZTNRPAlwaysExact(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	vals := make([]float64, 40)
	for i := range vals {
		vals[i] = rng.Float64() * 1000
	}
	c := server.NewCluster(vals)
	p := core.NewZTNRP(c, testRange)
	c.SetProtocol(p)
	chk := oracle.New(vals)
	c.Initialize()
	zero := core.FractionTolerance{}
	for step := 0; step < 3000; step++ {
		id := rng.Intn(len(vals))
		v := rng.Float64() * 1000
		chk.Apply(id, v)
		c.Deliver(id, v)
		if err := chk.CheckFractionRange(p.Answer(), testRange, zero); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
}

// TestFTNRPInstallsNeverMismatch is why FT-NRP's t0 and re-initialization
// may deploy in four batches (silent holders first, then the interval on
// the rest of each side): every deploy follows a ProbeAllInto, so the side a
// batch claims — the side the constraint puts the table value on — is the
// true side and no install draws a report. The population starts inside
// [400, 600] and is redrawn over [0, 1000), so exits outrun entries and
// drain the silent pools again and again.
func TestFTNRPInstallsNeverMismatch(t *testing.T) {
	auditInstalls(t, func(h server.Host, sel core.Selection) (server.Protocol, func() uint64) {
		p := core.NewFTNRP(h, testRange, core.FTNRPConfig{
			Tol:       core.FractionTolerance{EpsPlus: 0.05, EpsMinus: 0.05},
			Selection: sel,
			Reinit:    core.ReinitAlways,
		})
		return p, func() uint64 { return p.Reinits }
	},
		func(rng *rand.Rand) float64 { return float64(400 + rng.Intn(201)) },
		func(rng *rand.Rand, _ float64) float64 { return float64(rng.Intn(1000)) })
}
