package core_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"adaptivefilters/internal/core"
	"adaptivefilters/internal/filter"
	"adaptivefilters/internal/oracle"
	"adaptivefilters/internal/query"
	"adaptivefilters/internal/server"
)

// knnVals places streams at distances 1..10 from q=500 (alternating sides).
func knnVals() []float64 {
	vals := make([]float64, 10)
	for i := range vals {
		d := float64(i + 1)
		if i%2 == 0 {
			vals[i] = 500 + d
		} else {
			vals[i] = 500 - d
		}
	}
	return vals
}

func TestZTRPInitialization(t *testing.T) {
	c := server.NewCluster(knnVals())
	p := core.NewZTRP(c, query.At(500), 3)
	c.SetProtocol(p)
	c.Initialize()
	if !sameIDs(p.Answer(), []int{0, 1, 2}) {
		t.Fatalf("A(t0) = %v, want the 3 closest [0 1 2]", p.Answer())
	}
	// R sits halfway between the 3rd (dist 3) and 4th (dist 4) streams.
	b := p.Bound()
	if b.Lo != 496.5 || b.Hi != 503.5 {
		t.Fatalf("R = %v, want [496.5,503.5]", b)
	}
}

func TestZTRPLeaveForcesFullReinit(t *testing.T) {
	c := server.NewCluster(knnVals())
	p := core.NewZTRP(c, query.At(500), 3)
	c.SetProtocol(p)
	c.Initialize()
	before := c.Counter().Maintenance()
	c.Deliver(0, 900) // answer leaves R
	// Full resolution: 1 update + 10 probes + 10 replies + 10 installs.
	if got := c.Counter().Maintenance() - before; got != 31 {
		t.Fatalf("leave cost %d messages, want 31", got)
	}
	if !sameIDs(p.Answer(), []int{1, 2, 3}) {
		t.Fatalf("A = %v after leave, want [1 2 3]", p.Answer())
	}
}

func TestZTRPEnterShrinksBound(t *testing.T) {
	c := server.NewCluster(knnVals())
	p := core.NewZTRP(c, query.At(500), 3)
	c.SetProtocol(p)
	c.Initialize()
	before := c.Counter().Maintenance()
	c.Deliver(9, 500.5) // outside stream jumps to dist 0.5
	// Enter resolution probes only the current answers (3), then redeploys:
	// 1 update + 3 probes + 3 replies + 10 installs = 17.
	if got := c.Counter().Maintenance() - before; got != 17 {
		t.Fatalf("enter cost %d messages, want 17", got)
	}
	if !sameIDs(p.Answer(), []int{0, 1, 9}) {
		t.Fatalf("A = %v after enter, want [0 1 9]", p.Answer())
	}
}

func TestZTRPAlwaysExact(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	vals := make([]float64, 30)
	for i := range vals {
		vals[i] = rng.Float64() * 1000
	}
	c := server.NewCluster(vals)
	p := core.NewZTRP(c, query.At(500), 5)
	c.SetProtocol(p)
	chk := oracle.New(vals)
	c.Initialize()
	zero := core.RankTolerance{K: 5, R: 0}
	for step := 0; step < 2000; step++ {
		id := rng.Intn(len(vals))
		v := rng.Float64() * 1000
		chk.Apply(id, v)
		c.Deliver(id, v)
		if err := chk.CheckRank(p.Answer(), query.At(500), zero); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
}

func TestZTRPPanicsOnBadK(t *testing.T) {
	c := server.NewCluster(make([]float64, 5))
	for _, k := range []int{0, 5, 7} {
		k := k
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("k=%d accepted", k)
				}
			}()
			core.NewZTRP(c, query.At(0), k)
		}()
	}
}

func TestFTRPRhoDerivation(t *testing.T) {
	c := server.NewCluster(make([]float64, 50))
	tol := core.FractionTolerance{EpsPlus: 0.2, EpsMinus: 0.3}
	p := core.NewFTRP(c, query.At(500), 10, core.DefaultFTRPConfig(tol))
	rp, rm := p.Rho()
	// Balanced split of the Equation 16 frontier: m = min(0.8*0.2... no:
	// m = min((1-0.3)*0.2, 0.3) = 0.14; λ=0.5 → ρ⁺ = 0.5*0.8*0.14 = 0.056,
	// ρ⁻ = 0.07.
	if math.Abs(rp-0.056) > 1e-12 || math.Abs(rm-0.07) > 1e-12 {
		t.Fatalf("ρ = (%v,%v), want (0.056, 0.07)", rp, rm)
	}
	// The pair satisfies Equation 15.
	if rm > tol.RhoFrontier(rp)+1e-12 {
		t.Fatal("derived ρ pair violates Equation 15")
	}
}

func TestFTRPInitialization(t *testing.T) {
	c := server.NewCluster(knnVals())
	tol := core.FractionTolerance{EpsPlus: 0.4, EpsMinus: 0.4}
	p := core.NewFTRP(c, query.At(500), 3, core.DefaultFTRPConfig(tol))
	c.SetProtocol(p)
	c.Initialize()
	if !sameIDs(p.Answer(), []int{0, 1, 2}) {
		t.Fatalf("A(t0) = %v", p.Answer())
	}
	b := p.Bound()
	if b.Lo != 496.5 || b.Hi != 503.5 {
		t.Fatalf("R = %v, want [496.5,503.5]", b)
	}
	// ρ⁺=0.5·0.6·0.24=0.072, ρ⁻=0.12 → floor(3ρ)=0 silent filters at k=3.
	if p.NPlus() != 0 || p.NMinus() != 0 {
		t.Fatalf("n+/n- = %d/%d, want 0/0 at k=3 (paper's small-k remark)", p.NPlus(), p.NMinus())
	}
}

func TestFTRPAllocatesSilentFiltersAtLargerK(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	vals := make([]float64, 200)
	for i := range vals {
		vals[i] = rng.Float64() * 1000
	}
	c := server.NewCluster(vals)
	tol := core.FractionTolerance{EpsPlus: 0.4, EpsMinus: 0.4}
	p := core.NewFTRP(c, query.At(500), 50, core.DefaultFTRPConfig(tol))
	c.SetProtocol(p)
	c.Initialize()
	// ρ⁺ = 0.5·0.6·0.24 = 0.072 → floor(50·0.072) = 3; ρ⁻ = 0.12 → 6.
	if p.NPlus() != 3 || p.NMinus() != 6 {
		t.Fatalf("n+/n- = %d/%d, want 3/6", p.NPlus(), p.NMinus())
	}
}

func TestFTRPAnswerWindowTriggersRecompute(t *testing.T) {
	c := server.NewCluster(knnVals())
	tol := core.FractionTolerance{EpsPlus: 0.1, EpsMinus: 0.1}
	p := core.NewFTRP(c, query.At(500), 3, core.DefaultFTRPConfig(tol))
	c.SetProtocol(p)
	c.Initialize()
	// Window: ceil(3·0.9)=3 .. floor(3/0.9)=3 → any size change recomputes.
	rec := p.Recomputes
	c.Deliver(9, 500.2) // enters R → |A|=4 > 3
	if p.Recomputes != rec+1 {
		t.Fatalf("Recomputes = %d, want %d", p.Recomputes, rec+1)
	}
	if len(p.Answer()) != 3 {
		t.Fatalf("|A| = %d after recompute, want 3", len(p.Answer()))
	}
}

func TestFTRPToleratesSizeDriftWithinWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = rng.Float64() * 1000
	}
	c := server.NewCluster(vals)
	tol := core.FractionTolerance{EpsPlus: 0.4, EpsMinus: 0.4}
	p := core.NewFTRP(c, query.At(500), 20, core.DefaultFTRPConfig(tol))
	c.SetProtocol(p)
	c.Initialize()
	// Window: ceil(20·0.6)=12 .. floor(20/0.6)=33. One entering stream must
	// NOT trigger a recompute.
	rec := p.Recomputes
	// Find an outside stream and move it just inside R.
	b := p.Bound()
	for id := 0; id < c.N(); id++ {
		if !b.Contains(c.TrueValue(id)) {
			c.Deliver(id, (b.Lo+b.Hi)/2)
			break
		}
	}
	if p.Recomputes != rec {
		t.Fatalf("recompute fired inside the window (%d → %d)", rec, p.Recomputes)
	}
}

func TestFTRPFractionInvariantUnderRandomWalk(t *testing.T) {
	tols := []core.FractionTolerance{
		{EpsPlus: 0.1, EpsMinus: 0.1},
		{EpsPlus: 0.3, EpsMinus: 0.3},
		{EpsPlus: 0.5, EpsMinus: 0.5},
	}
	for _, tol := range tols {
		for _, k := range []int{5, 20} {
			rng := rand.New(rand.NewSource(int64(k)*1000 + int64(tol.EpsPlus*100)))
			n := 80
			vals := make([]float64, n)
			for i := range vals {
				vals[i] = rng.Float64() * 1000
			}
			c := server.NewCluster(vals)
			q := query.KNN{Q: query.At(500), K: k}
			p := core.NewFTRP(c, q.Q, k, core.DefaultFTRPConfig(tol))
			c.SetProtocol(p)
			chk := oracle.New(vals)
			c.Initialize()
			if err := chk.CheckFractionKNN(p.Answer(), q, tol); err != nil {
				t.Fatalf("k=%d %v after init: %v", k, tol, err)
			}
			cur := append([]float64(nil), vals...)
			for step := 0; step < 3000; step++ {
				id := rng.Intn(n)
				cur[id] += rng.NormFloat64() * 40
				chk.Apply(id, cur[id])
				c.Deliver(id, cur[id])
				if err := chk.CheckFractionKNN(p.Answer(), q, tol); err != nil {
					t.Fatalf("k=%d %v step %d: %v", k, tol, step, err)
				}
			}
		}
	}
}

func TestFTRPBeatsZTRPOnMessages(t *testing.T) {
	// The whole point of Figure 15: with tolerance, far fewer messages.
	run := func(useFT bool) uint64 {
		rng := rand.New(rand.NewSource(55))
		n := 300
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.Float64() * 1000
		}
		c := server.NewCluster(vals)
		k := 30
		var p server.Protocol
		if useFT {
			tol := core.FractionTolerance{EpsPlus: 0.3, EpsMinus: 0.3}
			p = core.NewFTRP(c, query.At(500), k, core.DefaultFTRPConfig(tol))
		} else {
			p = core.NewZTRP(c, query.At(500), k)
		}
		c.SetProtocol(p)
		c.Initialize()
		cur := append([]float64(nil), vals...)
		for step := 0; step < 10000; step++ {
			id := rng.Intn(n)
			cur[id] += rng.NormFloat64() * 25
			c.Deliver(id, cur[id])
		}
		return c.Counter().Maintenance()
	}
	zt := run(false)
	ft := run(true)
	if ft*2 >= zt {
		t.Fatalf("FT-RP = %d messages vs ZT-RP = %d; want at least 2x savings", ft, zt)
	}
}

func TestFTRPPanics(t *testing.T) {
	c := server.NewCluster(make([]float64, 5))
	requirePanics(t, map[string]func(){
		"bad tolerance": func() {
			core.NewFTRP(c, query.At(0), 2, core.FTRPConfig{Tol: core.FractionTolerance{EpsPlus: 2}})
		},
		"bad k": func() { core.NewFTRP(c, query.At(0), 9, core.DefaultFTRPConfig(core.FractionTolerance{})) },
		"nan center": func() {
			core.NewFTRP(c, query.At(math.NaN()), 2, core.DefaultFTRPConfig(core.FractionTolerance{}))
		},
	})
}

func TestFTRPTopKFlavor(t *testing.T) {
	// FT-RP over q=+inf implements tolerant top-k monitoring.
	rng := rand.New(rand.NewSource(77))
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = rng.Float64() * 1000
	}
	c := server.NewCluster(vals)
	tol := core.FractionTolerance{EpsPlus: 0.3, EpsMinus: 0.3}
	k := 10
	p := core.NewFTRP(c, query.Top(), k, core.DefaultFTRPConfig(tol))
	c.SetProtocol(p)
	chk := oracle.New(vals)
	c.Initialize()
	q := query.KNN{Q: query.Top(), K: k}
	for step := 0; step < 2000; step++ {
		id := rng.Intn(len(vals))
		v := rng.Float64() * 1000
		chk.Apply(id, v)
		c.Deliver(id, v)
		if err := chk.CheckFractionKNN(p.Answer(), q, tol); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
}

// installAuditHost checks every install a protocol issues against ground
// truth: the side the server claims — for a batch, the side the constraint
// puts the table value on — must be the side the stream is on.
type installAuditHost[V comparable, C filter.Of[V, C]] struct {
	*server.ClusterOf[V, C]
	t        *testing.T
	installs int
}

func (h *installAuditHost[V, C]) Install(id int, cons C, expectInside bool) {
	h.audit(id, cons, expectInside)
	h.ClusterOf.Install(id, cons, expectInside)
}

func (h *installAuditHost[V, C]) InstallBatch(ids []int, cons C) {
	for _, id := range ids {
		h.audit(id, cons, cons.Contains(h.Table(id)))
	}
	h.ClusterOf.InstallBatch(ids, cons)
}

func (h *installAuditHost[V, C]) InstallAllExcept(skip []int, cons C) {
	for id := range h.N() {
		if !slices.Contains(skip, id) {
			h.audit(id, cons, cons.Contains(h.Table(id)))
		}
	}
	h.ClusterOf.InstallAllExcept(skip, cons)
}

func (h *installAuditHost[V, C]) audit(id int, cons C, expectInside bool) {
	h.installs++
	if truth := cons.Contains(h.TrueValue(id)); truth != expectInside {
		h.t.Fatalf("install on stream %d claims inside=%v, truth is %v: the stream would report, "+
			"and the order rebuild visits streams in would become observable", id, expectInside, truth)
	}
}

// auditInstalls runs the protocol build returns behind an installAuditHost
// over a seeded walk — draw places a value, step moves one — under both
// selection heuristics. redeploys reads the protocol's count of full
// redeploys (FT-RP's rebuilds, FT-NRP's re-initializations); the walk must
// make at least ten.
func auditInstalls[V comparable, C filter.Of[V, C]](t *testing.T,
	build func(h server.HostOf[V, C], sel core.Selection) (p server.ProtocolOf[V], redeploys func() uint64),
	draw func(*rand.Rand) V, step func(*rand.Rand, V) V) {
	for _, sel := range []core.Selection{core.SelectBoundaryNearest, core.SelectRandom} {
		rng := rand.New(rand.NewSource(31))
		vals := make([]V, 200)
		for i := range vals {
			vals[i] = draw(rng)
		}
		h := &installAuditHost[V, C]{ClusterOf: server.NewClusterOf[V, C](vals), t: t}
		p, redeploys := build(h, sel)
		h.SetProtocol(p)
		h.Initialize()
		for ev := 0; ev < 10000; ev++ {
			id := rng.Intn(len(vals))
			vals[id] = step(rng, vals[id])
			h.Deliver(id, vals[id])
		}
		if redeploys() < 10 || h.installs < 10*len(vals) {
			t.Fatalf("%v: only %d redeploys / %d audited installs; the walk is too quiet to prove anything",
				sel, redeploys(), h.installs)
		}
	}
}

// ftrpAudit builds FT-RP around q for auditInstalls.
func ftrpAudit[V comparable, C filter.Of[V, C]](q query.CenterOf[V, C]) func(server.HostOf[V, C], core.Selection) (server.ProtocolOf[V], func() uint64) {
	return func(h server.HostOf[V, C], sel core.Selection) (server.ProtocolOf[V], func() uint64) {
		cfg := core.DefaultFTRPConfig(core.FractionTolerance{EpsPlus: 0.2, EpsMinus: 0.2})
		cfg.Selection = sel
		p := core.NewFTRP(h, q, 12, cfg)
		return p, func() uint64 { return p.Recomputes }
	}
}

// TestFTRPInstallsNeverMismatch is why FTRP.rebuild may install in ranked
// order, one batch per ranked slice: every rebuild follows a ProbeAllInto, the
// table is the truth, and an install whose claimed side is right draws no
// report — so the only trace the installs leave is their count.
// (TestProtocolPins' ft-rp walks pin the same thing end to end.)
func TestFTRPInstallsNeverMismatch(t *testing.T) {
	t.Run("line", func(t *testing.T) {
		auditInstalls(t, ftrpAudit(query.At(500)),
			func(rng *rand.Rand) float64 { return float64(rng.Intn(1000)) },
			func(rng *rand.Rand, v float64) float64 { return v + float64(rng.Intn(81)-40) })
	})
	t.Run("planar", func(t *testing.T) {
		auditInstalls(t, ftrpAudit(query.Around(pt(250, 250))), pinDrawPlanar, pinStepPlanar)
	})
}
