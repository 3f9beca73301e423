package core_test

import (
	"math"
	"math/rand"
	"testing"

	"adaptivefilters/internal/comm"
	"adaptivefilters/internal/core"
	"adaptivefilters/internal/oracle"
	"adaptivefilters/internal/query"
	"adaptivefilters/internal/server"
)

// figure6Cluster builds the paper's Figure 6 scenario: a k-NN query with
// k=2, r=2 (ε = 4) around q=100, eight streams whose initial distances are
// 1, 2, 3, 4, 10, 20, 30, 40.
func figure6Cluster(t *testing.T) (*server.Cluster, *core.RTP, *oracle.Checker) {
	t.Helper()
	vals := []float64{101, 102, 103, 104, 110, 120, 130, 140}
	c := server.NewCluster(vals)
	p := core.NewRTP(c, query.At(100), core.RankTolerance{K: 2, R: 2})
	c.SetProtocol(p)
	chk := oracle.New(vals)
	c.Initialize()
	return c, p, chk
}

func sameIDs(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestRTPFigure6Initialization(t *testing.T) {
	c, p, _ := figure6Cluster(t)
	if !sameIDs(p.Answer(), []int{0, 1}) {
		t.Fatalf("A(t0) = %v, want [0 1]", p.Answer())
	}
	if !sameIDs(p.X(), []int{0, 1, 2, 3}) {
		t.Fatalf("X(t0) = %v, want [0 1 2 3]", p.X())
	}
	// R sits halfway between the 4th (dist 4) and 5th (dist 10) objects.
	b := p.Bound()
	if b.Lo != 93 || b.Hi != 107 {
		t.Fatalf("R = %v, want [93,107]", b)
	}
	// Initialization: 8 probes + 8 replies + 8 installs, all in init phase.
	ctr := c.Counter()
	if got := ctr.PhaseTotal(comm.Init); got != 24 {
		t.Fatalf("init messages = %d, want 24", got)
	}
	if got := ctr.Maintenance(); got != 0 {
		t.Fatalf("maintenance messages after init = %d, want 0", got)
	}
}

func TestRTPFigure6Case1NonAnswerLeaves(t *testing.T) {
	c, p, _ := figure6Cluster(t)
	// Figure 6(b): S3 (id 2) in X−A leaves R.
	c.Deliver(2, 115)
	if !sameIDs(p.X(), []int{0, 1, 3}) {
		t.Fatalf("X = %v after case 1, want [0 1 3]", p.X())
	}
	if !sameIDs(p.Answer(), []int{0, 1}) {
		t.Fatalf("A = %v after case 1, want unchanged [0 1]", p.Answer())
	}
	// Exactly one maintenance message: the update itself.
	if got := c.Counter().Maintenance(); got != 1 {
		t.Fatalf("maintenance messages = %d, want 1", got)
	}
}

func TestRTPFigure6Case2AnswerLeaves(t *testing.T) {
	c, p, _ := figure6Cluster(t)
	c.Deliver(2, 115) // Figure 6(b)
	// Figure 6(c): S1 (id 0) in A leaves R; S4 (id 3) replaces it.
	c.Deliver(0, 120)
	if !sameIDs(p.Answer(), []int{1, 3}) {
		t.Fatalf("A = %v after case 2, want [1 3]", p.Answer())
	}
	if !sameIDs(p.X(), []int{1, 3}) {
		t.Fatalf("X = %v after case 2, want [1 3]", p.X())
	}
	// Still cheap: two updates total, no probes, no redeploy.
	if got := c.Counter().Maintenance(); got != 2 {
		t.Fatalf("maintenance messages = %d, want 2", got)
	}
}

func TestRTPFigure6Case3Enters(t *testing.T) {
	c, p, _ := figure6Cluster(t)
	c.Deliver(2, 115)
	c.Deliver(0, 120)
	// Figure 6(d): an outside stream (id 5) enters R; |X| = 2 < 4 so it is
	// absorbed without any resolution.
	c.Deliver(5, 98)
	if !sameIDs(p.X(), []int{1, 3, 5}) {
		t.Fatalf("X = %v after case 3, want [1 3 5]", p.X())
	}
	if !sameIDs(p.Answer(), []int{1, 3}) {
		t.Fatalf("A = %v after case 3, want [1 3]", p.Answer())
	}
	if got := c.Counter().Maintenance(); got != 3 {
		t.Fatalf("maintenance messages = %d, want 3 updates only", got)
	}
}

func TestRTPCase3OverflowTriggersReevaluation(t *testing.T) {
	c, p, _ := figure6Cluster(t)
	deploysBefore := p.Deploys
	// Fill X to ε = 4 and then let a fifth stream enter.
	c.Deliver(4, 99) // |X| was 4 already (0,1,2,3) → overflow immediately
	if p.Deploys != deploysBefore+1 {
		t.Fatalf("Deploys = %d, want %d (full re-evaluation)", p.Deploys, deploysBefore+1)
	}
	// After re-evaluation the ε closest streams are 0,1,2,4 (dists 1,2,3,1).
	if !sameIDs(p.X(), []int{0, 1, 2, 4}) {
		t.Fatalf("X = %v after re-evaluation, want [0 1 2 4]", p.X())
	}
	if !sameIDs(p.Answer(), []int{0, 4}) {
		t.Fatalf("A = %v, want the two closest [0 4]", p.Answer())
	}
	// Cost: 1 update + 4 probes + 4 replies + 8 installs = 17.
	if got := c.Counter().Maintenance(); got != 17 {
		t.Fatalf("maintenance messages = %d, want 17", got)
	}
}

func TestRTPCase2ExpandingSearch(t *testing.T) {
	c, p, _ := figure6Cluster(t)
	// Empty X−A: ids 2 and 3 leave, then answers leave one by one.
	c.Deliver(2, 115)
	c.Deliver(3, 116)
	if !sameIDs(p.X(), []int{0, 1}) {
		t.Fatalf("X = %v, want [0 1]", p.X())
	}
	// Now an answer leaves; X−A is empty so the expanding search must probe
	// outside streams and find at least two (ids 4 and 5 are nearest).
	c.Deliver(0, 150)
	if len(p.Answer()) != 2 {
		t.Fatalf("|A| = %d after expanding search, want 2", len(p.Answer()))
	}
	if !sameIDs(p.Answer(), []int{1, 2}) {
		// id 2 moved to 115 (dist 15); id 4 is at 110 (dist 10) — but id 2
		// reported its move so the server knows dist 15 vs id 4's dist 10:
		// the closest replacement is id 4.
		t.Logf("A = %v (acceptable if all ranks <= 4)", p.Answer())
	}
	// Everyone in A must truly rank within ε = 4.
	chk := oracle.New([]float64{150, 102, 115, 116, 110, 120, 130, 140})
	if err := chk.CheckRank(p.Answer(), query.At(100), core.RankTolerance{K: 2, R: 2}); err != nil {
		t.Fatal(err)
	}
}

func TestRTPRankCorrectnessUnderRandomWalk(t *testing.T) {
	// Property: Definition 1 holds after every delivered event, for several
	// (k, r) pairs, under an adversarially jiggly random walk.
	for _, tol := range []core.RankTolerance{{K: 1, R: 0}, {K: 2, R: 2}, {K: 3, R: 1}, {K: 5, R: 4}} {
		tol := tol
		rng := rand.New(rand.NewSource(int64(tol.K*100 + tol.R)))
		n := 30
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.Float64() * 1000
		}
		c := server.NewCluster(vals)
		p := core.NewRTP(c, query.At(500), tol)
		c.SetProtocol(p)
		chk := oracle.New(vals)
		c.Initialize()
		if err := chk.CheckRank(p.Answer(), query.At(500), tol); err != nil {
			t.Fatalf("%v: after init: %v", tol, err)
		}
		cur := append([]float64(nil), vals...)
		for step := 0; step < 3000; step++ {
			id := rng.Intn(n)
			cur[id] += rng.NormFloat64() * 50
			chk.Apply(id, cur[id])
			c.Deliver(id, cur[id])
			if err := chk.CheckRank(p.Answer(), query.At(500), tol); err != nil {
				t.Fatalf("%v: step %d: %v", tol, step, err)
			}
		}
	}
}

func TestRTPTopKCorrectnessUnderJumpyValues(t *testing.T) {
	// Top-k flavor with values redrawn from scratch (no locality at all).
	tol := core.RankTolerance{K: 3, R: 2}
	rng := rand.New(rand.NewSource(99))
	n := 25
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = rng.Float64() * 1000
	}
	c := server.NewCluster(vals)
	p := core.NewRTP(c, query.Top(), tol)
	c.SetProtocol(p)
	chk := oracle.New(vals)
	c.Initialize()
	for step := 0; step < 3000; step++ {
		id := rng.Intn(n)
		v := rng.Float64() * 1000
		chk.Apply(id, v)
		c.Deliver(id, v)
		if err := chk.CheckRank(p.Answer(), query.Top(), tol); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
}

func TestRTPInvalidToleranceOrPopulationPanics(t *testing.T) {
	c := server.NewCluster(make([]float64, 3))
	requirePanics(t, map[string]func(){
		"k=0":        func() { core.NewRTP(c, query.At(0), core.RankTolerance{K: 0, R: 0}) },
		"ε>=n":       func() { core.NewRTP(c, query.At(0), core.RankTolerance{K: 2, R: 1}) }, // ε=3 ≥ n
		"nan-center": func() { core.NewRTP(c, query.At(math.NaN()), core.RankTolerance{K: 1, R: 0}) },
	})
}

func TestRTPNameMentionsParameters(t *testing.T) {
	c := server.NewCluster(make([]float64, 10))
	p := core.NewRTP(c, query.Top(), core.RankTolerance{K: 2, R: 1})
	if p.Name() != "rtp(k=2,r=1,q=+inf(top))" {
		t.Fatalf("Name() = %q", p.Name())
	}
}
