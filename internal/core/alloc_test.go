package core_test

import (
	"runtime"
	"slices"
	"testing"

	"adaptivefilters/internal/core"
	"adaptivefilters/internal/filter"
	"adaptivefilters/internal/query"
	"adaptivefilters/internal/server"
	"adaptivefilters/internal/sim"
)

// stepCase is one protocol the step fixture hosts: warm builds it on a
// fresh cluster and returns a warmed pass over its walk.
type stepCase struct {
	name string
	warm func() (pass func())
}

// oneDSteps are node-rank's 1-D rank tenants at k = 20 plus FT-NRP and the
// no-filter k-NN baseline.
var oneDSteps = []struct {
	name  string
	build func(server.Host) server.Protocol
}{
	{"ft-nrp", func(h server.Host) server.Protocol {
		return core.NewFTNRP(h, query.NewRange(400, 600), core.FTNRPConfig{
			Tol:       core.FractionTolerance{EpsPlus: 0.3, EpsMinus: 0.3},
			Selection: core.SelectBoundaryNearest,
			Seed:      7,
		})
	}},
	{"rtp", func(h server.Host) server.Protocol {
		return core.NewRTP(h, query.At(500), core.RankTolerance{K: 20, R: 5})
	}},
	{"ft-rp", func(h server.Host) server.Protocol {
		return core.NewFTRP(h, query.At(500), 20,
			core.DefaultFTRPConfig(core.FractionTolerance{EpsPlus: 0.2, EpsMinus: 0.2}))
	}},
	{"vb-knn", func(h server.Host) server.Protocol {
		return core.NewVBKNN(h, query.NewKNN(query.At(500), 20), 10)
	}},
	{"no-filter-knn", func(h server.Host) server.Protocol {
		return core.NewNoFilterKNN(h, query.NewKNN(query.At(500), 20))
	}},
}

// stepCases are the 1-D protocols on a cluster, then each as the one
// query of a composite (composite-*): the same walk, so a row's ratio to
// its twin is what hosting a query on the composite costs.
var stepCases = func() []stepCase {
	var cases []stepCase
	for _, p := range oneDSteps {
		cases = append(cases, stepCase{p.name, step1D(p.build)})
	}
	for _, p := range oneDSteps {
		cases = append(cases, stepCase{"composite-" + p.name, stepComposite(p.build)})
	}
	return cases
}()

// planarStepCases are node-rank's planar rank tenants, around (500, 500).
var planarStepCases = []stepCase{
	{"rtp2d", stepPlanar(func(h server.SpatialHost) server.SpatialProtocol {
		return core.NewRTP(h, query.Around(pt(500, 500)), core.RankTolerance{K: 20, R: 5})
	})},
	{"ft-rp2d", stepPlanar(func(h server.SpatialHost) server.SpatialProtocol {
		return core.NewFTRP(h, query.Around(pt(500, 500)), 20,
			core.DefaultFTRPConfig(core.FractionTolerance{EpsPlus: 0.2, EpsMinus: 0.2}))
	})},
}

// stepEvents is the length of every step walk.
const stepEvents = 20000

// stepWalk is node-rank's shape: n = 2000 streams uniform on [0, 1000] and
// a seeded 20k-event σ = 20 random walk over them.
func stepWalk() (initial []float64, ids []int, values []float64) {
	const n = 2000
	rng := sim.NewRNG(11)
	initial = make([]float64, n)
	for i := range initial {
		initial[i] = rng.Uniform(0, 1000)
	}
	cur := append([]float64(nil), initial...)
	ids, values = make([]int, stepEvents), make([]float64, stepEvents)
	for i := range ids {
		id := rng.Intn(n)
		cur[id] += rng.Normal(0, 20)
		ids[i], values[i] = id, cur[id]
	}
	return initial, ids, values
}

// stepWalkPlanar is stepWalk in the plane: 2000 points uniform on
// [0, 1000]² and a seeded 20k-event σ = 20 walk over them.
func stepWalkPlanar() (initial []filter.Point, ids []int, moves []filter.Point) {
	const n = 2000
	rng := sim.NewRNG(11)
	initial = make([]filter.Point, n)
	for i := range initial {
		initial[i] = pt(rng.Uniform(0, 1000), rng.Uniform(0, 1000))
	}
	cur := append([]filter.Point(nil), initial...)
	ids, moves = make([]int, stepEvents), make([]filter.Point, stepEvents)
	for i := range ids {
		id := rng.Intn(n)
		cur[id].X += rng.Normal(0, 20)
		cur[id].Y += rng.Normal(0, 20)
		ids[i], moves[i] = id, cur[id]
	}
	return initial, ids, moves
}

func step1D(build func(server.Host) server.Protocol) func() (pass func()) {
	return func() (pass func()) {
		initial, ids, values := stepWalk()
		return warmStep(initial, ids, values, build)
	}
}

func stepComposite(build func(server.Host) server.Protocol) func() (pass func()) {
	return func() (pass func()) {
		initial, ids, values := stepWalk()
		c := server.NewComposite(initial)
		c.AddQuery("q", 0, build)
		c.Initialize()
		return warmPass(ids, values, c.Deliver)
	}
}

func stepPlanar(build func(server.SpatialHost) server.SpatialProtocol) func() (pass func()) {
	return func() (pass func()) {
		initial, ids, moves := stepWalkPlanar()
		return warmStep(initial, ids, moves, build)
	}
}

// warmStep hosts build on a fresh cluster over initial, initializes it and
// returns a pass delivering the whole walk, already run once to warm the
// protocol's scratch and the cluster's pending queue.
func warmStep[V comparable, C filter.Of[V, C]](initial []V, ids []int, values []V,
	build func(server.HostOf[V, C]) server.ProtocolOf[V]) (pass func()) {
	c := server.NewClusterOf[V, C](initial)
	c.SetProtocol(build(c))
	c.Initialize()
	return warmPass(ids, values, c.Deliver)
}

// warmPass returns a pass delivering the whole walk to deliver, already
// run once.
func warmPass[V any](ids []int, values []V, deliver func(int, V)) (pass func()) {
	pass = func() {
		for i, id := range ids {
			deliver(id, values[i])
		}
	}
	pass()
	return pass
}

// TestProtocolStepAllocFree pins the paper's server loop at zero
// allocations, on a cluster and on a composite of one: once one pass has
// warmed the protocol's scratch and the host's pending queue, delivering a whole 20k-event walk — every
// maintenance phase and every message it charges — allocates nothing. The
// rank rows hold the selection kernel to it: RTP's k+r+1 nearest plus a
// broadcast, and FT-RP's k+1 nearest plus a boundary-nearest selection over
// everything outside. The baselines hold their told-value columns to it:
// every VB-kNN and no-filter k-NN update is one store. The planar group holds the generic bodies to the same bound in the
// plane.
func TestProtocolStepAllocFree(t *testing.T) {
	check := func(t *testing.T, cases []stepCase) {
		for _, tc := range cases {
			t.Run(tc.name, func(t *testing.T) {
				pass := tc.warm()
				if allocs := testing.AllocsPerRun(5, pass); allocs != 0 {
					t.Errorf("a warm %d-event pass allocated %.1f objects, want 0", stepEvents, allocs)
				}
			})
		}
	}
	check(t, stepCases)
	t.Run("planar", func(t *testing.T) { check(t, planarStepCases) })
}

// BenchmarkProtocolStep prices the same warm walk: one op is a whole
// 20k-event pass, reported as ns/event (allocs/op must stay 0). It warms
// with a second pass first, as AllocsPerRun does: the walk's second pass
// starts from the first one's end state, and there RTP's deploys queue
// more mismatch reports (the cluster's pending queue grows) and its
// planar search more candidates (the protocol's probe buffers grow) than
// anywhere in the first, so at -benchtime=1x the one timed pass would
// count their growth.
func BenchmarkProtocolStep(b *testing.B) {
	for _, tc := range slices.Concat(stepCases, planarStepCases) {
		b.Run(tc.name, func(b *testing.B) {
			pass := tc.warm()
			pass()
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				pass()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*stepEvents), "ns/event")
		})
	}
}

// knnAnswerCases are the two k-NN baselines at node-rank's n = 2000 and
// k = 20, hosted on a cluster over stepWalk's initial values and
// initialized.
func knnAnswerCases() map[string]server.Protocol {
	initial, _, _ := stepWalk()
	out := map[string]server.Protocol{}
	for name, build := range map[string]func(server.Host) server.Protocol{
		"vb-knn":        func(h server.Host) server.Protocol { return core.NewVBKNN(h, query.NewKNN(query.At(500), 20), 10) },
		"no-filter-knn": func(h server.Host) server.Protocol { return core.NewNoFilterKNN(h, query.NewKNN(query.At(500), 20)) },
	} {
		c := server.NewCluster(append([]float64(nil), initial...))
		p := build(c)
		c.SetProtocol(p)
		c.Initialize()
		out[name] = p
	}
	return out
}

// TestKNNAnswerAllocs: once a first Answer has grown the ranking scratch,
// an Answer allocates only the slice it returns.
func TestKNNAnswerAllocs(t *testing.T) {
	for name, p := range knnAnswerCases() {
		p.Answer()
		if allocs := testing.AllocsPerRun(20, func() { p.Answer() }); allocs != 1 {
			t.Errorf("%s: a warm Answer allocated %.1f objects, want 1 (the answer)", name, allocs)
		}
	}
}

// BenchmarkKNNAnswer prices one Answer of each k-NN baseline at n = 2000,
// k = 20: the ranking the baselines do when an answer is read.
func BenchmarkKNNAnswer(b *testing.B) {
	cases := knnAnswerCases()
	for _, name := range []string{"vb-knn", "no-filter-knn"} {
		b.Run(name, func(b *testing.B) {
			p := cases[name]
			p.Answer()
			b.ReportAllocs()
			for b.Loop() {
				p.Answer()
			}
		})
	}
}

// heapBytes returns the heap bytes one call of f allocates, averaged over
// runs calls after a warm-up call.
func heapBytes(runs int, f func()) uint64 {
	var before, after runtime.MemStats
	f()
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestFTSelectionUnseeded pins what a selection stream nobody draws from
// costs: building an FT-NRP or an FT-RP under the default selection,
// boundary-nearest, allocates under 1 KiB, and deploying it on 64 streams
// with silent filters to place allocates no ~5 KB source register either
// (sim seeds one only on a first draw). Under SelectRandom the same deploy
// draws its picks and must show the register, so the gauge can see one.
func TestFTSelectionUnseeded(t *testing.T) {
	vals := make([]float64, 64)
	for i := range vals {
		vals[i] = float64(i * 1000 / len(vals))
	}
	builds := map[string]func(h server.Host, sel core.Selection) server.Protocol{
		"ft-nrp": func(h server.Host, sel core.Selection) server.Protocol {
			return core.NewFTNRP(h, query.NewRange(400, 600), core.FTNRPConfig{
				Tol: core.FractionTolerance{EpsPlus: 0.3, EpsMinus: 0.3}, Selection: sel, Seed: 7})
		},
		"ft-rp": func(h server.Host, sel core.Selection) server.Protocol {
			cfg := core.DefaultFTRPConfig(core.FractionTolerance{EpsPlus: 0.3, EpsMinus: 0.3})
			cfg.Selection, cfg.Seed = sel, 7
			return core.NewFTRP(h, query.At(500), 20, cfg)
		},
	}
	const register = 4 << 10 // a source register is 607 words
	for name, build := range builds {
		var c *server.Cluster
		host := heapBytes(50, func() { c = server.NewCluster(vals) })
		built := heapBytes(50, func() {
			c = server.NewCluster(vals)
			build(c, core.SelectBoundaryNearest)
		}) - host
		if built >= 1<<10 {
			t.Errorf("%s: construction allocated %d B, want under 1 KiB", name, built)
		}
		// A deploy files its silent filters as exceptions, which allocates
		// the sources' exception column (24 B a stream): measure it
		// against a host that already holds one.
		withExceptions := heapBytes(50, func() {
			c = server.NewCluster(vals)
			c.Install(0, filter.WideOpen(), true)
		})
		deploy := func(sel core.Selection) uint64 {
			return heapBytes(50, func() {
				c = server.NewCluster(vals)
				p := build(c, sel)
				c.SetProtocol(p)
				c.Initialize()
			}) - withExceptions
		}
		nearest, random := deploy(core.SelectBoundaryNearest), deploy(core.SelectRandom)
		if nearest >= register {
			t.Errorf("%s: construction and deploy allocated %d B, want under %d B (no register)", name, nearest, register)
		}
		if random < nearest+register {
			t.Errorf("%s: a SelectRandom deploy allocated %d B, boundary-nearest %d B: no register seen", name, random, nearest)
		}
	}
}
