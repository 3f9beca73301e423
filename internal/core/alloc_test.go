package core_test

import (
	"testing"

	"adaptivefilters/internal/core"
	"adaptivefilters/internal/query"
	"adaptivefilters/internal/server"
	"adaptivefilters/internal/sim"
)

// stepCases are the protocols the step fixture hosts: node-rank's rank
// tenants at k = 20 plus FT-NRP and the no-filter k-NN baseline.
var stepCases = []struct {
	name  string
	build func(h server.Host) server.Protocol
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

// stepWalk is node-rank's shape: n = 2000 streams uniform on [0, 1000] and
// a seeded 20k-event σ = 20 random walk over them.
func stepWalk() (initial []float64, ids []int, values []float64) {
	const n, events = 2000, 20000
	rng := sim.NewRNG(11)
	initial = make([]float64, n)
	for i := range initial {
		initial[i] = rng.Uniform(0, 1000)
	}
	cur := append([]float64(nil), initial...)
	ids, values = make([]int, events), make([]float64, events)
	for i := range ids {
		id := rng.Intn(n)
		cur[id] += rng.Normal(0, 20)
		ids[i], values[i] = id, cur[id]
	}
	return initial, ids, values
}

// warmStep hosts build on a fresh cluster over initial, initializes it and
// returns a pass delivering the whole walk, already run once to warm the
// protocol's scratch and the cluster's pending queue.
func warmStep(initial []float64, ids []int, values []float64, build func(server.Host) server.Protocol) (pass func()) {
	c := server.NewCluster(initial)
	c.SetProtocol(build(c))
	c.Initialize()
	pass = func() {
		for i, id := range ids {
			c.Deliver(id, values[i])
		}
	}
	pass()
	return pass
}

// TestProtocolStepAllocFree pins the paper's server loop at zero
// allocations: once one pass has warmed the protocol's scratch and the
// cluster's pending queue, delivering a whole 20k-event walk — every
// maintenance phase and every message it charges — allocates nothing. The
// rank rows hold the selection kernel to it: RTP's k+r+1 nearest plus a
// broadcast, and FT-RP's k+1 nearest plus a boundary-nearest selection over
// everything outside. The baselines hold the rank index to it: every
// VB-kNN and no-filter k-NN update moves one key inside the index's ordered
// slice.
func TestProtocolStepAllocFree(t *testing.T) {
	initial, ids, values := stepWalk()
	for _, tc := range stepCases {
		t.Run(tc.name, func(t *testing.T) {
			pass := warmStep(initial, ids, values, tc.build)
			if allocs := testing.AllocsPerRun(5, pass); allocs != 0 {
				t.Errorf("a warm %d-event pass allocated %.1f objects, want 0", len(ids), allocs)
			}
		})
	}
}

// BenchmarkProtocolStep prices the same warm walk: one op is a whole
// 20k-event pass, reported as ns/event (allocs/op must stay 0).
func BenchmarkProtocolStep(b *testing.B) {
	initial, ids, values := stepWalk()
	for _, tc := range stepCases {
		b.Run(tc.name, func(b *testing.B) {
			pass := warmStep(initial, ids, values, tc.build)
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				pass()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(ids)), "ns/event")
		})
	}
}
