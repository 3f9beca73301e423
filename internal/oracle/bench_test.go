package oracle

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"adaptivefilters/internal/core"
	"adaptivefilters/internal/query"
)

// BenchmarkCheckerAudit prices one sampled audit on a warm checker at
// node-rank's size (2,000 streams, values uniform on [0, 1000)): a
// Definition 1 check of the true 20 nearest to 500 with r = 5, and a
// Definition 3 check of the true members of [400, 600] at ε± = 0.2. Both
// answers pass, so each check must run at 0 allocs/op.
func BenchmarkCheckerAudit(b *testing.B) {
	const n = 2000
	src := rand.New(rand.NewSource(1))
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = src.Float64() * 1000
	}
	o := New(vals)
	center, tol := query.At(500), core.RankTolerance{K: 20, R: 5}
	nearest := make([]int, n)
	for i := range nearest {
		nearest[i] = i
	}
	slices.SortFunc(nearest, func(a, b int) int {
		return cmp.Or(cmp.Compare(center.Dist(vals[a]), center.Dist(vals[b])), a-b)
	})
	span := query.NewRange(400, 600)
	var members []int
	for i, v := range vals {
		if span.Contains(v) {
			members = append(members, i)
		}
	}
	ftol := core.FractionTolerance{EpsPlus: 0.2, EpsMinus: 0.2}
	for _, bc := range []struct {
		name  string
		check func() error
	}{
		{"rank", func() error { return o.CheckRank(nearest[:tol.K], center, tol) }},
		{"fraction-range", func() error { return o.CheckFractionRange(members, span, ftol) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			if err := bc.check(); err != nil {
				b.Fatalf("true answer rejected: %v", err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				_ = bc.check()
			}
		})
	}
}
