package topk

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkSelect prices one rank pass at the shapes the end-to-end
// benchmark's rebuilds ask for: n = 2,000 with m = 21 (FT-RP's k+1), 26
// (RTP's k+r+1) and 52 (the expanding search's 2(ε+1)), and n = 1,000 with
// m = 16. Each op restores one of eight seeded-random layouts in turn (a
// copy of n ids and n keys), so the threshold's luck on any one layout
// averages out, and selects over it.
func BenchmarkSelect(b *testing.B) {
	const layouts = 8
	for _, sh := range []struct{ n, m int }{{2000, 21}, {2000, 26}, {2000, 52}, {1000, 16}} {
		b.Run(fmt.Sprintf("n=%d/m=%d", sh.n, sh.m), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			keys0 := make([][]float64, layouts)
			ids0 := make([]int, sh.n)
			for i := range ids0 {
				ids0[i] = i
			}
			for l := range keys0 {
				keys0[l] = make([]float64, sh.n)
				for i := range keys0[l] {
					keys0[l][i] = rng.Float64()
				}
			}
			ids, keys := make([]int, sh.n), make([]float64, sh.n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := range b.N {
				copy(ids, ids0)
				copy(keys, keys0[i%layouts])
				Select(ids, keys, sh.m)
			}
		})
	}
}
