package rankindex

import (
	"math"
	"math/rand"
	"testing"

	"adaptivefilters/internal/query"
)

// TestSetRejectsNaN is the regression test for the NaN-poisoning bug: a
// NaN value must never reach the ordering tree.
func TestSetRejectsNaN(t *testing.T) {
	ix := New(4)
	ix.Set(0, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("Set(NaN) did not panic")
		}
		// The rejected Set must not have disturbed the index.
		if _, ok := ix.Value(1); ix.Len() != 1 || ok {
			t.Fatal("index disturbed by rejected Set")
		}
	}()
	ix.Set(1, math.NaN())
}

// TestSortByDistIDAllocFree asserts the keyed-sorter rewrite: re-ranking
// KNearest candidates must not allocate once the scratch is warm.
func TestSortByDistIDAllocFree(t *testing.T) {
	ix := New(64)
	for id := 0; id < 64; id++ {
		ix.Set(id, float64((id*37)%64))
	}
	ids := make([]int, 64)
	q := query.At(31.5)
	reset := func() {
		for i := range ids {
			ids[i] = i
		}
	}
	reset()
	ix.sortByDistID(ids, q) // warm the scratch
	allocs := testing.AllocsPerRun(100, func() {
		reset()
		ix.sortByDistID(ids, q)
	})
	if allocs != 0 {
		t.Fatalf("sortByDistID allocates %v allocs/run, want 0", allocs)
	}
	// And it still sorts correctly: (distance, id) ascending.
	for i := 1; i < len(ids); i++ {
		da, db := q.Dist(ix.vals[ids[i-1]]), q.Dist(ix.vals[ids[i]])
		if da > db || (da == db && ids[i-1] >= ids[i]) {
			t.Fatalf("order violated at %d: id %d (d=%g) before id %d (d=%g)",
				i, ids[i-1], da, ids[i], db)
		}
	}
}

// BenchmarkSortByDistID measures the re-rank step on a realistic candidate
// window; the 0 allocs/op is what the keyed sorter buys.
func BenchmarkSortByDistID(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	ix := New(256)
	for id := 0; id < 256; id++ {
		ix.Set(id, rng.NormFloat64()*100)
	}
	ids := make([]int, 32)
	q := query.At(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range ids {
			ids[j] = (i + j*7) % 256
		}
		ix.sortByDistID(ids, q)
	}
}

// TestSetAllocFree holds the index's churn at zero allocations: the
// ordered key slice is sized for every stream up front, so a reload and
// the moves after it only shift keys inside it.
func TestSetAllocFree(t *testing.T) {
	const n = 64
	ix := New(n)
	vals := make([]float64, n)
	for id := range vals {
		vals[id] = float64((id * 37) % n)
	}
	allocs := testing.AllocsPerRun(50, func() {
		ix.Load(vals)
		for id := 0; id < n; id++ {
			ix.Set(id, float64((id*11)%n)/2) // moves
		}
		for id := 0; id < n; id += 3 {
			ix.Set(id, float64(n-id)) // jumps
		}
	})
	if allocs != 0 {
		t.Fatalf("Set churn allocates %v allocs/run, want 0", allocs)
	}
}

// benchLoad fills an index with n streams drawn uniformly from [0, 1000)
// and returns it with a fixed event sequence: which stream moves, and by
// how much (a Normal(0, 20) step) or to where (a fresh uniform draw).
func benchLoad(n int) (ix *Index, ids []int, steps, draws []float64) {
	rng := rand.New(rand.NewSource(9))
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = rng.Float64() * 1000
	}
	const events = 1 << 16
	ids, steps, draws = make([]int, events), make([]float64, events), make([]float64, events)
	for i := range ids {
		ids[i], steps[i], draws[i] = rng.Intn(n), rng.NormFloat64()*20, rng.Float64()*1000
	}
	return FromValues(vals), ids, steps, draws
}

// BenchmarkSet prices one Set of a present stream. walk is the paper's
// random-walk update (a stream steps a little; a step that would leave
// [0, 1000] is taken the other way);
// jump redraws the value uniformly, so the stream moves a third of the
// index on average: the worst case for an ordered array.
func BenchmarkSet(b *testing.B) {
	b.Run("walk/n=2000", func(b *testing.B) {
		ix, ids, steps, _ := benchLoad(2000)
		b.ReportAllocs()
		for i := 0; b.Loop(); i++ {
			j := i & (len(ids) - 1)
			id := ids[j]
			v := ix.vals[id] + steps[j]
			if v < 0 || v > 1000 {
				v = ix.vals[id] - steps[j]
			}
			ix.Set(id, v)
		}
	})
	b.Run("jump/n=5000", func(b *testing.B) {
		ix, ids, _, draws := benchLoad(5000)
		b.ReportAllocs()
		for i := 0; b.Loop(); i++ {
			j := i & (len(ids) - 1)
			ix.Set(ids[j], draws[j])
		}
	})
}

// BenchmarkFromValues prices a bulk load, the path every oracle takes when
// it is built over a table.
func BenchmarkFromValues(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	vals := make([]float64, 5000)
	for i := range vals {
		vals[i] = rng.Float64() * 1000
	}
	b.ReportAllocs()
	for b.Loop() {
		FromValues(vals)
	}
}

// BenchmarkKNearest covers the full query path now feeding the composite
// hot path.
func BenchmarkKNearest(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	ix := New(512)
	for id := 0; id < 512; id++ {
		ix.Set(id, rng.NormFloat64()*100)
	}
	q := query.At(12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.KNearest(q, 10)
	}
}
