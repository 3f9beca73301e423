package sim

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// pinSeeds are the seeds where math/rand's seeding has a special case or
// an edge: zero and its replacement 89482311, signs, multiples of the
// Lehmer modulus 2³¹−1 and their neighbours, values at and past 2³¹, and
// the int64 extremes.
func pinSeeds() []int64 {
	seeds := []int64{0, 1, -1, 2, -2, lehmerZero, -lehmerZero, lehmerZero + 1,
		1 << 31, 1<<31 + 1, 1 << 32, 1<<40 + 5, -(1 << 31), -(1 << 40),
		math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1}
	for _, k := range []int64{1, 2, 3, 1000, 1 << 20, -1, -2, -1000, math.MaxInt64 / lehmerMod, math.MinInt64 / lehmerMod} {
		m := k * lehmerMod
		seeds = append(seeds, m-1, m, m+1)
	}
	return seeds
}

// sameDraws compares draws of sim's source with rand.NewSource(seed)'s,
// alternating Int63 and Uint64 so both paths and the register's wrap (607
// words) are covered.
func sameDraws(t testing.TB, seed int64, draws int) {
	t.Helper()
	var got source
	got.seed(seed)
	want := rand.NewSource(seed).(rand.Source64)
	for i := 0; i < draws; i++ {
		if i%2 == 0 {
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("seed %d: Int63 draw %d = %d, math/rand %d", seed, i, g, w)
			}
		} else if g, w := got.Uint64(), want.Uint64(); g != w {
			t.Fatalf("seed %d: Uint64 draw %d = %d, math/rand %d", seed, i, g, w)
		}
	}
}

// TestSourceMatchesMathRand pins sim's source to math/rand's: the same
// seed yields the same draws, for the edge seeds and 2,000 random ones,
// over 3,000 draws each. Every golden table and pin in the repository was
// recorded from math/rand's source, so a mismatch moves all of them.
func TestSourceMatchesMathRand(t *testing.T) {
	const draws = 3000
	for _, seed := range pinSeeds() {
		sameDraws(t, seed, draws)
	}
	pick := rand.New(rand.NewSource(20261019))
	for i := 0; i < 2000; i++ {
		seed := int64(pick.Uint64())
		if i%4 == 0 {
			seed = pick.Int63n(1 << 33) // small seeds meet the modulus reduction's cheap cases
		}
		sameDraws(t, seed, draws)
	}
}

// TestRNGMatchesMathRand holds the whole stack — counting source, lazy
// seeding, rand.Rand on top — to rand.New(rand.NewSource(seed)) through
// distribution draws.
func TestRNGMatchesMathRand(t *testing.T) {
	for _, seed := range pinSeeds() {
		got, want := NewRNG(seed), rand.New(rand.NewSource(seed))
		for i := 0; i < 500; i++ {
			if g, w := got.NormFloat64(), want.NormFloat64(); g != w {
				t.Fatalf("seed %d: NormFloat64 draw %d = %v, math/rand %v", seed, i, g, w)
			}
			if g, w := got.Intn(1000), want.Intn(1000); g != w {
				t.Fatalf("seed %d: Intn draw %d = %v, math/rand %v", seed, i, g, w)
			}
			if g, w := got.ExpFloat64(), want.ExpFloat64(); g != w {
				t.Fatalf("seed %d: ExpFloat64 draw %d = %v, math/rand %v", seed, i, g, w)
			}
		}
	}
}

// FuzzSourceSeed holds sim's source to math/rand's for any seed.
func FuzzSourceSeed(f *testing.F) {
	for _, seed := range pinSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		sameDraws(t, seed, 1300)
	})
}

// eagerSplit is the reference Split: the parent's next Int63 drawn at
// once, on math/rand's own source.
func eagerSplit(parent *rand.Rand, id int64) *rand.Rand {
	return rand.New(rand.NewSource(int64(mix64(uint64(parent.Int63()), id))))
}

func sameInt63s(t *testing.T, what string, got *RNG, want *rand.Rand, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if g, w := got.Int63(), want.Int63(); g != w {
			t.Fatalf("%s: draw %d = %d, eager %d", what, i, g, w)
		}
	}
}

// TestLazySplitMatchesEager checks that a Split of an RNG never drawn from
// gives the child and the parent the draws an eager Split gives, whichever
// of the two is drawn from first, for a second Split of the same parent
// and for a lazy child split again before it is drawn from.
func TestLazySplitMatchesEager(t *testing.T) {
	for _, seed := range []int64{0, 7, -3, math.MaxInt64} {
		// child first, then the parent.
		parent := NewRNG(seed)
		child := parent.Split(0x5EED)
		refParent := rand.New(rand.NewSource(seed))
		refChild := eagerSplit(refParent, 0x5EED)
		sameInt63s(t, "child drawn first", child, refChild, 700)
		sameInt63s(t, "parent after child", parent, refParent, 700)

		// parent first, then the child; a second Split is eager.
		parent = NewRNG(seed)
		child = parent.Split(1)
		refParent = rand.New(rand.NewSource(seed))
		refChild = eagerSplit(refParent, 1)
		sameInt63s(t, "parent drawn first", parent, refParent, 10)
		second := parent.Split(2)
		refSecond := eagerSplit(refParent, 2)
		sameInt63s(t, "child after parent", child, refChild, 700)
		sameInt63s(t, "second split", second, refSecond, 700)
		sameInt63s(t, "parent after both", parent, refParent, 10)

		// a lazy child split again before it is drawn from.
		parent = NewRNG(seed)
		child = parent.Split(3)
		grand := child.Split(4)
		refParent = rand.New(rand.NewSource(seed))
		refChild = eagerSplit(refParent, 3)
		refGrand := eagerSplit(refChild, 4)
		sameInt63s(t, "grandchild", grand, refGrand, 700)
		sameInt63s(t, "child after grandchild", child, refChild, 700)
		sameInt63s(t, "parent after grandchild", parent, refParent, 10)
	}
}

// TestLazySplitConcurrent draws a parent, its lazy child and the children
// split from both — lazy and eager — on separate goroutines: a lazy child
// works its seed out from records that never change after its Split, so
// under -race the draws are race-free and equal to the eager ones.
func TestLazySplitConcurrent(t *testing.T) {
	parent := NewRNG(5)
	child := parent.Split(1)
	rngs := []*RNG{parent, child, parent.Split(2), child.Split(3), child.Split(4)}
	refParent := rand.New(rand.NewSource(5))
	refChild := eagerSplit(refParent, 1)
	refs := []*rand.Rand{refParent, refChild, eagerSplit(refParent, 2), eagerSplit(refChild, 3), eagerSplit(refChild, 4)}
	want := make([][]int64, len(refs))
	for i, ref := range refs {
		for range 100 {
			want[i] = append(want[i], ref.Int63())
		}
	}
	got := make([][]int64, len(rngs))
	var wg sync.WaitGroup
	for i, rng := range rngs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 100 {
				got[i] = append(got[i], rng.Int63())
			}
		}()
	}
	wg.Wait()
	for i := range want {
		if !slices.Equal(got[i], want[i]) {
			t.Errorf("rng %d drew %v, eager %v", i, got[i][:3], want[i][:3])
		}
	}
}

// TestUndrawnRNGStaysUnseeded checks that Pos, Skip, Replayable and Split
// on an RNG never drawn from leave its register unallocated — the reason a
// selection stream nobody draws from costs a few words — and that the
// skipped RNG then draws what an eagerly skipped one does.
func TestUndrawnRNGStaysUnseeded(t *testing.T) {
	rng := NewRNG(42)
	child := rng.Split(9)
	if rng.Pos() != 1 || child.Pos() != 0 {
		t.Fatalf("after Split: parent Pos %d, child Pos %d, want 1 and 0", rng.Pos(), child.Pos())
	}
	if err := rng.Skip(100); err != nil {
		t.Fatal(err)
	}
	if err := child.Skip(50); err != nil {
		t.Fatal(err)
	}
	if err := rng.Replayable(); err != nil {
		t.Fatal(err)
	}
	if err := child.Replayable(); err != nil {
		t.Fatal(err)
	}
	if rng.Skip(MaxSkip+1) == nil {
		t.Fatal("oversized skip accepted")
	}
	if rng.Pos() != 101 || child.Pos() != 50 {
		t.Fatalf("Pos = %d and %d, want 101 and 50", rng.Pos(), child.Pos())
	}
	if rng.src.reg != nil || child.src.reg != nil {
		t.Fatal("Pos, Skip, Replayable or Split seeded a register")
	}

	ref := rand.New(rand.NewSource(42))
	refChild := eagerSplit(ref, 9)
	for range 100 {
		ref.Uint64()
	}
	for range 50 {
		refChild.Uint64()
	}
	sameInt63s(t, "skipped parent", rng, ref, 10)
	sameInt63s(t, "skipped child", child, refChild, 10)
	if rng.src.reg == nil || child.src.reg == nil {
		t.Fatal("a draw left the register unseeded")
	}
}

// TestRNGSeedRestarts checks rand.Rand.Seed through the counting source: a
// reseeded RNG, drawn from or not, restarts at Pos 0 on the new seed.
func TestRNGSeedRestarts(t *testing.T) {
	rng := NewRNG(1)
	rng.Float64()
	rng.Seed(77)
	if rng.Pos() != 0 {
		t.Fatalf("Pos after Seed = %d", rng.Pos())
	}
	child := rng.Split(5)
	ref := rand.New(rand.NewSource(77))
	sameInt63s(t, "child of reseeded", child, eagerSplit(ref, 5), 10)
	sameInt63s(t, "reseeded", rng, ref, 10)
}

func BenchmarkSeed(b *testing.B) {
	b.Run("sim", func(b *testing.B) {
		var s source
		for i := 0; i < b.N; i++ {
			s.seed(int64(i))
		}
	})
	b.Run("math-rand", func(b *testing.B) {
		s := rand.NewSource(0)
		for i := 0; i < b.N; i++ {
			s.Seed(int64(i))
		}
	})
}
