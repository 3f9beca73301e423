package sim

import (
	"math"
	"sort"
	"testing"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 1000; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("same-seed RNGs diverged at draw %d", i)
		}
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	parent := NewRNG(7)
	c1 := parent.Split(1)
	c2 := parent.Split(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if c1.Float64() == c2.Float64() {
			same++
		}
	}
	if same > 5 {
		t.Fatalf("split streams coincide on %d of 1000 draws", same)
	}
}

func TestRNGSplitDeterministic(t *testing.T) {
	mk := func() float64 { return NewRNG(9).Split(33).Float64() }
	if mk() != mk() {
		t.Fatal("Split is not deterministic for equal seeds/ids")
	}
}

func TestDeriveSeedStable(t *testing.T) {
	if DeriveSeed(1, 9, 2, 3) != DeriveSeed(1, 9, 2, 3) {
		t.Fatal("DeriveSeed is not a pure function of its inputs")
	}
}

func TestDeriveSeedSensitivity(t *testing.T) {
	base := DeriveSeed(1, 9, 2, 3)
	variants := [][]int64{
		{9, 2, 4},    // last coordinate
		{9, 3, 3},    // middle coordinate
		{10, 2, 3},   // first coordinate
		{9, 3, 2},    // swapped path
		{2, 9, 3},    // reordered path
		{9, 2},       // shorter path
		{9, 2, 3, 0}, // longer path
	}
	for _, v := range variants {
		if DeriveSeed(1, v...) == base {
			t.Fatalf("DeriveSeed(1, %v) collides with DeriveSeed(1, 9, 2, 3)", v)
		}
	}
	if DeriveSeed(2, 9, 2, 3) == base {
		t.Fatal("DeriveSeed ignores the base seed")
	}
}

func TestDeriveSeedStreamsUncorrelated(t *testing.T) {
	// Adjacent cells must yield RNGs whose streams do not coincide — the
	// property the figure engine relies on for independent cell randomness.
	a := NewRNG(DeriveSeed(1, 14, 0, 0))
	b := NewRNG(DeriveSeed(1, 14, 0, 1))
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 5 {
		t.Fatalf("adjacent cell seeds coincide on %d of 1000 draws", same)
	}
}

func TestExpMean(t *testing.T) {
	rng := NewRNG(1)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := rng.Exp(20)
		if v < 0 {
			t.Fatalf("Exp produced negative value %v", v)
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-20) > 0.5 {
		t.Fatalf("Exp(20) sample mean = %v, want ≈20", mean)
	}
}

func TestNormalMoments(t *testing.T) {
	rng := NewRNG(2)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := rng.Normal(0, 20)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	sd := math.Sqrt(sumSq/n - mean*mean)
	if math.Abs(mean) > 0.5 {
		t.Fatalf("Normal(0,20) sample mean = %v, want ≈0", mean)
	}
	if math.Abs(sd-20) > 0.5 {
		t.Fatalf("Normal(0,20) sample sd = %v, want ≈20", sd)
	}
}

func TestUniformRange(t *testing.T) {
	rng := NewRNG(3)
	for i := 0; i < 10000; i++ {
		v := rng.Uniform(400, 600)
		if v < 400 || v >= 600 {
			t.Fatalf("Uniform(400,600) produced %v", v)
		}
	}
}

func TestParetoProperties(t *testing.T) {
	rng := NewRNG(4)
	const n = 100000
	below := 0
	for i := 0; i < n; i++ {
		v := rng.Pareto(1, 1.2)
		if v < 1 {
			below++
		}
	}
	if below != 0 {
		t.Fatalf("Pareto(1, 1.2) produced %d values below the scale", below)
	}
	// Median of Pareto(xm=1, a) is 2^(1/a).
	med := sampleMedian(rng, n, func() float64 { return rng.Pareto(1, 2) })
	want := math.Pow(2, 0.5)
	if math.Abs(med-want) > 0.05 {
		t.Fatalf("Pareto(1,2) sample median = %v, want ≈%v", med, want)
	}
}

func TestLogNormalMedian(t *testing.T) {
	rng := NewRNG(5)
	med := sampleMedian(rng, 100000, func() float64 { return rng.LogNormal(6.2, 1.2) })
	want := math.Exp(6.2)
	if math.Abs(med-want)/want > 0.05 {
		t.Fatalf("LogNormal(6.2,1.2) sample median = %v, want ≈%v", med, want)
	}
}

func sampleMedian(_ *RNG, n int, draw func() float64) float64 {
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = draw()
	}
	sort.Float64s(vals)
	return vals[n/2]
}

// TestPosCountsSourceSteps checks Pos advances with every kind of draw and
// that two RNGs at equal positions (same seed) are in identical states.
func TestPosCountsSourceSteps(t *testing.T) {
	rng := NewRNG(99)
	if rng.Pos() != 0 {
		t.Fatalf("fresh Pos = %d", rng.Pos())
	}
	rng.Float64()
	after1 := rng.Pos()
	if after1 == 0 {
		t.Fatal("Float64 did not advance Pos")
	}
	rng.Normal(0, 1)
	rng.Exp(2)
	rng.Intn(1000)
	rng.Shuffle(50, func(i, j int) {})
	if rng.Pos() <= after1 {
		t.Fatalf("Pos did not advance: %d -> %d", after1, rng.Pos())
	}
}

// TestSkipReproducesState is the replay property snapshot restore relies
// on: a fresh RNG skipped to a recorded position continues with exactly the
// draws the original produced after that position.
func TestSkipReproducesState(t *testing.T) {
	orig := NewRNG(1234)
	for i := 0; i < 1000; i++ {
		switch i % 4 {
		case 0:
			orig.Float64()
		case 1:
			orig.Normal(3, 2)
		case 2:
			orig.Intn(77)
		default:
			orig.Shuffle(13, func(i, j int) {})
		}
	}
	pos := orig.Pos()

	replay := NewRNG(1234)
	if err := replay.Skip(pos); err != nil {
		t.Fatal(err)
	}
	if replay.Pos() != pos {
		t.Fatalf("Skip left Pos = %d, want %d", replay.Pos(), pos)
	}
	for i := 0; i < 100; i++ {
		if a, b := orig.Float64(), replay.Float64(); a != b {
			t.Fatalf("draw %d diverged after skip: %v vs %v", i, a, b)
		}
		if a, b := orig.Int63(), replay.Int63(); a != b {
			t.Fatalf("int draw %d diverged after skip: %v vs %v", i, a, b)
		}
	}
}

// TestSkipAppliesToSplitChildren checks the restore path protocols use:
// reconstruct the Split child from the same labels, then skip.
func TestSkipAppliesToSplitChildren(t *testing.T) {
	child := NewRNG(7).Split(0x5DEE)
	child.Shuffle(40, func(i, j int) {})
	child.Shuffle(40, func(i, j int) {})
	pos := child.Pos()

	re := NewRNG(7).Split(0x5DEE)
	if err := re.Skip(pos); err != nil {
		t.Fatal(err)
	}
	if a, b := child.Int63(), re.Int63(); a != b {
		t.Fatalf("split child diverged after skip: %v vs %v", a, b)
	}
}

// TestSkipBound checks the corruption guard: positions beyond MaxSkip are
// rejected without perturbing the RNG.
func TestSkipBound(t *testing.T) {
	rng := NewRNG(3)
	if err := rng.Skip(MaxSkip + 1); err == nil {
		t.Fatal("oversized skip accepted")
	}
	if rng.Pos() != 0 {
		t.Fatalf("failed Skip perturbed Pos to %d", rng.Pos())
	}
	if err := rng.Skip(10); err != nil {
		t.Fatal(err)
	}
	if rng.Pos() != 10 {
		t.Fatalf("Pos = %d, want 10", rng.Pos())
	}
}

// TestReplayableBound pins the export side of the MaxSkip bound: a
// position Skip can replay is restorable — exactly at the bound too — and
// one step past it is not. Skip only counts the steps it owes, so reaching
// the bound replays nothing.
func TestReplayableBound(t *testing.T) {
	rng := NewRNG(3)
	if err := rng.Skip(MaxSkip); err != nil {
		t.Fatal(err)
	}
	if err := rng.Replayable(); err != nil {
		t.Fatalf("position at exactly the bound: %v", err)
	}
	if err := rng.Skip(1); err != nil {
		t.Fatal(err)
	}
	if rng.Replayable() == nil || rng.Pos() != MaxSkip+1 {
		t.Fatalf("position %d, one step past the bound, reported restorable", rng.Pos())
	}
}

// TestSkipOwedStepsAcrossSkips checks that steps owed by several Skips are
// all taken before the next draw, in whichever draw comes first.
func TestSkipOwedStepsAcrossSkips(t *testing.T) {
	orig := NewRNG(55)
	for range 40 {
		orig.Uint64()
	}
	want := orig.Int63()
	re := NewRNG(55)
	for _, n := range []uint64{7, 0, 33} {
		if err := re.Skip(n); err != nil {
			t.Fatal(err)
		}
	}
	if got := re.Int63(); got != want || re.Pos() != orig.Pos() {
		t.Fatalf("after skips: draw %v at %d, want %v at %d", got, re.Pos(), want, orig.Pos())
	}
}
