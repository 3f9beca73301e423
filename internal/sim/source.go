package sim

// source is math/rand's additive lagged Fibonacci generator (the register
// behind rand.NewSource), reimplemented so sim owns the seeding: it draws
// exactly the values rand.NewSource(seed) draws for every seed, pinned by
// TestSourceMatchesMathRand, but seeds several times faster.
//
// math/rand seeds the 607-word register from a Lehmer chain x ← 48271·x
// mod (2³¹−1), computed with Schrage's division trick one step at a time:
// 20 warm-up steps, then three steps per word. Here each step is one 64-bit
// multiply and a Mersenne fold, and the three draws of a word come from
// three interleaved chains, each advancing by 48271³ per word, so no draw
// waits on the one before it.
type source struct {
	tap  int
	feed int
	vec  [rngLen]int64
}

const (
	rngLen  = 607
	rngTap  = 273
	rngMask = 1<<63 - 1

	// lehmerMod is the Lehmer chain's modulus 2³¹−1.
	lehmerMod = 1<<31 - 1
	// lehmerZero replaces a seed ≡ 0 (mod 2³¹−1), as math/rand does.
	lehmerZero = 89482311

	// Powers of the chain's multiplier 48271, reduced mod 2³¹−1: the three
	// chains start 21, 22 and 23 steps past the seed and advance by three.
	lehmer1  = 48271
	lehmer3  = lehmer1 * lehmer1 % lehmerMod * lehmer1 % lehmerMod
	lehmer6  = lehmer3 * lehmer3 % lehmerMod
	lehmer21 = lehmer6 * lehmer6 % lehmerMod * lehmer6 % lehmerMod * lehmer3 % lehmerMod
	lehmer22 = lehmer21 * lehmer1 % lehmerMod
	lehmer23 = lehmer22 * lehmer1 % lehmerMod
)

// mulMod returns x·k mod 2³¹−1 for x, k in [1, 2³¹−1). The product fits in
// 62 bits; folding its high bits onto the low 31 (2³¹ ≡ 1) leaves a value
// below 2·(2³¹−1), which one conditional subtraction reduces.
func mulMod(x, k uint64) uint64 {
	p := x * k
	r := p&lehmerMod + p>>31
	if r >= lehmerMod {
		r -= lehmerMod
	}
	return r
}

// seed initializes the register to the state rand.NewSource(seed) starts in.
func (s *source) seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap

	seed %= lehmerMod
	if seed < 0 {
		seed += lehmerMod
	}
	if seed == 0 {
		seed = lehmerZero
	}
	x := uint64(seed)
	a, b, c := mulMod(x, lehmer21), mulMod(x, lehmer22), mulMod(x, lehmer23)
	for i := range s.vec {
		s.vec[i] = int64(a<<40^b<<20^c) ^ rngCooked[i]
		a, b, c = mulMod(a, lehmer3), mulMod(b, lehmer3), mulMod(c, lehmer3)
	}
}

// Uint64 takes one step of the generator.
func (s *source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 takes one step and drops the top bit.
func (s *source) Int63() int64 { return int64(s.Uint64() & rngMask) }
