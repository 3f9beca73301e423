// Package sim is the repository's seeded randomness: RNG, the distributions
// the workload generators draw from over a position-counting source (so a
// snapshot can resume a stream of draws exactly), and DeriveSeed, which
// turns a base seed and a coordinate path into an independent seed — the
// reason figure cells, tenants and queries can run in any order, on any
// shard, and stay byte-identical.
//
// sim owns its source: a copy of math/rand's additive lagged Fibonacci
// generator that draws exactly what rand.NewSource draws, seeded several
// times faster, and seeded lazily — an RNG allocates and seeds its register
// on its first draw, and a Split of an RNG not yet drawn from defers its
// child's seed the same way. math/rand remains the distribution layer
// (rand.Rand's NormFloat64, ExpFloat64, Shuffle, Intn) on top of it.
//
// It replaces the randomness of the commercial CSIM 19 simulator the paper
// used; that simulator's event scheduler has no counterpart here, because a
// workload's trace (Workload.Events) already holds its events in time order
// and runtime.Node applies them in it.
package sim

import (
	"fmt"
	"math"
	"math/rand"
)

// RNG bundles the random distributions the workload generators need on top
// of sim's own seeded source, so every component draws from an independent,
// reproducible stream. An RNG is used through its pointer and is not safe
// for concurrent use; a Split child is independent of its parent.
//
// Every RNG counts the source steps it has consumed (Pos). Because each
// top-level draw advances the underlying source a deterministic number of
// steps, a position fully identifies the RNG state for a given seed: Skip
// fast-forwards a freshly seeded RNG to any recorded position, which is how
// snapshot restore resumes protocol randomness exactly where an interrupted
// run left off.
//
// The source's ~5 KB register is allocated and seeded only when the RNG is
// first drawn from, so an RNG nobody draws from — a selection stream under
// a heuristic that never picks at random, or one restored by Skip — costs
// a few words.
type RNG struct {
	*rand.Rand
	src countingSource
}

// MaxSkip bounds how far Skip will fast-forward (2^30 steps, well under a
// second of replay). Positions recorded by real runs stay far below it;
// snapshot decoders reject anything larger as corruption, so a flipped bit
// in a stored position cannot turn a restore into an unbounded replay loop.
const MaxSkip = 1 << 30

// unseeded is the bit of countingSource.owe that marks a register not yet
// allocated or seeded, so the draw path tests one word for both debts.
const unseeded = 1 << 63

// countingSource wraps the source register and counts its steps. Both Int63
// and Uint64 advance the register exactly one step, so the count is the
// exact number of state transitions regardless of which distribution
// methods consumed them. What the register owes — its seeding and the steps
// a Skip counted — it takes before its next draw.
type countingSource struct {
	reg  *source    // nil until the first draw
	seed int64      // the register's seed, unless from is set
	from *splitSeed // the seed of a lazy Split child, not worked out yet
	pos  uint64
	owe  uint64 // steps counted in pos that the register has not taken yet, plus unseeded
}

func (c *countingSource) Int63() int64 {
	c.pos++
	if c.owe != 0 {
		c.pay()
	}
	return c.reg.Int63()
}

func (c *countingSource) Uint64() uint64 {
	c.pos++
	if c.owe != 0 {
		c.pay()
	}
	return c.reg.Uint64()
}

// pay seeds the register if it is not yet, then takes the steps Skip owes.
func (c *countingSource) pay() {
	if c.owe&unseeded != 0 {
		c.owe &^= unseeded
		if c.reg == nil {
			c.reg = new(source)
		}
		if c.from != nil {
			c.seed, c.from = c.from.resolve(c.reg), nil
		}
		c.reg.seed(c.seed)
	}
	for ; c.owe > 0; c.owe-- {
		c.reg.Uint64()
	}
}

func (c *countingSource) Seed(seed int64) {
	c.seed, c.from = seed, nil
	c.pos, c.owe = 0, unseeded
}

// splitSeed is the seed of a Split child whose parent had not been drawn
// from: mix64 of the first Int63 the parent's source yields, and the
// child's id. The parent's seed is seed, or, when the parent was itself
// such a child, its own splitSeed. A splitSeed is never changed once made,
// so a child may work it out on another goroutine than its parent's.
type splitSeed struct {
	parent *splitSeed
	seed   int64
	id     int64
}

// resolve works out the seed, using reg as scratch.
func (s *splitSeed) resolve(reg *source) int64 {
	seed := s.seed
	if s.parent != nil {
		seed = s.parent.resolve(reg)
	}
	reg.seed(seed)
	return int64(mix64(uint64(reg.Int63()), s.id))
}

// NewRNG returns a deterministic RNG for the given seed. It keeps only the
// seed: the register is seeded on the first draw.
func NewRNG(seed int64) *RNG {
	return newRNG(countingSource{seed: seed, owe: unseeded})
}

func newRNG(src countingSource) *RNG {
	r := &RNG{src: src}
	r.Rand = rand.New(&r.src)
	return r
}

// Pos returns the number of source steps consumed so far. Together with the
// construction path (seed, Split labels) it identifies the RNG state.
func (r *RNG) Pos() uint64 { return r.src.pos }

// Skip advances the RNG by n source steps without interpreting the draws,
// restoring the state a freshly constructed RNG had after consuming n steps.
// It returns an error (leaving the RNG unperturbed) when n exceeds MaxSkip,
// so corrupted snapshot positions fail fast instead of replaying forever.
// Pos counts the steps at once; the source takes them before its next draw,
// so an RNG that is skipped and never drawn from again costs no replay and
// is never seeded.
func (r *RNG) Skip(n uint64) error {
	if n > MaxSkip {
		return fmt.Errorf("sim: rng skip %d exceeds limit %d", n, uint64(MaxSkip))
	}
	r.src.pos += n
	r.src.owe += n
	return nil
}

// Replayable returns an error when the RNG has consumed more steps than one
// Skip can replay, so a snapshot of its position could never be restored.
func (r *RNG) Replayable() error {
	if pos := r.Pos(); pos > MaxSkip {
		return fmt.Errorf("sim: rng position %d exceeds the restorable bound %d", pos, uint64(MaxSkip))
	}
	return nil
}

// Split derives an independent RNG from this one, labelled by id. Two Splits
// with different ids produce uncorrelated streams; the parent is not
// perturbed beyond a single Int63 draw per call.
//
// The child's seed is mix64(the parent's next Int63, id). When the parent
// has not been drawn from, that Int63 is the first of its seed's stream:
// the child records where its seed comes from and works it out on its own
// first draw, and the parent counts the draw as a Skip(1). Neither is
// seeded by the Split.
func (r *RNG) Split(id int64) *RNG {
	c := &r.src
	if c.pos != 0 {
		return NewRNG(int64(mix64(uint64(r.Int63()), id)))
	}
	child := newRNG(countingSource{from: &splitSeed{parent: c.from, seed: c.seed, id: id}, owe: unseeded})
	c.pos, c.owe = 1, c.owe+1
	return child
}

// Exp draws an exponentially distributed value with the given mean.
func (r *RNG) Exp(mean float64) float64 { return r.ExpFloat64() * mean }

// Normal draws a normally distributed value.
func (r *RNG) Normal(mu, sigma float64) float64 { return r.NormFloat64()*sigma + mu }

// Uniform draws uniformly from [lo, hi).
func (r *RNG) Uniform(lo, hi float64) float64 { return lo + r.Float64()*(hi-lo) }

// Pareto draws from a Pareto distribution with scale xm>0 and shape alpha>0.
func (r *RNG) Pareto(xm, alpha float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return xm / math.Pow(u, 1/alpha)
}

// LogNormal draws exp(Normal(mu, sigma)).
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.Normal(mu, sigma))
}

// DeriveSeed deterministically derives an independent seed from a base seed
// and a coordinate path (for the figure harness: figure ID, row, column).
// It chains splitmix64 over the parts, so changing any coordinate — or its
// position in the path — yields an uncorrelated seed, while the same path
// always reproduces the same seed. This is what lets experiment cells run
// in any scheduling order (or on separate shards) and still regenerate
// byte-identical tables.
func DeriveSeed(base int64, parts ...int64) int64 {
	x := splitmix64(uint64(base))
	for _, p := range parts {
		x = mix64(x, p)
	}
	return int64(x)
}

// mix64 folds one labelled coordinate into x, shared by Split and
// DeriveSeed so the two derivation schemes cannot drift apart.
func mix64(x uint64, p int64) uint64 {
	return splitmix64(x ^ (uint64(p)*0x9E3779B97F4A7C15 + 0x632BE59BD9B4E019))
}

// splitmix64 is the standard 64-bit mixer used to derive child seeds.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
