package core

import (
	"slices"

	"adaptivefilters/internal/filter"
	"adaptivefilters/internal/server"
	"adaptivefilters/internal/sim"
	"adaptivefilters/internal/stream"
)

// fraction is Figure 7's fraction-tolerance machinery, written once for
// both protocols that run it: FT-NRP over its query interval, and FT-RP
// over the region R its k-NN query is turned into, with derived
// tolerances (paper §5.2.2). It holds the answer, the silent-filter pools,
// the count variable and the selection stream; the region is the caller's
// and is passed in, so the hot path's region test makes no call through a
// type parameter.
type fraction struct {
	selection Selection
	faithful  bool     // Fix_Error as in the pseudocode (FTNRPConfig.Faithful)
	sel       *sim.RNG // drives SelectRandom

	ans   intSet // A(t): streams believed inside the region
	fp    intSet // false-positive (wide-open) filter holders
	fn    intSet // false-negative (shut) filter holders
	count int    // net insertions since the last deployment (Figure 7)

	skip []stream.ID // deploy's scratch: the silent filters' holders
}

func newFraction(selection Selection, faithful bool, seed, label int64) fraction {
	return fraction{
		selection: selection, faithful: faithful,
		sel: sim.NewRNG(seed).Split(label),
		ans: newIntSet(), fp: newIntSet(), fn: newIntSet(),
	}
}

// NPlus returns n⁺, the current number of false-positive filters.
func (f *fraction) NPlus() int { return f.fp.len() }

// NMinus returns n⁻, the current number of false-negative filters.
func (f *fraction) NMinus() int { return f.fn.len() }

// Answer implements server.Protocol.
func (f *fraction) Answer() []stream.ID { return f.ans.sorted() }

// step is Figure 7's maintenance step for an update from stream id, which
// the caller's region test put inside or outside. A stream that enters
// joins the answer and raises count; one that leaves the answer lowers
// count, and when count is already zero the caller must run fixError.
func (f *fraction) step(id stream.ID, inside bool) (fix bool) {
	if inside {
		if !f.ans.has(id) {
			f.ans.add(id)
			f.count++
		}
		return false
	}
	if !f.ans.has(id) {
		return false // e.g. an install-mismatch refresh from a non-answer stream
	}
	f.ans.remove(id)
	if f.count > 0 {
		f.count--
		return false
	}
	return true
}

// fixError is Figure 7's Fix_Error: consult one false-positive and (if
// needed) one false-negative stream to restore the error fractions,
// pinning each with region.
func fixError[V any, C filter.Of[V, C]](f *fraction, c server.HostOf[V, C], region C) {
	if sy, ok := f.fp.min(); ok {
		if region.Contains(c.Probe(sy)) {
			// Sy is a true positive: pin it with the real constraint and
			// retire the filter. Correctness restored; done. (Re-adding to
			// the answer matters only in faithful mode, where a previously
			// evicted stream can still hold a false-positive filter.)
			f.ans.add(sy)
			c.Install(sy, region, true)
			f.fp.remove(sy)
			return
		}
		// Sy turned out to be a false positive: drop it from the answer.
		// Pseudocode-faithful, Sy keeps [−∞,∞] and remains in the pool (it
		// can silently re-enter the region later; see DESIGN.md §3).
		f.ans.remove(sy)
		if !f.faithful {
			c.Install(sy, region, false)
			f.fp.remove(sy)
		}
	}
	if sz, ok := f.fn.min(); ok {
		inside := region.Contains(c.Probe(sz))
		if inside {
			f.ans.add(sz)
		}
		c.Install(sz, region, inside)
		f.fn.remove(sz)
	}
}

// deploy is Figure 7's Initialization after a ProbeAllInto: it resets the
// answer to inside, picks up to nPlus false-positive holders from inside
// and up to nMinus false-negative holders from outside (keys score each
// id's distance to the region boundary; inside is picked first, which
// fixes the selection stream's draw order), and installs open on the
// first, shut on the second and region on every other stream: two batches
// and one InstallAllExcept, which a composite files as the query's column
// default. Both slices are reordered in place. Every deploy follows a
// ProbeAllInto, so the table is the truth and the side each install claims is
// the true one: the install order is unobservable
// (TestFTNRPInstallsNeverMismatch, TestFTRPInstallsNeverMismatch).
func deploy[V any, C filter.Of[V, C]](f *fraction, c server.HostOf[V, C], inside, outside []int,
	inKeys, outKeys []float64, nPlus, nMinus int, region, open, shut C) {
	f.ans.clear()
	f.fp.clear()
	f.fn.clear()
	f.count = 0
	for _, id := range inside {
		f.ans.add(id)
	}
	fp := f.selection.pickKeyed(inside, inKeys, nPlus, f.sel.Rand)
	fn := f.selection.pickKeyed(outside, outKeys, nMinus, f.sel.Rand)
	for _, id := range fp {
		f.fp.add(id)
	}
	for _, id := range fn {
		f.fn.add(id)
	}
	c.InstallBatch(fp, open)
	c.InstallBatch(fn, shut)
	f.skip = append(append(f.skip[:0], fp...), fn...)
	slices.Sort(f.skip)
	c.InstallAllExcept(f.skip, region)
}
