// Package oracle maintains the ground truth of every stream value and
// verifies the paper's correctness requirements (§3.5) against a protocol's
// answer set: Definition 1 for rank-based tolerance and Definition 3 for
// fraction-based tolerance.
//
// The oracle sees the true value of every stream (it sits beside the
// workload driver, not the server). It keeps them in one column, so an
// update is a store, and ranks at check time: one distance pass and linear
// counts, plus a topk selection for a k-NN check. A warm check that passes
// allocates nothing.
//
// Ranks are favorable under ties: a stream's rank is 1 + the number of
// streams strictly closer to the center by query.Center.Dist, so tied
// streams share the better rank. New and Apply panic on a NaN value.
package oracle

import (
	"fmt"
	"math"
	"slices"

	"adaptivefilters/internal/core"
	"adaptivefilters/internal/query"
	"adaptivefilters/internal/topk"
)

// Checker tracks ground truth and validates answers.
type Checker struct {
	vals []float64
	// Check scratch: the distance ranking, the answer's distinct members
	// and their marks (all false between checks).
	r    topk.Ranking
	ids  []int
	seen []bool
}

// New returns a checker seeded with the true initial values. It panics on a
// NaN value.
func New(initial []float64) *Checker {
	if slices.ContainsFunc(initial, math.IsNaN) {
		panic("oracle: NaN true value")
	}
	return &Checker{vals: slices.Clone(initial), seen: make([]bool, len(initial))}
}

// Apply records a true value change. It panics on a NaN value, which no
// order admits: paths that carry untrusted values (snapshot restore, wire
// ingest) validate before the oracle sees them, so the panic marks a caller
// bug.
func (o *Checker) Apply(id int, v float64) {
	if math.IsNaN(v) {
		panic("oracle: Apply with NaN value")
	}
	o.vals[id] = v
}

// Value returns the true current value of a stream.
func (o *Checker) Value(id int) float64 { return o.vals[id] }

// Violation describes a tolerance breach.
type Violation struct {
	Reason string
}

// Error implements error.
func (v *Violation) Error() string { return "oracle: " + v.Reason }

// members returns the streams answer names, each once and in answer order,
// in scratch valid until the next check, and the first breach: err if it is
// one, else a violation naming the first member that is out of range or
// repeated, since an answer lists distinct streams.
func (o *Checker) members(answer []int, what string, err error) ([]int, error) {
	ids := o.ids[:0]
	for _, id := range answer {
		switch {
		case id < 0 || id >= len(o.vals):
			if err == nil {
				err = &Violation{fmt.Sprintf("%s: answer stream %d unknown to oracle", what, id)}
			}
		case o.seen[id]:
			if err == nil {
				err = &Violation{fmt.Sprintf("%s: answer stream %d listed twice", what, id)}
			}
		default:
			o.seen[id] = true
			ids = append(ids, id)
		}
	}
	for _, id := range ids {
		o.seen[id] = false
	}
	o.ids = ids
	return ids, err
}

// dists loads every stream's distance from q into the ranking and returns
// the keys, by stream id until the ranking is ordered.
func (o *Checker) dists(q query.Center) []float64 {
	keys := o.r.Load(len(o.vals))
	q.Dists(keys, o.vals)
	return keys
}

// RankOf returns the favorable true rank of stream id around q: 1 + the
// number of streams strictly closer.
func (o *Checker) RankOf(id int, q query.Center) int {
	return 1 + o.CountCloser(q, q.Dist(o.vals[id]))
}

// CountCloser returns the number of streams strictly closer to q than d; a
// NaN d counts none.
func (o *Checker) CountCloser(q query.Center, d float64) (c int) {
	for _, k := range o.dists(q) {
		if k < d {
			c++
		}
	}
	return c
}

// CountWithin returns the number of streams at distance at most d from q;
// a NaN d counts none.
func (o *Checker) CountWithin(q query.Center, d float64) int { return within(o.dists(q), d) }

// within returns the number of keys at most d.
func within(keys []float64, d float64) (c int) {
	for _, k := range keys {
		if k <= d {
			c++
		}
	}
	return c
}

// CountRange returns the number of streams whose value rng contains, in one
// scan of two one-sided compares, which compile without branches where
// Contains's && does not.
func (o *Checker) CountRange(rng query.Range) int {
	if !(rng.Lo <= rng.Hi) {
		return 0
	}
	below, above := 0, 0
	for _, v := range o.vals {
		if v < rng.Lo {
			below++
		}
		if v > rng.Hi {
			above++
		}
	}
	return len(o.vals) - below - above
}

// kthDist returns the distance from q of the k-th nearest stream, and every
// stream's distance (in no particular order). A stream is among the
// favorable k nearest, rank <= k, exactly when its distance is at most the
// k-th: at most k−1 streams are strictly closer than it. With k >= n every
// stream is among them, and the distance returned is +Inf; with k < 1 none
// is, and it is NaN, which no distance is at most.
func (o *Checker) kthDist(q query.Center, k int) (kth float64, keys []float64) {
	keys = o.dists(q)
	switch {
	case k >= len(keys):
		return math.Inf(1), keys
	case k < 1:
		return math.NaN(), keys
	}
	_, keys = o.r.Order(k)
	return keys[k-1], keys
}

// CheckRank validates Definition 1: |A| = k and every member's true rank is
// at most k+r.
func (o *Checker) CheckRank(answer []int, q query.Center, tol core.RankTolerance) error {
	_, err := o.worstRank(answer, q, tol)
	return err
}

// worstRank is Definition 1 with depth: the largest true rank among the
// members, and the first breach of the definition. Rank is monotone in
// distance, so the worst rank is the farthest member's.
func (o *Checker) worstRank(answer []int, q query.Center, tol core.RankTolerance) (worst int, err error) {
	if len(answer) != tol.K {
		err = &Violation{fmt.Sprintf("rank: |A|=%d, want exactly k=%d", len(answer), tol.K)}
	}
	ids, err := o.members(answer, "rank", err)
	if len(ids) == 0 {
		return 0, err
	}
	far := math.Inf(-1)
	for _, id := range ids {
		far = max(far, q.Dist(o.vals[id]))
	}
	worst = 1 + o.CountCloser(q, far)
	if worst > tol.Eps() && err == nil {
		for _, id := range ids {
			if rank := o.RankOf(id, q); rank > tol.Eps() {
				return worst, &Violation{fmt.Sprintf("rank: stream %d has true rank %d > ε=%d",
					id, rank, tol.Eps())}
			}
		}
	}
	return worst, err
}

// FractionStats computes the true false-positive and false-negative
// fractions of an answer for a range query (Equations 1–2). A member out of
// range or repeated counts as a false positive. When the answer is empty
// both fractions are reported as 0 if nothing satisfies the query, and
// F⁻ = 1 otherwise.
func (o *Checker) FractionStats(answer []int, rng query.Range) (fPlus, fMinus float64) {
	fPlus, fMinus, _ = o.fractionRange(answer, rng, core.FractionTolerance{})
	return fPlus, fMinus
}

// FractionStatsKNN computes F⁺ and F⁻ for a k-NN query: a stream satisfies
// the query iff its favorable true rank is <= k, so streams tied at the
// k-th distance all satisfy it. Members count as in FractionStats.
func (o *Checker) FractionStatsKNN(answer []int, q query.KNN) (fPlus, fMinus float64) {
	fPlus, fMinus, _ = o.fractionKNN(answer, q, core.FractionTolerance{})
	return fPlus, fMinus
}

// fractions is Equations 1–2 over an answer of aSize entries, truePos of
// them distinct satisfying streams, out of satisfying in all.
func fractions(aSize, truePos, satisfying int) (fPlus, fMinus float64) {
	if aSize > 0 {
		fPlus = float64(aSize-truePos) / float64(aSize)
	}
	if satisfying > 0 {
		fMinus = float64(satisfying-truePos) / float64(satisfying)
	}
	return fPlus, fMinus
}

// CheckFractionRange validates Definition 3 for a range query.
func (o *Checker) CheckFractionRange(answer []int, rng query.Range, tol core.FractionTolerance) error {
	_, _, err := o.fractionRange(answer, rng, tol)
	return err
}

// fractionRange is CheckFractionRange with depth: the fractions it judged.
func (o *Checker) fractionRange(answer []int, rng query.Range, tol core.FractionTolerance) (fPlus, fMinus float64, err error) {
	ids, err := o.members(answer, "fraction", nil)
	truePos := 0
	for _, id := range ids {
		if rng.Contains(o.vals[id]) {
			truePos++
		}
	}
	fPlus, fMinus = fractions(len(answer), truePos, o.CountRange(rng))
	if err == nil {
		err = checkFractions(fPlus, fMinus, tol)
	}
	return fPlus, fMinus, err
}

// CheckFractionKNN validates Definition 3 for a k-NN query, including the
// answer-size window of Equations 7–10.
func (o *Checker) CheckFractionKNN(answer []int, q query.KNN, tol core.FractionTolerance) error {
	_, _, err := o.fractionKNN(answer, q, tol)
	return err
}

// fractionKNN is CheckFractionKNN with depth: the fractions it judged.
func (o *Checker) fractionKNN(answer []int, q query.KNN, tol core.FractionTolerance) (fPlus, fMinus float64, err error) {
	if minA, maxA := tol.AnswerBounds(q.K); len(answer) < minA || len(answer) > maxA {
		err = &Violation{fmt.Sprintf("knn-fraction: |A|=%d outside [%d,%d]", len(answer), minA, maxA)}
	}
	ids, err := o.members(answer, "knn-fraction", err)
	kth, keys := o.kthDist(q.Q, q.K)
	truePos := 0
	for _, id := range ids {
		if q.Q.Dist(o.vals[id]) <= kth {
			truePos++
		}
	}
	fPlus, fMinus = fractions(len(answer), truePos, within(keys, kth))
	if err == nil {
		err = checkFractions(fPlus, fMinus, tol)
	}
	return fPlus, fMinus, err
}

func checkFractions(fPlus, fMinus float64, tol core.FractionTolerance) error {
	const slack = 1e-12 // floating-point guard only; not a semantic slack
	if fPlus > tol.EpsPlus+slack {
		return &Violation{fmt.Sprintf("fraction: F⁺=%.4f > ε⁺=%.4f", fPlus, tol.EpsPlus)}
	}
	if fMinus > tol.EpsMinus+slack {
		return &Violation{fmt.Sprintf("fraction: F⁻=%.4f > ε⁻=%.4f", fMinus, tol.EpsMinus)}
	}
	return nil
}
