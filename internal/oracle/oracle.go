// Package oracle maintains the ground truth of every stream value and
// verifies the paper's correctness requirements (§3.5) against a protocol's
// answer set: Definition 1 for rank-based tolerance and Definition 3 for
// fraction-based tolerance.
//
// The oracle sees the true value of every stream (it sits beside the
// workload driver, not the server) and uses an order-statistic index so a
// check costs O((k + |A|) log n) rather than a full scan.
package oracle

import (
	"fmt"

	"adaptivefilters/internal/core"
	"adaptivefilters/internal/query"
	"adaptivefilters/internal/rankindex"
)

// Checker tracks ground truth and validates answers.
type Checker struct {
	ix *rankindex.Index
}

// New returns a checker seeded with the true initial values.
func New(initial []float64) *Checker {
	return &Checker{ix: rankindex.FromValues(initial)}
}

// Apply records a true value change.
func (o *Checker) Apply(id int, v float64) { o.ix.Set(id, v) }

// Value returns the true current value of a stream.
func (o *Checker) Value(id int) float64 {
	v, _ := o.ix.Value(id)
	return v
}

// Index exposes the underlying index for read-only queries (tests).
func (o *Checker) Index() *rankindex.Index { return o.ix }

// Violation describes a tolerance breach.
type Violation struct {
	Reason string
}

// Error implements error.
func (v *Violation) Error() string { return "oracle: " + v.Reason }

// CheckRank validates Definition 1: |A| = k and every member's true rank is
// at most k+r. Ranks are favorable under ties (see rankindex).
func (o *Checker) CheckRank(answer []int, q query.Center, tol core.RankTolerance) error {
	_, err := o.worstRank(answer, q, tol)
	return err
}

// worstRank is Definition 1 with depth: the largest true rank among the
// members, and the first breach of the definition.
func (o *Checker) worstRank(answer []int, q query.Center, tol core.RankTolerance) (worst int, err error) {
	if len(answer) != tol.K {
		err = &Violation{fmt.Sprintf("rank: |A|=%d, want exactly k=%d", len(answer), tol.K)}
	}
	for _, id := range answer {
		rank, ok := o.ix.RankOf(id, q)
		if !ok {
			if err == nil {
				err = &Violation{fmt.Sprintf("rank: answer stream %d unknown to oracle", id)}
			}
			continue
		}
		worst = max(worst, rank)
		if rank > tol.Eps() && err == nil {
			err = &Violation{fmt.Sprintf("rank: stream %d has true rank %d > ε=%d",
				id, rank, tol.Eps())}
		}
	}
	return worst, err
}

// FractionStats computes the true false-positive and false-negative
// fractions of an answer for a range query (Equations 1–2). When the answer
// is empty both fractions are reported as 0 if nothing satisfies the query,
// and F⁻ = 1 otherwise.
func (o *Checker) FractionStats(answer []int, rng query.Range) (fPlus, fMinus float64) {
	ePlus := 0
	for _, id := range answer {
		if v, ok := o.ix.Value(id); !ok || !rng.Contains(v) {
			ePlus++
		}
	}
	satisfying := o.ix.CountRange(rng.Lo, rng.Hi)
	truePos := len(answer) - ePlus
	eMinus := satisfying - truePos
	return fractions(len(answer), ePlus, eMinus)
}

// FractionStatsKNN computes F⁺ and F⁻ for a k-NN query: a stream satisfies
// the query iff its favorable true rank is <= k.
func (o *Checker) FractionStatsKNN(answer []int, q query.KNN) (fPlus, fMinus float64) {
	ePlus := 0
	for _, id := range answer {
		rank, ok := o.ix.RankOf(id, q.Q)
		if !ok || rank > q.K {
			ePlus++
		}
	}
	// Total satisfying streams: everyone within the k-th nearest distance
	// (ties share rank k favorably, so this can exceed k).
	satisfying := 0
	if kd, ok := o.ix.KthDist(q.Q, q.K); ok {
		satisfying = o.ix.CountWithin(q.Q, kd)
	}
	truePos := len(answer) - ePlus
	eMinus := satisfying - truePos
	return fractions(len(answer), ePlus, eMinus)
}

func fractions(aSize, ePlus, eMinus int) (fPlus, fMinus float64) {
	if eMinus < 0 {
		eMinus = 0
	}
	if aSize > 0 {
		fPlus = float64(ePlus) / float64(aSize)
	}
	if denom := aSize - ePlus + eMinus; denom > 0 {
		fMinus = float64(eMinus) / float64(denom)
	} else if eMinus > 0 {
		fMinus = 1
	}
	return fPlus, fMinus
}

// CheckFractionRange validates Definition 3 for a range query.
func (o *Checker) CheckFractionRange(answer []int, rng query.Range, tol core.FractionTolerance) error {
	fp, fm := o.FractionStats(answer, rng)
	return checkFractions(fp, fm, tol)
}

// CheckFractionKNN validates Definition 3 for a k-NN query, including the
// answer-size window of Equations 7–10.
func (o *Checker) CheckFractionKNN(answer []int, q query.KNN, tol core.FractionTolerance) error {
	_, _, err := o.fractionKNN(answer, q, tol)
	return err
}

// fractionKNN is CheckFractionKNN with depth: the fractions it judged.
func (o *Checker) fractionKNN(answer []int, q query.KNN, tol core.FractionTolerance) (fPlus, fMinus float64, err error) {
	fPlus, fMinus = o.FractionStatsKNN(answer, q)
	minA, maxA := tol.AnswerBounds(q.K)
	if len(answer) < minA || len(answer) > maxA {
		return fPlus, fMinus, &Violation{fmt.Sprintf("knn-fraction: |A|=%d outside [%d,%d]",
			len(answer), minA, maxA)}
	}
	return fPlus, fMinus, checkFractions(fPlus, fMinus, tol)
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
