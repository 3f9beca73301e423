package oracle

import (
	"fmt"

	"adaptivefilters/internal/core"
	"adaptivefilters/internal/filter"
	"adaptivefilters/internal/query"
)

// Guarantee is what one standing query promises about its answer — the
// declarative half of an audit. Build one with Rank, FractionRange,
// FractionKNN or ValueKNN; protospec.Spec.Guarantee derives the one a
// protocol spec sells.
type Guarantee struct {
	// check judges an answer against the truth and folds its depth into t.
	check func(o *Checker, answer []int, t *Tally) error
	// planar guarantees rank streams by Euclidean distance from at, which is
	// what the auditor then keeps in its column.
	planar bool
	at     filter.Point
}

// Rank is Definition 1: exactly tol.K members, each of true rank at most
// k+r around q.
func Rank(q query.Center, tol core.RankTolerance) Guarantee {
	return Guarantee{check: func(o *Checker, answer []int, t *Tally) error {
		worst, err := o.worstRank(answer, q, tol)
		t.WorstRank = max(t.WorstRank, worst)
		return err
	}}
}

// FractionRange is Definition 3 for a range query. The zero tolerance
// demands the exact answer.
func FractionRange(rng query.Range, tol core.FractionTolerance) Guarantee {
	return Guarantee{check: func(o *Checker, answer []int, t *Tally) error {
		fp, fm, err := o.fractionRange(answer, rng, tol)
		t.MaxFPlus, t.MaxFMinus = max(t.MaxFPlus, fp), max(t.MaxFMinus, fm)
		return err
	}}
}

// FractionKNN is Definition 3 for a k-NN query, answer-size window
// included.
func FractionKNN(q query.KNN, tol core.FractionTolerance) Guarantee {
	return Guarantee{check: func(o *Checker, answer []int, t *Tally) error {
		fp, fm, err := o.fractionKNN(answer, q, tol)
		t.MaxFPlus, t.MaxFMinus = max(t.MaxFPlus, fp), max(t.MaxFMinus, fm)
		return err
	}}
}

// ValueKNN is what value-band filtering can promise an entity-based query:
// exactly q.K members, none farther from the query point than the true
// k-th nearest stream plus width (every table value is within width/2 of
// the truth). It bounds no rank — the paper's Figure 1 — so the members'
// worst true rank is the depth it records.
func ValueKNN(q query.KNN, width float64) Guarantee {
	return Guarantee{check: func(o *Checker, answer []int, t *Tally) error {
		worst, err := o.worstRank(answer, q.Q, core.RankTolerance{K: q.K, R: len(o.vals)})
		t.WorstRank = max(t.WorstRank, worst)
		kth, _ := o.kthDist(q.Q, q.K)
		// No error yet: the members are distinct streams the oracle knows.
		for i := 0; err == nil && i < len(answer); i++ {
			if d := q.Q.Dist(o.vals[answer[i]]); d > kth+width {
				err = &Violation{fmt.Sprintf("value-knn: stream %d at distance %g, beyond the true k-th distance %g plus width %g",
					answer[i], d, kth, width)}
			}
		}
		return err
	}}
}

// RankAround is Rank for planar streams: points, ranked by their distance
// from p — the axis the auditor then keeps, with the query at its origin.
func RankAround(p filter.Point, tol core.RankTolerance) Guarantee {
	g := Rank(query.At(0), tol)
	g.planar, g.at = true, p
	return g
}

// FractionKNNAround is FractionKNN for planar streams, as RankAround is Rank.
func FractionKNNAround(p filter.Point, k int, tol core.FractionTolerance) Guarantee {
	g := FractionKNN(query.KNN{Q: query.At(0), K: k}, tol)
	g.planar, g.at = true, p
	return g
}

// Tally is what an audit has seen so far: how often the guarantee was
// checked and broken, and how deep the worst answer went.
type Tally struct {
	Checks, Violations int
	// First describes the first violation ("" while there is none).
	First string
	// WorstRank is the largest true rank any answer member held at a check
	// (rank and value guarantees).
	WorstRank int
	// MaxFPlus and MaxFMinus are the largest false-positive and
	// false-negative fractions seen at a check (fraction guarantees).
	MaxFPlus, MaxFMinus float64
}

// Add folds another audit's tally into t: counts add, depths take the
// worse, First keeps the earlier-folded description.
func (t *Tally) Add(o Tally) {
	t.Checks += o.Checks
	t.Violations += o.Violations
	if t.First == "" {
		t.First = o.First
	}
	t.WorstRank = max(t.WorstRank, o.WorstRank)
	t.MaxFPlus = max(t.MaxFPlus, o.MaxFPlus)
	t.MaxFMinus = max(t.MaxFMinus, o.MaxFMinus)
}

// Auditor holds one standing query to its guarantee: it tracks the ground
// truth it is fed and, whenever it is shown the served answer, checks the
// guarantee and tallies rate and depth. Truth is one column of values (for
// planar queries, of distances to the query point), ranked when an audit
// asks; a warm audit that passes allocates nothing.
type Auditor struct {
	Tally
	// Every is the sampling period, in events, the feeder is asked to
	// audit at.
	Every int

	g   Guarantee
	chk *Checker
}

// NewAuditor audits g over 1-D streams starting at initial.
func NewAuditor(initial []float64, g Guarantee, every int) *Auditor {
	if g.planar {
		panic("oracle: planar guarantee over 1-D streams")
	}
	return &Auditor{Every: every, g: g, chk: New(initial)}
}

// NewPlanarAuditor audits g, a planar guarantee, over streams starting at the
// given points.
func NewPlanarAuditor(initial []filter.Point, g Guarantee, every int) *Auditor {
	if !g.planar {
		panic("oracle: 1-D guarantee over planar streams")
	}
	d := make([]float64, len(initial))
	for i, p := range initial {
		d[i] = filter.Dist(p, g.at)
	}
	return &Auditor{Every: every, g: g, chk: New(d)}
}

// Apply records a true change of stream id; y is the second coordinate of
// a planar stream and ignored otherwise.
func (a *Auditor) Apply(id int, x, y float64) {
	if a.g.planar {
		x = filter.Dist(filter.Point{X: x, Y: y}, a.g.at)
	}
	a.chk.Apply(id, x)
}

// Audit checks answer, the served answer once every applied event has
// reached the server, against the guarantee, tallies the outcome and
// returns the violation, if any. pos labels the instant in First.
func (a *Auditor) Audit(pos uint64, answer []int) error {
	err := a.g.check(a.chk, answer, &a.Tally)
	a.Checks++
	if err != nil {
		a.Violations++
		if a.First == "" {
			a.First = fmt.Sprintf("event %d: %v", pos, err)
		}
	}
	return err
}
