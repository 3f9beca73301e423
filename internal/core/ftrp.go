package core

import (
	"fmt"
	"math"

	"adaptivefilters/internal/filter"
	"adaptivefilters/internal/query"
	"adaptivefilters/internal/server"
	"adaptivefilters/internal/stream"
)

// FTRPConfig parameterizes the fraction-based tolerance protocol for k-NN
// queries.
type FTRPConfig struct {
	// Tol is the user's fraction-based tolerance (ε⁺, ε⁻) for the k-NN
	// query. The protocol internally derives the FT-NRP tolerances
	// (ρ⁺, ρ⁻) on the Equation 16 frontier.
	Tol FractionTolerance
	// Lambda splits the Equation 16 budget between ρ⁺ (λ→1) and ρ⁻ (λ→0).
	// 0.5 by default-construction in NewFTRP when NaN/zero-value configs use
	// DefaultFTRPConfig.
	Lambda float64
	// Selection picks the silent-filter streams (boundary-nearest default).
	Selection Selection
	// Seed drives the random selection heuristic.
	Seed int64
	// Faithful mirrors FTNRPConfig.Faithful for the shared Fix_Error step.
	Faithful bool
}

// DefaultFTRPConfig returns the configuration used in the paper's Figure 15
// reproduction: balanced λ, boundary-nearest selection.
func DefaultFTRPConfig(tol FractionTolerance) FTRPConfig {
	return FTRPConfig{Tol: tol, Lambda: 0.5, Selection: SelectBoundaryNearest}
}

// FTRPOf is the fraction-based tolerance protocol for k-NN queries (paper
// §5.2.2–5.2.3) over stream values of type V and filter constraints of
// type C. It transforms the k-NN query into a range query over the region R
// enclosing the k-th nearest neighbor and runs the FT-NRP machinery with
// derived tolerances (ρ⁺, ρ⁻) satisfying Equation 16, so the user's (ε⁺, ε⁻)
// hold despite rank-shuffle effects (Figure 8). Unlike ZT-RP, R is only
// recomputed when the answer size leaves the admissible window
// k(1−ε⁻) <= |A(t)| <= k/(1−ε⁺) (Equations 7 and 9).
//
// The center supplies the distance, R's shape and the silent filters: in
// 1-D (FTRP) an interval, [−∞, +∞] and [+∞, +∞]; in the plane a disk, the
// all-containing disk and the empty one.
type FTRPOf[V any, C filter.Of[V, C]] struct {
	ranker[V, C]
	fraction
	k   int
	cfg FTRPConfig

	rhoPlus, rhoMinus         float64
	nPlusBudget, nMinusBudget int
	minA, maxA                int

	d   float64
	cur C

	// Recomputes counts full bound recomputations; exported for reports.
	Recomputes uint64
}

// FTRP is the paper's one-dimensional FT-RP.
type FTRP = FTRPOf[float64, filter.Constraint]

// NewFTRP returns the fraction-based k-NN protocol. It panics on an invalid
// tolerance or k, or a NaN center.
func NewFTRP[V any, C filter.Of[V, C]](c server.HostOf[V, C], q query.CenterOf[V, C], k int, cfg FTRPConfig) *FTRPOf[V, C] {
	if err := cfg.Tol.Validate(); err != nil {
		panic(err)
	}
	if k <= 0 || k >= c.N() {
		panic(fmt.Sprintf("core: ft-rp needs 1 <= k < n, got k=%d n=%d", k, c.N()))
	}
	checkCenter(q)
	p := &FTRPOf[V, C]{
		ranker:   ranker[V, C]{c: c, q: q},
		fraction: newFraction(cfg.Selection, cfg.Faithful, cfg.Seed, ftrpSelStream),
		k:        k, cfg: cfg,
	}
	p.rhoPlus, p.rhoMinus = cfg.Tol.DeriveRho(cfg.Lambda)
	p.nPlusBudget = int(float64(k) * p.rhoPlus)
	p.nMinusBudget = int(float64(k) * p.rhoMinus)
	p.deriveWindow()
	return p
}

// deriveWindow computes the answer-size window jointly with the silent
// filter budgets. The paper derives the window k(1−ε⁻) <= |A| <= k/(1−ε⁺)
// (Equations 7 and 9) and the silent budgets ρ⁺, ρ⁻ (Equation 16)
// independently, but both spend the same error budget: a maximally loose R
// already contributes |A|−k structural false positives, so silent-filter
// errors on top of it would exceed ε⁺. We therefore shrink the window by
// the total silent budget s = n⁺+n⁻:
//
//	maxA = ⌊(k − s)/(1−ε⁺)⌋   (E⁺ <= (|A|+n⁻−k) + n⁺ <= ε⁺·|A|)
//	minA = ⌈k(1−ε⁻)⌉ + s      (E⁻ <= (k−|A|+n⁺) + n⁻ <= ε⁻·k)
//
// and, when no window containing k exists, shed silent filters first. This
// keeps Definition 3 verifiable by the oracle at every instant (see
// DESIGN.md §3 and the FT-RP property tests).
func (p *FTRPOf[V, C]) deriveWindow() {
	eps := p.cfg.Tol
	for {
		s := p.nPlusBudget + p.nMinusBudget
		maxA := int(math.Floor(float64(p.k-s) / (1 - eps.EpsPlus)))
		minA := int(math.Ceil(float64(p.k)*(1-eps.EpsMinus))) + s
		if pm, pM := eps.AnswerBounds(p.k); minA < pm || maxA > pM {
			// Never exceed the paper's own window.
			if minA < pm {
				minA = pm
			}
			if maxA > pM {
				maxA = pM
			}
		}
		if (maxA >= p.k && minA <= p.k) || s == 0 {
			p.minA, p.maxA = minA, maxA
			return
		}
		if p.nMinusBudget >= p.nPlusBudget {
			p.nMinusBudget--
		} else {
			p.nPlusBudget--
		}
	}
}

// Name implements server.Protocol.
func (p *FTRPOf[V, C]) Name() string {
	return fmt.Sprintf("ft-rp(k=%d,%v,λ=%g)", p.k, p.cfg.Tol, p.cfg.Lambda)
}

// Rho returns the derived (ρ⁺, ρ⁻) pair (tests).
func (p *FTRPOf[V, C]) Rho() (rhoPlus, rhoMinus float64) { return p.rhoPlus, p.rhoMinus }

// Bound returns the deployed region (tests).
func (p *FTRPOf[V, C]) Bound() C { return p.cur }

// Initialize probes everything and deploys R plus the silent filters.
func (p *FTRPOf[V, C]) Initialize() {
	p.probeAll()
	p.rebuild()
}

// rebuild recomputes R around the k nearest per the server table, resets the
// answer to those k streams, and re-assigns silent filters with budgets
// floor(k·ρ⁺) and floor(k·ρ⁻).
//
// R needs the k+1 nearest and boundary-nearest selection re-ranks whatever
// order it is handed, so the ranking stops there. SelectRandom shuffles the
// ranked outside slice, whose order therefore decides who is drawn: it
// asks for the whole order.
func (p *FTRPOf[V, C]) rebuild() {
	m := p.k + 1
	if p.cfg.Selection == SelectRandom {
		m = p.c.N()
	}
	sorted, dists := p.rankNearest(m)
	p.d = midpoint(dists[p.k-1], dists[p.k])
	p.cur = p.q.BallConstraint(p.d)

	// Boundary-nearest for a ball region: inside streams closest to the
	// boundary have the largest distance from q; outside streams closest to
	// the boundary have the smallest distance beyond it. The ranking's
	// distances are overwritten with those scores, so the deploy allocates
	// nothing and recomputes no distance; it splits the ranking — a
	// permutation of all n ids — into its four batches.
	for i, d := range dists {
		if i < p.k {
			dists[i] = p.d - d
		} else {
			dists[i] = d - p.d
		}
	}
	deploy(&p.fraction, p.c, sorted[:p.k], sorted[p.k:], dists[:p.k], dists[p.k:],
		p.nPlusBudget, p.nMinusBudget, p.cur, p.q.WideOpen(), p.q.Shut())
	p.Recomputes++
}

// HandleUpdate runs the FT-NRP maintenance machinery against the current R
// and recomputes R when the answer size leaves the admissible window.
func (p *FTRPOf[V, C]) HandleUpdate(id stream.ID, v V) {
	p.c.AddServerOps(1)
	if p.step(id, p.cur.Contains(v)) {
		fixError(&p.fraction, p.c, p.cur)
	}
	p.checkWindow()
}

// checkWindow enforces §5.2.3(2): when |A(t)| exceeds k/(1−ε⁺) the region is
// too loose, when it drops below k(1−ε⁻) it is too tight; either way R must
// be recomputed around the current k nearest neighbors.
func (p *FTRPOf[V, C]) checkWindow() {
	if n := p.ans.len(); n >= p.minA && n <= p.maxA {
		return
	}
	p.probeAll()
	p.rebuild()
}
