package oracle

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"adaptivefilters/internal/core"
	"adaptivefilters/internal/filter"
	"adaptivefilters/internal/query"
)

func TestApplyAndValue(t *testing.T) {
	o := New([]float64{1, 2, 3})
	if o.Value(1) != 2 {
		t.Fatalf("Value(1) = %v", o.Value(1))
	}
	o.Apply(1, 9)
	if o.Value(1) != 9 {
		t.Fatalf("Value(1) = %v after Apply", o.Value(1))
	}
}

func TestCheckRankExact(t *testing.T) {
	// values: 0,10,20,30,40 — query at 0, k=2: true answer {0,1}.
	o := New([]float64{0, 10, 20, 30, 40})
	tol := core.RankTolerance{K: 2, R: 1}
	if err := o.CheckRank([]int{0, 1}, query.At(0), tol); err != nil {
		t.Fatalf("exact answer rejected: %v", err)
	}
	// {0, 2} is acceptable: stream 2 ranks 3rd <= k+r=3.
	if err := o.CheckRank([]int{0, 2}, query.At(0), tol); err != nil {
		t.Fatalf("within-tolerance answer rejected: %v", err)
	}
	// {0, 3} is not: stream 3 ranks 4th.
	if err := o.CheckRank([]int{0, 3}, query.At(0), tol); err == nil {
		t.Fatal("rank-4 answer accepted at ε=3")
	}
}

func TestCheckRankSizeRequirement(t *testing.T) {
	o := New([]float64{0, 10, 20})
	tol := core.RankTolerance{K: 2, R: 5}
	if err := o.CheckRank([]int{0}, query.At(0), tol); err == nil {
		t.Fatal("undersized answer accepted (Definition 1 requires |A| = k)")
	}
	if err := o.CheckRank([]int{0, 1, 2}, query.At(0), tol); err == nil {
		t.Fatal("oversized answer accepted")
	}
}

func TestCheckRankFavorableTies(t *testing.T) {
	// Four streams tied at distance 10: all rank 1 favorably.
	o := New([]float64{10, 10, -10, -10})
	tol := core.RankTolerance{K: 2, R: 0}
	for _, ans := range [][]int{{0, 1}, {2, 3}, {0, 3}} {
		if err := o.CheckRank(ans, query.At(0), tol); err != nil {
			t.Fatalf("tied answer %v rejected: %v", ans, err)
		}
	}
}

func TestFractionStatsRange(t *testing.T) {
	// In range: ids 1,2,3 (values 450,500,550). Out: 0 (100), 4 (900).
	o := New([]float64{100, 450, 500, 550, 900})
	rng := query.NewRange(400, 600)

	fp, fm := o.FractionStats([]int{1, 2, 3}, rng)
	if fp != 0 || fm != 0 {
		t.Fatalf("exact answer F+=%v F-=%v", fp, fm)
	}
	// One false positive (id 0), one false negative (id 3 missing).
	fp, fm = o.FractionStats([]int{0, 1, 2}, rng)
	if fp != 1.0/3 {
		t.Fatalf("F+ = %v, want 1/3", fp)
	}
	// |A|-E+ + E- = 2 + 1 = 3.
	if fm != 1.0/3 {
		t.Fatalf("F- = %v, want 1/3", fm)
	}
}

func TestFractionStatsEmptyAnswer(t *testing.T) {
	o := New([]float64{100, 900})
	rng := query.NewRange(400, 600)
	fp, fm := o.FractionStats(nil, rng)
	if fp != 0 || fm != 0 {
		t.Fatalf("empty answer over empty truth: F+=%v F-=%v", fp, fm)
	}
	o.Apply(0, 500)
	fp, fm = o.FractionStats(nil, rng)
	if fp != 0 || fm != 1 {
		t.Fatalf("empty answer with truth present: F+=%v F-=%v, want 0,1", fp, fm)
	}
}

func TestCheckFractionRange(t *testing.T) {
	o := New([]float64{100, 450, 500, 550, 900})
	rng := query.NewRange(400, 600)
	tol := core.FractionTolerance{EpsPlus: 0.4, EpsMinus: 0.4}
	if err := o.CheckFractionRange([]int{0, 1, 2}, rng, tol); err != nil {
		t.Fatalf("answer within tolerance rejected: %v", err)
	}
	tight := core.FractionTolerance{EpsPlus: 0.3, EpsMinus: 0.4}
	err := o.CheckFractionRange([]int{0, 1, 2}, rng, tight)
	if err == nil {
		t.Fatal("F+=1/3 accepted at ε+=0.3")
	}
	if !strings.Contains(err.Error(), "F⁺") {
		t.Fatalf("unexpected violation message: %v", err)
	}
}

func TestFractionStatsKNN(t *testing.T) {
	o := New([]float64{0, 10, 20, 30, 40})
	q := query.KNN{Q: query.At(0), K: 2}
	fp, fm := o.FractionStatsKNN([]int{0, 1}, q)
	if fp != 0 || fm != 0 {
		t.Fatalf("exact kNN answer F+=%v F-=%v", fp, fm)
	}
	// id 2 (rank 3) is a false positive; id 1 becomes a false negative.
	fp, fm = o.FractionStatsKNN([]int{0, 2}, q)
	if fp != 0.5 {
		t.Fatalf("F+ = %v, want 0.5", fp)
	}
	if fm != 0.5 {
		t.Fatalf("F- = %v, want 0.5", fm)
	}
}

func TestCheckFractionKNNSizeWindow(t *testing.T) {
	o := New([]float64{0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110})
	q := query.KNN{Q: query.At(0), K: 10}
	tol := core.FractionTolerance{EpsPlus: 0.1, EpsMinus: 0.1}
	// k(1-ε⁻)=9, k/(1-ε⁺)=11 → size 8 must fail regardless of content.
	if err := o.CheckFractionKNN([]int{0, 1, 2, 3, 4, 5, 6, 7}, q, tol); err == nil {
		t.Fatal("undersized kNN answer accepted")
	}
	// Size 11 with all of the true top-10 present: the 11th is a false
	// positive; F+ = 1/11 <= 0.1, F- = 0.
	ans := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if err := o.CheckFractionKNN(ans, q, tol); err != nil {
		t.Fatalf("paper's §3.4.1 example rejected: %v", err)
	}
}

func TestFractionKNNWithTiesBeyondK(t *testing.T) {
	// Three streams tied at the k-th distance: all satisfy favorably.
	o := New([]float64{0, 10, 10, 10})
	q := query.KNN{Q: query.At(0), K: 2}
	fp, fm := o.FractionStatsKNN([]int{0, 3}, q)
	if fp != 0 {
		t.Fatalf("tied member counted as false positive: F+=%v", fp)
	}
	// Satisfying = 4 (all), true positives = 2, E- = 2, F- = 2/4.
	if fm != 0.5 {
		t.Fatalf("F- = %v, want 0.5", fm)
	}
}

func TestViolationErrorString(t *testing.T) {
	v := &Violation{Reason: "boom"}
	if v.Error() != "oracle: boom" {
		t.Fatalf("Error() = %q", v.Error())
	}
}

// TestOracleMatchesBruteForceOnRandomAnswers scores the incremental oracle
// the way an approximate index is scored against exact search: random
// answers, and for each the verdict and the depth recomputed from a full
// rescan (or re-sort) of the truth. Fractions first, then the auditor's
// value-kNN and planar rank guarantees while the truth keeps moving.
func TestOracleMatchesBruteForceOnRandomAnswers(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	vals := make([]float64, 40)
	for i := range vals {
		vals[i] = float64(rng.Intn(100))
	}
	o := New(vals)
	r := query.NewRange(25, 75)
	for trial := 0; trial < 200; trial++ {
		// Random answer set.
		var ans []int
		for id := range vals {
			if rng.Intn(3) == 0 {
				ans = append(ans, id)
			}
		}
		fp, fm := o.FractionStats(ans, r)
		// Brute force.
		ePlus, sat := 0, 0
		inAns := map[int]bool{}
		for _, id := range ans {
			inAns[id] = true
			if !r.Contains(vals[id]) {
				ePlus++
			}
		}
		eMinus := 0
		for id, v := range vals {
			if r.Contains(v) {
				sat++
				if !inAns[id] {
					eMinus++
				}
			}
		}
		wantFP, wantFM := 0.0, 0.0
		if len(ans) > 0 {
			wantFP = float64(ePlus) / float64(len(ans))
		}
		if den := len(ans) - ePlus + eMinus; den > 0 {
			wantFM = float64(eMinus) / float64(den)
		} else if eMinus > 0 {
			wantFM = 1
		}
		if fp != wantFP || fm != wantFM {
			t.Fatalf("trial %d: got F+=%v F-=%v, want %v/%v", trial, fp, fm, wantFP, wantFM)
		}
	}

	// bruteRanks re-sorts the distances: each member's favorable rank (one
	// more than the streams strictly closer), and the k-th smallest distance.
	bruteRanks := func(dist []float64, ans []int, k int) (ranks []int, kth float64) {
		for _, id := range ans {
			rank := 1
			for _, d := range dist {
				if d < dist[id] {
					rank++
				}
			}
			ranks = append(ranks, rank)
		}
		sorted := append([]float64(nil), dist...)
		sort.Float64s(sorted)
		return ranks, sorted[k-1]
	}
	// randomAnswer draws k distinct streams, biased to the near ones so that
	// both verdicts occur; one trial in ten it is a member short.
	randomAnswer := func(dist []float64, k int) []int {
		byDist := make([]int, len(dist))
		for i := range byDist {
			byDist[i] = i
		}
		sort.Slice(byDist, func(a, b int) bool { return dist[byDist[a]] < dist[byDist[b]] })
		pool := byDist[:k+1+rng.Intn(2*k)]
		rng.Shuffle(len(pool), func(a, b int) { pool[a], pool[b] = pool[b], pool[a] })
		if rng.Intn(10) == 0 {
			return pool[:k-1]
		}
		return pool[:k]
	}
	const n, k = 60, 6

	t.Run("value-knn", func(t *testing.T) {
		const width = 12
		q := query.KNN{Q: query.At(50), K: k}
		x := make([]float64, n)
		for i := range x {
			x[i] = float64(rng.Intn(200))
		}
		a := NewAuditor(x, ValueKNN(q, width), 1)
		dist := make([]float64, n)
		worst, violations := 0, 0
		for trial := 0; trial < 300; trial++ {
			id := rng.Intn(n)
			x[id] = float64(rng.Intn(200))
			a.Apply(id, x[id], 0)
			for i, v := range x {
				dist[i] = q.Q.Dist(v)
			}
			ans := randomAnswer(dist, k)
			ranks, kth := bruteRanks(dist, ans, k)
			bad := len(ans) != k
			for i, id := range ans {
				worst = max(worst, ranks[i])
				bad = bad || dist[id] > kth+width
			}
			if bad {
				violations++
			}
			if err := a.Audit(uint64(trial), ans); (err != nil) != bad {
				t.Fatalf("trial %d: auditor said %v, brute force says violated=%v (answer %v)", trial, err, bad, ans)
			}
			if a.WorstRank != worst || a.Violations != violations || a.Checks != trial+1 {
				t.Fatalf("trial %d: tally %+v, brute force worst rank %d, %d violations", trial, a.Tally, worst, violations)
			}
		}
		if violations == 0 || violations == a.Checks {
			t.Fatalf("%d of %d trials violated: the cases do not exercise both verdicts", violations, a.Checks)
		}
	})

	t.Run("planar-rank", func(t *testing.T) {
		tol := core.RankTolerance{K: k, R: 3}
		at := filter.Point{X: 480, Y: 510}
		pts := make([]filter.Point, n)
		for i := range pts {
			pts[i] = filter.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
		}
		a := NewPlanarAuditor(pts, RankAround(at, tol), 1)
		dist := make([]float64, n)
		worst, violations := 0, 0
		for trial := 0; trial < 300; trial++ {
			id := rng.Intn(n)
			pts[id] = filter.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
			a.Apply(id, pts[id].X, pts[id].Y)
			for i, p := range pts {
				dist[i] = filter.Dist(p, at)
			}
			ans := randomAnswer(dist, k)
			ranks, _ := bruteRanks(dist, ans, k)
			bad := len(ans) != k
			for _, rank := range ranks {
				worst = max(worst, rank)
				bad = bad || rank > tol.Eps()
			}
			if bad {
				violations++
			}
			if err := a.Audit(uint64(trial), ans); (err != nil) != bad {
				t.Fatalf("trial %d: auditor said %v, brute force says violated=%v (answer %v)", trial, err, bad, ans)
			}
			if a.WorstRank != worst || a.Violations != violations {
				t.Fatalf("trial %d: tally %+v, brute force worst rank %d, %d violations", trial, a.Tally, worst, violations)
			}
		}
		if violations == 0 || violations == a.Checks {
			t.Fatalf("%d of %d trials violated: the cases do not exercise both verdicts", violations, a.Checks)
		}
	})
}
