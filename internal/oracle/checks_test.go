package oracle

import (
	"math"
	"strings"
	"testing"

	"adaptivefilters/internal/core"
	"adaptivefilters/internal/query"
)

// fixture: values 100, 200, ..., 800 on streams 0..7.
func newChecker() *Checker {
	vals := make([]float64, 8)
	for i := range vals {
		vals[i] = float64((i + 1) * 100)
	}
	return New(vals)
}

// TestCheckRankTable drives Definition 1 through its accept/reject cases.
func TestCheckRankTable(t *testing.T) {
	cases := []struct {
		name    string
		q       query.Center
		tol     core.RankTolerance
		answer  []int
		wantErr string // substring; empty means valid
	}{
		{"exact top-k", query.At(0), core.RankTolerance{K: 2}, []int{0, 1}, ""},
		{"slack admits rank 3", query.At(0), core.RankTolerance{K: 2, R: 1}, []int{0, 2}, ""},
		{"beyond slack", query.At(0), core.RankTolerance{K: 2, R: 1}, []int{0, 3}, "true rank 4"},
		{"wrong size small", query.At(0), core.RankTolerance{K: 2}, []int{0}, "|A|=1"},
		{"wrong size big", query.At(0), core.RankTolerance{K: 2}, []int{0, 1, 2}, "|A|=3"},
		{"top-k center", query.Top(), core.RankTolerance{K: 2}, []int{6, 7}, ""},
		{"top-k wrong member", query.Top(), core.RankTolerance{K: 2}, []int{0, 7}, "true rank"},
		{"centered query", query.At(450), core.RankTolerance{K: 2}, []int{3, 4}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := newChecker().CheckRank(tc.answer, tc.q, tc.tol)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("CheckRank(%v) = %v, want ok", tc.answer, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("CheckRank(%v) = %v, want error containing %q", tc.answer, err, tc.wantErr)
			}
		})
	}
}

// TestFractionStatsTable drives Equations 1–2 through corner cases.
func TestFractionStatsTable(t *testing.T) {
	rng := query.NewRange(150, 450) // satisfied by 200, 300, 400 (streams 1,2,3)
	cases := []struct {
		name       string
		answer     []int
		wantFPlus  float64
		wantFMinus float64
	}{
		{"exact", []int{1, 2, 3}, 0, 0},
		{"one false positive", []int{1, 2, 3, 5}, 0.25, 0},
		{"one false negative", []int{1, 2}, 0, 1.0 / 3.0},
		{"mixed", []int{1, 2, 5}, 1.0 / 3.0, 1.0 / 3.0},
		{"empty answer, satisfiers exist", nil, 0, 1},
		{"all wrong", []int{0, 7}, 1, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fp, fm := newChecker().FractionStats(tc.answer, rng)
			if fp != tc.wantFPlus || fm != tc.wantFMinus {
				t.Fatalf("FractionStats(%v) = (%v, %v), want (%v, %v)",
					tc.answer, fp, fm, tc.wantFPlus, tc.wantFMinus)
			}
		})
	}
}

// TestFractionStatsEmptyWorld checks both fractions are zero when nothing
// satisfies the query and nothing is returned.
func TestFractionStatsEmptyWorld(t *testing.T) {
	fp, fm := newChecker().FractionStats(nil, query.NewRange(10000, 20000))
	if fp != 0 || fm != 0 {
		t.Fatalf("empty world fractions = (%v, %v), want (0, 0)", fp, fm)
	}
}

// TestCheckFractionKNNTable covers Definition 3 for k-NN including the
// Equations 7–10 answer-size window.
func TestCheckFractionKNNTable(t *testing.T) {
	q := query.KNN{Q: query.At(100), K: 4} // true 4-NN of 100: streams 0,1,2,3
	tol := core.FractionTolerance{EpsPlus: 0.25, EpsMinus: 0.25}
	cases := []struct {
		name    string
		answer  []int
		wantErr string
	}{
		{"exact", []int{0, 1, 2, 3}, ""},
		{"window too small", []int{0, 1}, "outside"},
		{"window too large", []int{0, 1, 2, 3, 4, 5, 6}, "outside"},
		{"tolerated false positive", []int{0, 1, 2, 7}, ""},
		{"excess false positives", []int{0, 1, 6, 7}, "F⁺"},
		{"tolerated false negative", []int{0, 1, 2}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := newChecker().CheckFractionKNN(tc.answer, q, tol)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("CheckFractionKNN(%v) = %v, want ok", tc.answer, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("CheckFractionKNN(%v) = %v, want error containing %q", tc.answer, err, tc.wantErr)
			}
		})
	}
}

// TestApplyMovesGroundTruth checks Apply/Value and that checks follow the
// moved world.
func TestApplyMovesGroundTruth(t *testing.T) {
	o := newChecker()
	if got := o.Value(0); got != 100 {
		t.Fatalf("Value(0) = %v", got)
	}
	rng := query.NewRange(150, 450)
	if err := o.CheckFractionRange([]int{1, 2, 3}, rng, core.FractionTolerance{}); err != nil {
		t.Fatal(err)
	}
	o.Apply(1, 9999) // stream 1 leaves the range
	if err := o.CheckFractionRange([]int{1, 2, 3}, rng, core.FractionTolerance{}); err == nil {
		t.Fatal("stale answer accepted after Apply")
	}
	if err := o.CheckFractionRange([]int{2, 3}, rng, core.FractionTolerance{}); err != nil {
		t.Fatal(err)
	}
	if len(o.vals) != 8 {
		t.Fatalf("checker holds %d streams, want 8", len(o.vals))
	}
}

// TestNaNTruthPanics checks the oracle refuses a NaN true value, at
// construction as on Apply, and keeps the value it had.
func TestNaNTruthPanics(t *testing.T) {
	mustPanic(t, "New with NaN", func() { New([]float64{1, math.NaN()}) })
	o := newChecker()
	mustPanic(t, "Apply(NaN)", func() { o.Apply(2, math.NaN()) })
	if got := o.Value(2); got != 300 {
		t.Fatalf("Value(2) = %v after a refused Apply, want 300", got)
	}
}

// TestViolationError checks the error type renders its reason.
func TestViolationError(t *testing.T) {
	v := &Violation{Reason: "rank: boom"}
	if got := v.Error(); got != "oracle: rank: boom" {
		t.Fatalf("Error() = %q", got)
	}
}

// TestBadMembersAreViolations holds every guarantee to an answer that lists
// distinct streams the oracle knows: a repeated or out-of-range member is a
// violation the auditor tallies, never a pass and never a panic.
func TestBadMembersAreViolations(t *testing.T) {
	vals := []float64{0, 1, 2, 3, 4, 5, 6, 7}
	loose := core.FractionTolerance{EpsPlus: 0.9, EpsMinus: 0.9}
	cases := []struct {
		name    string
		g       Guarantee
		answer  []int
		wantErr string
	}{
		{"rank repeated", Rank(query.At(0), core.RankTolerance{K: 3}), []int{0, 0, 0}, "stream 0 listed twice"},
		{"rank beyond n", Rank(query.At(0), core.RankTolerance{K: 3}), []int{0, 1, 8}, "stream 8 unknown"},
		{"rank negative", Rank(query.At(0), core.RankTolerance{K: 3, R: 5}), []int{-1, 1, 2}, "stream -1 unknown"},
		{"range repeated", FractionRange(query.NewRange(0, 2.5), core.FractionTolerance{}), []int{1, 1, 1}, "stream 1 listed twice"},
		{"range repeated, loose", FractionRange(query.NewRange(0, 2.5), loose), []int{0, 1, 1}, "stream 1 listed twice"},
		{"range beyond n", FractionRange(query.NewRange(0, 2.5), loose), []int{0, 1, 2, 9}, "stream 9 unknown"},
		{"knn repeated", FractionKNN(query.KNN{Q: query.At(0), K: 3}, loose), []int{0, 1, 1}, "stream 1 listed twice"},
		{"knn negative", FractionKNN(query.KNN{Q: query.At(0), K: 3}, loose), []int{0, 1, -2}, "stream -2 unknown"},
		{"value-knn repeated", ValueKNN(query.KNN{Q: query.Bottom(), K: 2}, 100), []int{1, 1}, "stream 1 listed twice"},
		{"value-knn beyond n", ValueKNN(query.KNN{Q: query.Bottom(), K: 2}, 100), []int{0, 99}, "stream 99 unknown"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := NewAuditor(vals, tc.g, 1)
			err := a.Audit(1, tc.answer)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Audit(%v) = %v, want a violation naming %q", tc.answer, err, tc.wantErr)
			}
			if a.Checks != 1 || a.Violations != 1 {
				t.Fatalf("tally %+v, want 1 check, 1 violation", a.Tally)
			}
		})
	}
	// The fractions count a repeat once: {1, 1, 1} holds one of the three
	// satisfying streams {0, 1, 2}.
	fp, fm := New(vals).FractionStats([]int{1, 1, 1}, query.NewRange(0, 2.5))
	if fp != 2.0/3 || fm != 2.0/3 {
		t.Fatalf("FractionStats of a repeated member = %v, %v, want 2/3, 2/3", fp, fm)
	}
}

// TestWarmAuditAllocatesNothing pins what the live gauge's sampled audit
// needs on the shard loop: once its scratch has grown, a passing audit of
// each guarantee allocates nothing.
func TestWarmAuditAllocatesNothing(t *testing.T) {
	vals := make([]float64, 200) // stream i at value i
	for i := range vals {
		vals[i] = float64(i)
	}
	tol := core.FractionTolerance{EpsPlus: 0.2, EpsMinus: 0.2}
	cases := []struct {
		name   string
		g      Guarantee
		answer []int
	}{
		{"rank", Rank(query.At(100), core.RankTolerance{K: 3, R: 1}), []int{100, 99, 101}},
		{"fraction-range", FractionRange(query.NewRange(10, 14), tol), []int{10, 11, 12, 13, 14}},
		{"fraction-knn", FractionKNN(query.KNN{Q: query.Top(), K: 4}, tol), []int{199, 198, 197, 196}},
		{"value-knn", ValueKNN(query.KNN{Q: query.Bottom(), K: 5}, 2), []int{0, 1, 2, 3, 4}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := NewAuditor(vals, tc.g, 1)
			if err := a.Audit(0, tc.answer); err != nil {
				t.Fatalf("true answer %v rejected: %v", tc.answer, err)
			}
			if allocs := testing.AllocsPerRun(100, func() { a.Audit(1, tc.answer) }); allocs != 0 {
				t.Fatalf("a warm passing audit allocates %v times, want 0", allocs)
			}
			if a.Violations != 0 {
				t.Fatalf("tally %+v, want no violation", a.Tally)
			}
		})
	}
}
