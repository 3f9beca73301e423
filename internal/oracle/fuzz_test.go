package oracle

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"adaptivefilters/internal/core"
	"adaptivefilters/internal/query"
)

// fuzzStreams is the stream count FuzzChecker and FuzzIndexOps play over:
// small, so values tie, answers repeat members and every op moves a stream
// that already has a value.
const fuzzStreams = 16

// FuzzChecker decodes a sequence of 9-byte ops (an op byte, then a
// big-endian float64 taken as is: NaN, ±Inf, ±0 and every finite value)
// and plays it against a plain model of the true values: op%4 is
//
//	0: Apply(op>>4, v); a NaN must panic and change nothing;
//	1: the answer becomes (op>>4)%9 ids, one per value byte, in −2..17, so
//	   out-of-range and repeated members are common;
//	2: v, if finite, becomes the point center and (op>>3)%18 the k;
//	3: the answer becomes the model's true k nearest to the point center.
//
// After every op every check is compared with the model: ranks counted
// from the definition (1 + the streams strictly closer), k-th distances
// from a re-sort, fractions from Equations 1–2 over plain scans. The
// checked-in corpus (testdata/fuzz/FuzzChecker) includes an Apply(NaN).
func FuzzChecker(f *testing.F) {
	op := func(code byte, v float64) []byte {
		return binary.BigEndian.AppendUint64([]byte{code}, math.Float64bits(v))
	}
	seq := func(ops ...[]byte) []byte {
		var b []byte
		for _, o := range ops {
			b = append(b, o...)
		}
		return b
	}
	// Ties around a point center, then the true answer and noisy ones:
	// ids 0 1 0 17 2 3 4 5 (a repeat, then one past n) and −1 0 1.
	f.Add(seq(op(0x10, 3), op(0x20, 5), op(0x30, 5), op(0x40, -0.5), op(0x22, 4),
		op(0x03, 0), op(0x81, math.Float64frombits(0x0203161304050607)),
		op(0x31, math.Float64frombits(0x0102030000000000))))
	// ±0, ±Inf and a huge value whose distance overflows; k = n, then
	// k = 0 and k > n.
	f.Add(seq(op(0x00, math.Copysign(0, -1)), op(0x10, math.Inf(1)), op(0x20, math.Inf(-1)),
		op(0x30, math.MaxFloat64), op(0x82, -math.MaxFloat64), op(0x83, 0), op(0x41, 1),
		op(0x02, 0), op(0x03, 0), op(0x8a, 0), op(0x03, 0)))
	// NaN Apply: panics, leaving the truth as it was.
	f.Add(op(0x00, math.NaN()))
	f.Fuzz(func(t *testing.T, data []byte) {
		o := New(make([]float64, fuzzStreams))
		vals := make([]float64, fuzzStreams)
		x, k := 0.0, 1
		var ans []int
		for ; len(data) >= 9; data = data[9:] {
			code, raw := data[0], data[1:9]
			v := math.Float64frombits(binary.BigEndian.Uint64(raw))
			switch code % 4 {
			case 0:
				id := int(code >> 4)
				if math.IsNaN(v) {
					mustPanic(t, "Apply(NaN)", func() { o.Apply(id, v) })
					break
				}
				o.Apply(id, v)
				vals[id] = v
			case 1:
				ans = ans[:0]
				for _, b := range raw[:int(code>>4)%9] {
					ans = append(ans, int(b%20)-2)
				}
			case 2:
				if !math.IsNaN(v) && !math.IsInf(v, 0) {
					x = v
				}
				k = int(code>>3) % (fuzzStreams + 2)
			default:
				ans = append(ans[:0], byDist(vals, query.At(x))[:min(k, fuzzStreams)]...)
			}
			checkChecker(t, o, vals, x, k, ans)
		}
	})
}

// byDist returns the stream ids ordered by (distance from q, id): the
// re-sort every ranking is checked against.
func byDist(vals []float64, q query.Center) []int {
	ids := make([]int, len(vals))
	for i := range ids {
		ids[i] = i
	}
	sort.Slice(ids, func(a, b int) bool {
		da, db := q.Dist(vals[ids[a]]), q.Dist(vals[ids[b]])
		return da < db || da == db && ids[a] < ids[b]
	})
	return ids
}

// model is the plain reading of an answer against the true values:
// its distinct in-range members and the first member that is not one.
type model struct {
	vals     []float64
	distinct []int
	bad      string
}

func newModel(vals []float64, ans []int) model {
	m := model{vals: vals}
	seen := map[int]bool{}
	for _, id := range ans {
		switch {
		case id < 0 || id >= len(vals):
			if m.bad == "" {
				m.bad = fmt.Sprintf("stream %d unknown", id)
			}
		case seen[id]:
			if m.bad == "" {
				m.bad = fmt.Sprintf("stream %d listed twice", id)
			}
		default:
			seen[id] = true
			m.distinct = append(m.distinct, id)
		}
	}
	return m
}

// rank is Definition 1's favorable rank of stream id around q.
func (m model) rank(id int, q query.Center) int {
	r := 1
	for _, v := range m.vals {
		if q.Dist(v) < q.Dist(m.vals[id]) {
			r++
		}
	}
	return r
}

// fractions is Equations 1–2 over an answer of aSize entries, for the
// streams sat reports satisfying the query.
func (m model) fractions(aSize int, sat func(id int) bool) (fPlus, fMinus float64) {
	satisfying, truePos := 0, 0
	for id := range m.vals {
		if sat(id) {
			satisfying++
		}
	}
	for _, id := range m.distinct {
		if sat(id) {
			truePos++
		}
	}
	ePlus, eMinus := aSize-truePos, satisfying-truePos
	if aSize > 0 {
		fPlus = float64(ePlus) / float64(aSize)
	}
	if den := aSize - ePlus + eMinus; den > 0 {
		fMinus = float64(eMinus) / float64(den)
	}
	return fPlus, fMinus
}

// checkVerdict fails unless err is a violation exactly when the model
// found a breach, and names the model's reason when one is given. The
// check is labelled what, a format with its arguments.
func checkVerdict(t *testing.T, err error, breach bool, reason string, what string, args ...any) {
	t.Helper()
	if (err != nil) != breach {
		t.Fatalf("%s: oracle says %v, model breach=%v", fmt.Sprintf(what, args...), err, breach)
	}
	if err != nil && reason != "" && !strings.Contains(err.Error(), reason) {
		t.Fatalf("%s: oracle says %v, model names %q", fmt.Sprintf(what, args...), err, reason)
	}
}

// checkChecker compares every check of o with the model over vals.
func checkChecker(t *testing.T, o *Checker, vals []float64, x float64, k int, ans []int) {
	t.Helper()
	for id, v := range vals {
		if got := o.Value(id); math.Float64bits(got) != math.Float64bits(v) {
			t.Fatalf("Value(%d) = %v, model %v", id, got, v)
		}
	}
	m := newModel(vals, ans)
	n := len(vals)
	for _, q := range []query.Center{query.At(x), query.Top(), query.Bottom()} {
		where := fmt.Sprintf("%v k=%d answer %v", q, k, ans)
		order := byDist(vals, q)
		kth := math.Inf(1) // k > n: every stream is among the k nearest
		if k >= 1 && k <= n {
			kth = q.Dist(vals[order[k-1]])
		}
		if got, _ := o.kthDist(q, k); k >= 1 && k < n && got != kth {
			t.Fatalf("%s: k-th distance %v, re-sort %v", where, got, kth)
		}
		sizeOr := func(reason string) string {
			if len(ans) != k {
				return "|A|"
			}
			return reason
		}

		// Definition 1, and the value guarantee's rank depth.
		worst := 0
		for _, id := range m.distinct {
			worst = max(worst, m.rank(id, q))
		}
		for _, r := range []int{0, 2} {
			tol := core.RankTolerance{K: k, R: r}
			got, err := o.worstRank(ans, q, tol)
			if got != worst {
				t.Fatalf("%s r=%d: worst rank %d, model %d", where, r, got, worst)
			}
			reason := sizeOr(m.bad)
			for _, id := range m.distinct {
				if rank := m.rank(id, q); reason == "" && rank > tol.Eps() {
					reason = fmt.Sprintf("stream %d has true rank %d", id, rank)
				}
			}
			checkVerdict(t, err, reason != "", reason, "%s r=%d: CheckRank", where, r)
		}

		// Definition 3 for k-NN: rank <= k satisfies, counted by rank.
		inKNN := func(id int) bool { return m.rank(id, q) <= k }
		wantFP, wantFM := m.fractions(len(ans), inKNN)
		knn := query.KNN{Q: q, K: k}
		if fp, fm := o.FractionStatsKNN(ans, knn); fp != wantFP || fm != wantFM {
			t.Fatalf("%s: FractionStatsKNN = %v, %v, model %v, %v", where, fp, fm, wantFP, wantFM)
		}
		tol := core.FractionTolerance{EpsPlus: 0.25, EpsMinus: 0.25}
		minA, maxA := tol.AnswerBounds(k)
		breach := len(ans) < minA || len(ans) > maxA || m.bad != "" || wantFP > 0.25 || wantFM > 0.25
		checkVerdict(t, o.CheckFractionKNN(ans, knn, tol), breach, "", "%s: CheckFractionKNN", where)

		// The value guarantee: no member beyond the k-th distance + width.
		const width = 1
		var tally Tally
		breach = len(ans) != k || m.bad != ""
		for _, id := range m.distinct {
			breach = breach || q.Dist(vals[id]) > kth+width
		}
		checkVerdict(t, ValueKNN(knn, width).check(o, ans, &tally), breach, sizeOr(m.bad), "%s: ValueKNN", where)
		if tally.WorstRank != worst {
			t.Fatalf("%s: ValueKNN worst rank %d, model %d", where, tally.WorstRank, worst)
		}
	}

	// Definition 3 for ranges, over every bound the values and x offer.
	bounds := append([]float64{x}, vals...)
	for _, lo := range bounds {
		for _, hi := range bounds {
			rng := query.NewRange(lo, hi)
			wantFP, wantFM := m.fractions(len(ans), func(id int) bool { return rng.Contains(vals[id]) })
			if fp, fm := o.FractionStats(ans, rng); fp != wantFP || fm != wantFM {
				t.Fatalf("%v answer %v: FractionStats = %v, %v, model %v, %v", rng, ans, fp, fm, wantFP, wantFM)
			}
			breach := m.bad != "" || wantFP > 0 || wantFM > 0
			checkVerdict(t, o.CheckFractionRange(ans, rng, core.FractionTolerance{}), breach, m.bad,
				"%v answer %v: CheckFractionRange", rng, ans)
		}
	}
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	fn()
}
