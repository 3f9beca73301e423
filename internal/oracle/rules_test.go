package oracle

// The ranking rules (DESIGN.md §3.5) held to a plain model: favorable ties,
// range and distance counts, and the (distance, id) k-nearest order the
// checks take from topk.Ranking. FuzzIndexOps plays Apply, rebuilds and
// probes against a brute-force model of the true values.

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"adaptivefilters/internal/core"
	"adaptivefilters/internal/query"
	"adaptivefilters/internal/topk"
)

// newSixChecker is a fixture: streams 0..5 at 10, 20, 30, 40, 50, 60.
func newSixChecker() *Checker {
	return New([]float64{10, 20, 30, 40, 50, 60})
}

// nearest returns up to k stream ids in (distance from q, id) order, as a
// topk.Ranking selects them: only the streams marked in present (every
// stream when present is nil) are added. It returns nil when k <= 0 or no
// stream is present.
func nearest(vals []float64, present []bool, q query.Center, k int) []int {
	var r topk.Ranking
	for id, v := range vals {
		if present == nil || present[id] {
			r.Add(id, q.Dist(v))
		}
	}
	ids, _ := r.Order(k)
	if k = min(k, len(ids)); k <= 0 {
		return nil
	}
	return ids[:k]
}

func centers() []query.Center {
	return []query.Center{
		query.At(0), query.At(500), query.At(-3.5), query.Top(), query.Bottom(),
	}
}

// TestCountsTable drives CountRange/CountCloser/CountWithin across the
// three center kinds.
func TestCountsTable(t *testing.T) {
	o := newSixChecker()
	cases := []struct {
		name string
		got  int
		want int
	}{
		{"range closed ends", o.CountRange(query.Range{Lo: 20, Hi: 40}), 3},
		{"range half-open miss", o.CountRange(query.Range{Lo: 21, Hi: 29}), 0},
		{"range everything", o.CountRange(query.Range{Lo: -1e18, Hi: 1e18}), 6},
		{"range empty (lo>hi)", o.CountRange(query.Range{Lo: 40, Hi: 20}), 0},
		{"closer point", o.CountCloser(query.At(35), 10), 2}, // 30, 40
		{"closer point boundary", o.CountCloser(query.At(35), 5), 0},
		{"closer zero radius", o.CountCloser(query.At(30), 0), 0},
		{"within point", o.CountWithin(query.At(35), 5), 2}, // 30, 40
		{"within negative radius", o.CountWithin(query.At(35), -1), 0},
		{"closer top", o.CountCloser(query.Top(), -45), 2},      // 50, 60 (dist -v < -45)
		{"within top", o.CountWithin(query.Top(), -50), 2},      // dist <= -50
		{"closer bottom", o.CountCloser(query.Bottom(), 25), 2}, // 10, 20
		{"within bottom", o.CountWithin(query.Bottom(), 20), 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.got != tc.want {
				t.Fatalf("got %d, want %d", tc.got, tc.want)
			}
		})
	}
}

// TestRankOfTies checks favorable tie ranking: equal distances share the
// better rank. A stream the oracle does not hold has no rank: an answer
// naming it is a violation.
func TestRankOfTies(t *testing.T) {
	o := New([]float64{10, 30, 30, 50})
	q := query.At(30)
	cases := []struct {
		id       int
		wantRank int
	}{
		{1, 1}, // tied at distance 0
		{2, 1}, // shares the better rank
		{0, 3}, // two strictly closer
		{3, 3},
	}
	for _, tc := range cases {
		if rank := o.RankOf(tc.id, q); rank != tc.wantRank {
			t.Fatalf("RankOf(%d) = %d, want %d", tc.id, rank, tc.wantRank)
		}
	}
	err := o.CheckRank([]int{4}, q, core.RankTolerance{K: 1, R: 3})
	var v *Violation
	if !errors.As(err, &v) || !strings.Contains(v.Reason, "unknown") {
		t.Fatalf("CheckRank of a stream the oracle does not hold = %v, want an unknown-stream violation", err)
	}
}

func TestCountRange(t *testing.T) {
	o := New([]float64{100, 200, 300, 400, 500})
	if got := o.CountRange(query.Range{Lo: 150, Hi: 450}); got != 3 {
		t.Fatalf("CountRange = %d, want 3", got)
	}
}

func TestRankOfAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(40)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = float64(rng.Intn(15))
		}
		o := New(vals)
		for _, q := range centers() {
			for id := 0; id < n; id++ {
				got := o.RankOf(id, q)
				want := 1
				for j := 0; j < n; j++ {
					if q.Dist(vals[j]) < q.Dist(vals[id]) {
						want++
					}
				}
				if got != want {
					t.Fatalf("trial %d %v RankOf(%d) = %d, want %d (vals=%v)",
						trial, q, id, got, want, vals)
				}
			}
		}
	}
}

func TestCountCloserAndWithin(t *testing.T) {
	o := New([]float64{0, 10, 20, 30, 40})
	q := query.At(20)
	if got := o.CountCloser(q, 10); got != 1 { // only 20 itself (dist 0)
		t.Fatalf("CountCloser(10) = %d, want 1", got)
	}
	if got := o.CountWithin(q, 10); got != 3 { // 10, 20, 30
		t.Fatalf("CountWithin(10) = %d, want 3", got)
	}
	if got := o.CountWithin(q, -1); got != 0 {
		t.Fatalf("CountWithin(-1) = %d, want 0", got)
	}
	top := query.Top()
	if got := o.CountCloser(top, top.Dist(20)); got != 2 { // 30, 40 strictly closer
		t.Fatalf("Top CountCloser = %d, want 2", got)
	}
	if got := o.CountWithin(top, top.Dist(20)); got != 3 {
		t.Fatalf("Top CountWithin = %d, want 3", got)
	}
	bot := query.Bottom()
	if got := o.CountCloser(bot, bot.Dist(20)); got != 2 { // 0, 10
		t.Fatalf("Bottom CountCloser = %d, want 2", got)
	}
}

// TestAbsentStreams checks that a stream not yet present takes no part in
// an answer: a ranking over the present streams leaves it out, and the
// oracle, which holds every stream, calls one beyond its n unknown.
func TestAbsentStreams(t *testing.T) {
	vals := []float64{0, 5, 0}
	if got := nearest(vals, []bool{false, true, false}, query.At(5), 3); len(got) != 1 || got[0] != 1 {
		t.Fatalf("KNearest over partial index = %v", got)
	}
	if err := New(vals).CheckRank([]int{3}, query.At(0), core.RankTolerance{K: 1, R: 2}); err == nil {
		t.Fatal("CheckRank of an absent stream returned ok")
	}
}

func TestQuickRankConsistentWithKNearest(t *testing.T) {
	// The id at position i of KNearest must have favorable rank <= i+1
	// (ties can only improve rank, never worsen it).
	f := func(raw []uint8, qsel uint8) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]float64, len(raw))
		for i, r := range raw {
			vals[i] = float64(r % 32)
		}
		o := New(vals)
		q := centers()[int(qsel)%len(centers())]
		order := nearest(vals, nil, q, len(vals))
		for i, id := range order {
			if o.RankOf(id, q) > i+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// FuzzIndexOps decodes a sequence of 9-byte ops (an op byte, then a
// big-endian float64 taken as is: NaN, ±Inf, ±0 and every finite value)
// and plays it against a brute-force model of the true values: op%3 is
// Apply, a rebuild of the checker from the model's values (New) or a
// probe, op>>4 picks the stream, and a probe's value becomes the point
// center and an extra count bound. After every op the whole query surface
// is compared with the model: counts and ranks from the definitions, the
// k nearest from a re-sort. The checked-in corpus
// (testdata/fuzz/FuzzIndexOps) includes a NaN Apply, which must panic.
func FuzzIndexOps(f *testing.F) {
	f.Add([]byte{0x00, 0x40, 0x24, 0, 0, 0, 0, 0, 0, 0x01, 0x40, 0x34, 0, 0, 0, 0, 0, 0})
	// NaN Apply: panics, leaving the truth as it was.
	f.Add([]byte{0x00, 0x7f, 0xf8, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		vals := make([]float64, fuzzStreams)
		o := New(vals)
		x := 0.0
		for ; len(data) >= 9; data = data[9:] {
			op := data[0]
			v := math.Float64frombits(binary.BigEndian.Uint64(data[1:9]))
			id := int(op >> 4)
			probe := math.NaN()
			switch op % 3 {
			case 0:
				if math.IsNaN(v) {
					mustPanic(t, "Apply(NaN)", func() { o.Apply(id, v) })
					break
				}
				o.Apply(id, v)
				vals[id] = v
			case 1:
				o = New(vals)
			default:
				probe = v
				if !math.IsNaN(v) && !math.IsInf(v, 0) {
					x = v
				}
			}
			checkIndex(t, o, vals, x, probe)
		}
	})
}

// checkIndex compares every query of o, and the k nearest of a ranking
// over the same values, with the brute-force answer over the model vals.
// The bounds and radii tried are every value and distance plus probe,
// which may be NaN.
func checkIndex(t *testing.T, o *Checker, vals []float64, x, probe float64) {
	t.Helper()
	for id, v := range vals {
		if got := o.Value(id); got != v {
			t.Fatalf("Value(%d) = %v, model %v", id, got, v)
		}
	}
	bounds := append([]float64{probe}, vals...)
	for _, lo := range bounds {
		for _, hi := range bounds {
			want := 0
			for _, v := range vals {
				if lo <= v && v <= hi {
					want++
				}
			}
			if got := o.CountRange(query.Range{Lo: lo, Hi: hi}); got != want {
				t.Fatalf("CountRange(%v, %v) = %d, model %d", lo, hi, got, want)
			}
		}
	}
	for _, q := range []query.Center{query.At(x), query.Top(), query.Bottom()} {
		radii := []float64{probe}
		for _, v := range vals {
			radii = append(radii, q.Dist(v))
		}
		for _, d := range radii {
			closer, within := 0, 0
			for _, v := range vals {
				if q.Dist(v) < d {
					closer++
				}
				if q.Dist(v) <= d {
					within++
				}
			}
			if got := o.CountCloser(q, d); got != closer {
				t.Fatalf("%v CountCloser(%v) = %d, model %d", q, d, got, closer)
			}
			if got := o.CountWithin(q, d); got != within {
				t.Fatalf("%v CountWithin(%v) = %d, model %d", q, d, got, within)
			}
		}
		for id := range vals {
			want := 1
			for _, v := range vals {
				if q.Dist(v) < q.Dist(vals[id]) {
					want++
				}
			}
			if rank := o.RankOf(id, q); rank != want {
				t.Fatalf("%v RankOf(%d) = %d, model %d", q, id, rank, want)
			}
		}
		order := make([]int, len(vals))
		for id := range order {
			order[id] = id
		}
		sort.Slice(order, func(a, b int) bool {
			da, db := q.Dist(vals[order[a]]), q.Dist(vals[order[b]])
			return da < db || da == db && order[a] < order[b]
		})
		for k := 0; k <= len(vals)+1; k++ {
			want := order[:min(k, len(order))]
			if len(want) == 0 {
				want = nil
			}
			if got := nearest(vals, nil, q, k); !reflect.DeepEqual(got, want) {
				t.Fatalf("%v KNearest(%d) = %v, model %v", q, k, got, want)
			}
		}
	}
}
