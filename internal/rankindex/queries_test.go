// Package rankindex holds the tests of the ranking rules (DESIGN.md §3.5):
// favorable ties, the (distance, id) k-nearest order, and range and
// distance counts. They run against the code that applies those rules:
// oracle.Checker's ranks and counts, and the topk.Ranking order from which
// k-NN answers and the oracle's k-th distance are taken. The package has
// no code of its own, and nothing imports it.
package rankindex

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"adaptivefilters/internal/core"
	"adaptivefilters/internal/oracle"
	"adaptivefilters/internal/query"
	"adaptivefilters/internal/topk"
)

// fixture: streams 0..5 at 10, 20, 30, 40, 50, 60.
func newChecker() *oracle.Checker {
	return oracle.New([]float64{10, 20, 30, 40, 50, 60})
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

// kthDist returns the distance from q of the k-th nearest stream (1-based),
// the k-th key of a topk.Ranking loaded with every distance and ordered to
// k, as the oracle's k-NN checks read it. ok is false unless 1 <= k <= n.
func kthDist(vals []float64, q query.Center, k int) (float64, bool) {
	var r topk.Ranking
	q.Dists(r.Load(len(vals)), vals)
	if k < 1 || k > len(vals) {
		return 0, false
	}
	_, keys := r.Order(k)
	return keys[k-1], true
}

// TestCountsTable drives CountRange/CountCloser/CountWithin across the
// three center kinds.
func TestCountsTable(t *testing.T) {
	o := newChecker()
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
	o := oracle.New([]float64{10, 30, 30, 50})
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
	var v *oracle.Violation
	if !errors.As(err, &v) || !strings.Contains(v.Reason, "unknown") {
		t.Fatalf("CheckRank of a stream the oracle does not hold = %v, want an unknown-stream violation", err)
	}
}

// TestKNearestTable checks deterministic k-NN order for all center kinds,
// including tie resolution by id.
func TestKNearestTable(t *testing.T) {
	cases := []struct {
		name string
		vals []float64
		q    query.Center
		k    int
		want []int
	}{
		{"point basic", []float64{10, 20, 30, 40, 50, 60}, query.At(35), 3, []int{2, 3, 1}},
		{"point tie by id", []float64{30, 40, 30, 40}, query.At(35), 4, []int{0, 1, 2, 3}},
		{"top-k", []float64{10, 20, 30, 40, 50, 60}, query.Top(), 2, []int{5, 4}},
		{"top-k boundary tie", []float64{60, 10, 60, 60}, query.Top(), 2, []int{0, 2}},
		{"bottom-k", []float64{10, 20, 30, 40, 50, 60}, query.Bottom(), 2, []int{0, 1}},
		{"k beyond size", []float64{10, 20}, query.At(0), 5, []int{0, 1}},
		{"k zero", []float64{10, 20}, query.At(0), 0, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := nearest(tc.vals, nil, tc.q, tc.k)
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("KNearest = %v, want %v", got, tc.want)
			}
		})
	}
}

// TestKthDistAndMaxDist covers the k-th distance. (MaxDist had no caller
// and is gone; the name is the test's original one.)
func TestKthDistAndMaxDist(t *testing.T) {
	vals := []float64{10, 20, 30, 40, 50, 60}
	q := query.At(35)
	if d, ok := kthDist(vals, q, 2); !ok || d != 5 {
		t.Fatalf("KthDist(2) = (%v, %v), want (5, true)", d, ok)
	}
	if _, ok := kthDist(vals, q, 7); ok {
		t.Fatal("KthDist beyond size reported ok")
	}
	if _, ok := kthDist(vals, q, 0); ok {
		t.Fatal("KthDist(0) reported ok")
	}
}
