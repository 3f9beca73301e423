package rankindex

import (
	"reflect"
	"testing"

	"adaptivefilters/internal/query"
)

// fixture: streams 0..5 at 10, 20, 30, 40, 50, 60.
func newIndex() *Index {
	return FromValues([]float64{10, 20, 30, 40, 50, 60})
}

// TestCountsTable drives CountRange/CountCloser/CountWithin across the
// three center kinds.
func TestCountsTable(t *testing.T) {
	ix := newIndex()
	cases := []struct {
		name string
		got  int
		want int
	}{
		{"range closed ends", ix.CountRange(20, 40), 3},
		{"range half-open miss", ix.CountRange(21, 29), 0},
		{"range everything", ix.CountRange(-1e18, 1e18), 6},
		{"range empty (lo>hi)", ix.CountRange(40, 20), 0},
		{"closer point", ix.CountCloser(query.At(35), 10), 2}, // 30, 40
		{"closer point boundary", ix.CountCloser(query.At(35), 5), 0},
		{"closer zero radius", ix.CountCloser(query.At(30), 0), 0},
		{"within point", ix.CountWithin(query.At(35), 5), 2}, // 30, 40
		{"within negative radius", ix.CountWithin(query.At(35), -1), 0},
		{"closer top", ix.CountCloser(query.Top(), -45), 2},      // 50, 60 (dist -v < -45)
		{"within top", ix.CountWithin(query.Top(), -50), 2},      // dist <= -50
		{"closer bottom", ix.CountCloser(query.Bottom(), 25), 2}, // 10, 20
		{"within bottom", ix.CountWithin(query.Bottom(), 20), 2},
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
// better rank.
func TestRankOfTies(t *testing.T) {
	ix := FromValues([]float64{10, 30, 30, 50})
	q := query.At(30)
	cases := []struct {
		id       int
		wantRank int
		wantOK   bool
	}{
		{1, 1, true}, // tied at distance 0
		{2, 1, true}, // shares the better rank
		{0, 3, true}, // two strictly closer
		{3, 3, true},
	}
	for _, tc := range cases {
		rank, ok := ix.RankOf(tc.id, q)
		if rank != tc.wantRank || ok != tc.wantOK {
			t.Fatalf("RankOf(%d) = (%d, %v), want (%d, %v)", tc.id, rank, ok, tc.wantRank, tc.wantOK)
		}
	}
	if _, ok := New(3).RankOf(0, q); ok {
		t.Fatal("RankOf on absent stream reported ok")
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
			got := FromValues(tc.vals).KNearest(tc.q, tc.k)
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("KNearest = %v, want %v", got, tc.want)
			}
		})
	}
}

// TestSetRemoveLifecycle checks presence bookkeeping through a move. (The
// index no longer removes streams; the name is the test's original one.)
func TestSetRemoveLifecycle(t *testing.T) {
	ix := New(4)
	if ix.Len() != 0 || ix.N() != 4 {
		t.Fatalf("fresh index Len=%d N=%d", ix.Len(), ix.N())
	}
	if _, ok := ix.Value(2); ok {
		t.Fatal("absent stream present")
	}
	ix.Set(2, 25)
	ix.Set(2, 35) // move
	if v, ok := ix.Value(2); !ok || v != 35 {
		t.Fatalf("Value(2) = (%v, %v)", v, ok)
	}
	if ix.Len() != 1 {
		t.Fatalf("Len = %d after move", ix.Len())
	}
	if got := ix.CountRange(30, 40); got != 1 {
		t.Fatalf("CountRange after move = %d", got)
	}
	if got := New(3).KNearest(query.At(0), 3); got != nil {
		t.Fatalf("KNearest on empty = %v", got)
	}
}

// TestKthDistAndMaxDist covers the distance accessor KthDist. (MaxDist had
// no caller and is gone; the name is the test's original one.)
func TestKthDistAndMaxDist(t *testing.T) {
	ix := newIndex()
	q := query.At(35)
	if d, ok := ix.KthDist(q, 2); !ok || d != 5 {
		t.Fatalf("KthDist(2) = (%v, %v), want (5, true)", d, ok)
	}
	if _, ok := ix.KthDist(q, 7); ok {
		t.Fatal("KthDist beyond size reported ok")
	}
	if _, ok := ix.KthDist(q, 0); ok {
		t.Fatal("KthDist(0) reported ok")
	}
}
