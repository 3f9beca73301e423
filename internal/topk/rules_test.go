package topk

// The (distance, id) k-nearest order and the k-th distance as a Ranking
// yields them, held to tables and a brute-force sort (DESIGN.md §3.5).

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"adaptivefilters/internal/query"
)

// nearest returns up to k stream ids in (distance from q, id) order, as a
// Ranking selects them: only the streams marked in present (every
// stream when present is nil) are added. It returns nil when k <= 0 or no
// stream is present.
func nearest(vals []float64, present []bool, q query.Center, k int) []int {
	var r Ranking
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
// the k-th key of a Ranking loaded with every distance and ordered to
// k, as the oracle's k-NN checks read it. ok is false unless 1 <= k <= n.
func kthDist(vals []float64, q query.Center, k int) (float64, bool) {
	var r Ranking
	q.Dists(r.Load(len(vals)), vals)
	if k < 1 || k > len(vals) {
		return 0, false
	}
	_, keys := r.Order(k)
	return keys[k-1], true
}

func bruteKNearest(vals []float64, present []bool, q query.Center, k int) []int {
	type cand struct {
		id int
		d  float64
	}
	var cs []cand
	for id, v := range vals {
		if present != nil && !present[id] {
			continue
		}
		cs = append(cs, cand{id, q.Dist(v)})
	}
	sort.Slice(cs, func(i, j int) bool {
		if cs[i].d != cs[j].d {
			return cs[i].d < cs[j].d
		}
		return cs[i].id < cs[j].id
	})
	if k > len(cs) {
		k = len(cs)
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = cs[i].id
	}
	return out
}

func centers() []query.Center {
	return []query.Center{
		query.At(0), query.At(500), query.At(-3.5), query.Top(), query.Bottom(),
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

func TestKNearestAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(60)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = float64(rng.Intn(20)) // force ties
		}
		for _, q := range centers() {
			for _, k := range []int{1, 2, n / 2, n, n + 5} {
				got := nearest(vals, nil, q, k)
				want := bruteKNearest(vals, nil, q, k)
				if len(got) != len(want) {
					t.Fatalf("trial %d %v k=%d: len %d vs %d", trial, q, k, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("trial %d %v k=%d: got %v want %v (vals=%v)",
							trial, q, k, got, want, vals)
					}
				}
			}
		}
	}
}

func TestKthDist(t *testing.T) {
	vals := []float64{0, 10, 20, 30}
	q := query.At(0)
	if d, ok := kthDist(vals, q, 3); !ok || d != 20 {
		t.Fatalf("KthDist(3) = %v,%v; want 20,true", d, ok)
	}
	if _, ok := kthDist(vals, q, 5); ok {
		t.Fatal("KthDist beyond population returned ok")
	}
	if _, ok := kthDist(vals, q, 0); ok {
		t.Fatal("KthDist(0) returned ok")
	}
}
