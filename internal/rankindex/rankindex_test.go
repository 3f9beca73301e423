package rankindex

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"adaptivefilters/internal/core"
	"adaptivefilters/internal/oracle"
	"adaptivefilters/internal/query"
)

func TestCountRange(t *testing.T) {
	o := oracle.New([]float64{100, 200, 300, 400, 500})
	if got := o.CountRange(query.Range{Lo: 150, Hi: 450}); got != 3 {
		t.Fatalf("CountRange = %d, want 3", got)
	}
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

func TestRankOfAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(40)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = float64(rng.Intn(15))
		}
		o := oracle.New(vals)
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
	o := oracle.New([]float64{0, 10, 20, 30, 40})
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

// TestAbsentStreams checks that a stream not yet present takes no part in
// an answer: a ranking over the present streams leaves it out, and the
// oracle, which holds every stream, calls one beyond its n unknown.
func TestAbsentStreams(t *testing.T) {
	vals := []float64{0, 5, 0}
	if got := nearest(vals, []bool{false, true, false}, query.At(5), 3); len(got) != 1 || got[0] != 1 {
		t.Fatalf("KNearest over partial index = %v", got)
	}
	if err := oracle.New(vals).CheckRank([]int{3}, query.At(0), core.RankTolerance{K: 1, R: 2}); err == nil {
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
		o := oracle.New(vals)
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
