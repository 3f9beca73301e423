package rankindex

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"adaptivefilters/internal/query"
)

// TestSetRemoveHasValue checks presence and value bookkeeping through an
// insert and a move. (The index no longer removes streams; the name is the
// test's original one.)
func TestSetRemoveHasValue(t *testing.T) {
	ix := New(5)
	if ix.Len() != 0 || ix.N() != 5 {
		t.Fatalf("fresh index Len/N = %d/%d", ix.Len(), ix.N())
	}
	if _, ok := ix.Value(2); ok {
		t.Fatal("absent stream present")
	}
	ix.Set(2, 7)
	if v, ok := ix.Value(2); !ok || v != 7 || ix.Len() != 1 {
		t.Fatalf("Value(2) = %v,%v, Len %d", v, ok, ix.Len())
	}
	ix.Set(2, 9) // move
	if v, _ := ix.Value(2); v != 9 || ix.Len() != 1 {
		t.Fatalf("move failed: v=%v len=%d", v, ix.Len())
	}
}

func TestFromValues(t *testing.T) {
	ix := FromValues([]float64{3, 1, 2})
	if ix.Len() != 3 {
		t.Fatalf("Len = %d", ix.Len())
	}
	if got := ix.KNearest(query.Bottom(), 3); got[0] != 1 || got[1] != 2 || got[2] != 0 {
		t.Fatalf("KNearest(Bottom) = %v", got)
	}
}

// TestLoad checks the bulk load against the same streams set one by one:
// a load replaces everything, and a rejected one changes nothing.
func TestLoad(t *testing.T) {
	vals := []float64{5, 1, 5, -0.0, 0, 3}
	ix, ref := New(len(vals)), New(len(vals))
	ix.Set(1, 99) // replaced by the load
	ix.Load(vals)
	for id, v := range vals {
		ref.Set(id, v)
	}
	if !reflect.DeepEqual(ix.keys, ref.keys) || !reflect.DeepEqual(ix.present, ref.present) {
		t.Fatalf("Load keys %v present %v, Set gives %v %v", ix.keys, ix.present, ref.keys, ref.present)
	}
	mustPanic(t, "Load(NaN)", func() { ix.Load([]float64{0, 0, 0, math.NaN(), 0, 0}) })
	mustPanic(t, "Load(short)", func() { ix.Load(vals[:2]) })
	if !reflect.DeepEqual(ix.keys, ref.keys) {
		t.Fatalf("a rejected Load changed the index: %v", ix.keys)
	}
}

func TestCountRange(t *testing.T) {
	ix := FromValues([]float64{100, 200, 300, 400, 500})
	if got := ix.CountRange(150, 450); got != 3 {
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
		ix := FromValues(vals)
		for _, q := range centers() {
			for _, k := range []int{1, 2, n / 2, n, n + 5} {
				got := ix.KNearest(q, k)
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
		ix := FromValues(vals)
		for _, q := range centers() {
			for id := 0; id < n; id++ {
				got, ok := ix.RankOf(id, q)
				if !ok {
					t.Fatalf("RankOf(%d) not ok", id)
				}
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
	vals := []float64{0, 10, 20, 30, 40}
	ix := FromValues(vals)
	q := query.At(20)
	if got := ix.CountCloser(q, 10); got != 1 { // only 20 itself (dist 0)
		t.Fatalf("CountCloser(10) = %d, want 1", got)
	}
	if got := ix.CountWithin(q, 10); got != 3 { // 10, 20, 30
		t.Fatalf("CountWithin(10) = %d, want 3", got)
	}
	if got := ix.CountWithin(q, -1); got != 0 {
		t.Fatalf("CountWithin(-1) = %d, want 0", got)
	}
	top := query.Top()
	if got := ix.CountCloser(top, top.Dist(20)); got != 2 { // 30, 40 strictly closer
		t.Fatalf("Top CountCloser = %d, want 2", got)
	}
	if got := ix.CountWithin(top, top.Dist(20)); got != 3 {
		t.Fatalf("Top CountWithin = %d, want 3", got)
	}
	bot := query.Bottom()
	if got := ix.CountCloser(bot, bot.Dist(20)); got != 2 { // 0, 10
		t.Fatalf("Bottom CountCloser = %d, want 2", got)
	}
}

func TestKthDist(t *testing.T) {
	ix := FromValues([]float64{0, 10, 20, 30})
	q := query.At(0)
	if d, ok := ix.KthDist(q, 3); !ok || d != 20 {
		t.Fatalf("KthDist(3) = %v,%v; want 20,true", d, ok)
	}
	if _, ok := ix.KthDist(q, 5); ok {
		t.Fatal("KthDist beyond population returned ok")
	}
	if _, ok := ix.KthDist(q, 0); ok {
		t.Fatal("KthDist(0) returned ok")
	}
}

func TestAbsentStreams(t *testing.T) {
	ix := New(3)
	ix.Set(1, 5)
	if _, ok := ix.RankOf(0, query.At(0)); ok {
		t.Fatal("RankOf absent stream returned ok")
	}
	got := ix.KNearest(query.At(5), 3)
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("KNearest over partial index = %v", got)
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
		ix := FromValues(vals)
		q := centers()[int(qsel)%len(centers())]
		order := ix.KNearest(q, len(vals))
		for i, id := range order {
			rank, ok := ix.RankOf(id, q)
			if !ok || rank > i+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}
