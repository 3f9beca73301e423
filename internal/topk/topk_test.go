package topk

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

type pair struct {
	id  int
	key float64
}

// reference is the full sort the kernel must be indistinguishable from on
// its ordered prefix: sort.Slice on (key, id).
func reference(ids []int, keys []float64) []pair {
	ps := make([]pair, len(ids))
	for i := range ids {
		ps[i] = pair{ids[i], keys[i]}
	}
	sort.Slice(ps, func(a, b int) bool {
		if ps[a].key != ps[b].key {
			return ps[a].key < ps[b].key
		}
		return ps[a].id < ps[b].id
	})
	return ps
}

// checkRanking asserts r's ordered prefix equals the reference's and that
// the whole ranking is still a permutation of the input pairs.
func checkRanking(t *testing.T, r *Ranking, want []pair, prefix int) {
	t.Helper()
	ids, keys := r.Order(0) // never shrinks: a plain read
	if r.Ordered() != prefix {
		t.Fatalf("Ordered() = %d, want %d", r.Ordered(), prefix)
	}
	checkSelected(t, ids, keys, want, prefix)
}

// checkSelected asserts the first prefix pairs of ids and keys are the
// reference's, bit for bit, and that all of them are still a permutation
// of the input pairs.
func checkSelected(t *testing.T, ids []int, keys []float64, want []pair, prefix int) {
	t.Helper()
	if len(ids) != len(want) || len(keys) != len(want) {
		t.Fatalf("ranking holds %d ids / %d keys, want %d", len(ids), len(keys), len(want))
	}
	for i := 0; i < prefix; i++ {
		if ids[i] != want[i].id || math.Float64bits(keys[i]) != math.Float64bits(want[i].key) {
			t.Fatalf("prefix[%d] = (%v, id %d), want (%v, id %d)", i, keys[i], ids[i], want[i].key, want[i].id)
		}
	}
	checkPermutation(t, ids, keys, want)
}

// checkPermutation asserts ids and keys hold each input pair exactly once.
// Ids are distinct, so "each id once, still with its own key bits" is the
// check, and it holds for NaN keys too.
func checkPermutation(t *testing.T, ids []int, keys []float64, want []pair) {
	t.Helper()
	keyOf := make(map[int]uint64, len(want))
	for _, p := range want {
		keyOf[p.id] = math.Float64bits(p.key)
	}
	seen := make(map[int]bool, len(want))
	for i, id := range ids {
		k, ok := keyOf[id]
		if !ok || seen[id] || k != math.Float64bits(keys[i]) {
			t.Fatalf("position %d holds (%v, id %d): not a permutation of the input", i, keys[i], id)
		}
		seen[id] = true
	}
}

// exercise fills a Ranking with the pairs and grows its ordered prefix
// through steps, checking every stage against the reference.
func exercise(t *testing.T, ids []int, keys []float64, steps []int) {
	t.Helper()
	want := reference(ids, keys)
	var r Ranking
	r.Reset()
	for i := range ids {
		r.Add(ids[i], keys[i])
	}
	prefix := 0
	checkRanking(t, &r, want, 0)
	for _, m := range steps {
		r.Order(m)
		if m > len(ids) {
			m = len(ids)
		}
		if m > prefix {
			prefix = m
		}
		checkRanking(t, &r, want, prefix)
	}
}

// edgeSteps is the m ladder the issue names: nothing, one, all but one,
// all, and past the end.
func edgeSteps(n int) []int { return []int{0, 1, n - 1, n, n + 5} }

func TestSelectMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	specials := []float64{math.Inf(-1), math.Inf(1), 0, math.Copysign(0, -1), 1, -1}
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(70)
		ids := rng.Perm(n + rng.Intn(5))[:n] // distinct, not necessarily 0..n-1
		keys := make([]float64, n)
		distinct := 1 + rng.Intn(n+1) // few distinct keys → long id-tie runs
		for i := range keys {
			if rng.Intn(8) == 0 {
				keys[i] = specials[rng.Intn(len(specials))]
			} else {
				keys[i] = float64(rng.Intn(distinct))
			}
		}
		// One shot at every m of the ladder…
		for _, m := range edgeSteps(n) {
			exercise(t, ids, keys, []int{m})
		}
		// …and growth in several random steps, then to the end.
		steps := []int{rng.Intn(n + 2), rng.Intn(n + 2), rng.Intn(n + 2), n + 5}
		sort.Ints(steps[:3])
		exercise(t, ids, keys, steps)
	}
}

// TestSelectOnCallerSlices covers the raw form pickKeyed uses:
// caller-owned slices, a keys slice longer than ids, and extension of a
// prefix by selecting on the tail.
func TestSelectOnCallerSlices(t *testing.T) {
	ids := []int{7, 3, 9, 1, 5, 8}
	keys := []float64{2, 2, 1, 5, 2, 0, 99, 99}
	want := reference(ids, keys[:len(ids)])
	Select(ids, keys, 2)
	Select(ids[2:], keys[2:], 2)
	for i := 0; i < 4; i++ {
		if ids[i] != want[i].id || keys[i] != want[i].key {
			t.Fatalf("after 2+2: position %d = (%v, id %d), want (%v, id %d)", i, keys[i], ids[i], want[i].key, want[i].id)
		}
	}
	if keys[6] != 99 || keys[7] != 99 {
		t.Fatal("Select touched keys beyond len(ids)")
	}
	Select(nil, nil, 3) // empty input is a no-op
	Select(ids, keys, -1)
}

// layout is one n-pair input the threshold pass is held to the reference
// on; set fills ids (already 0..n−1) and keys.
type layout struct {
	name string
	set  func(ids []int, keys []float64)
}

// layouts returns random keys, ascending and descending keys, all-equal
// keys with descending ids (so every tie resolves by id), a mix of ±Inf
// and ±0 keys, and "stride", which gives the positions the sample reads
// the smallest keys so that few others fall at or below the threshold.
func layouts(n int, rng *rand.Rand) []layout {
	return []layout{
		{"random", func(ids []int, keys []float64) {
			fill(keys, func(int) float64 { return rng.Float64() })
		}},
		{"ascending", func(ids []int, keys []float64) { fill(keys, func(i int) float64 { return float64(i) }) }},
		{"descending", func(ids []int, keys []float64) { fill(keys, func(i int) float64 { return float64(n - i) }) }},
		{"equal", func(ids []int, keys []float64) {
			fill(keys, func(int) float64 { return 1 })
			for i := range ids {
				ids[i] = n - 1 - i
			}
		}},
		{"inf-zero", func(ids []int, keys []float64) {
			specials := []float64{math.Inf(-1), math.Inf(1), 0, math.Copysign(0, -1)}
			fill(keys, func(int) float64 { return specials[rng.Intn(len(specials))] })
		}},
		{"stride", func(ids []int, keys []float64) {
			fill(keys, func(i int) float64 { return float64(sampleSize + i) })
			for j := range sampleSize {
				keys[j*(n/sampleSize)] = float64(j)
			}
		}},
	}
}

func fill(keys []float64, key func(i int) float64) {
	for i := range keys {
		keys[i] = key(i)
	}
}

// TestSelectLayouts holds Select to the sort.Slice reference at sizes the
// threshold pass runs at, for every layout and for m at the benchmark's
// prefixes, at the n/8 edge of the pruned regime and at a full sort: the
// ordered prefix must be the reference's and the rest a permutation. It
// also checks which path each case takes: the random layouts are pruned
// (at least m candidates), the stride layout falls back to the heap over
// all n once m passes its few candidates, and m past n/8 is not pruned.
func TestSelectLayouts(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{1000, 2000, 4096} {
		for _, m := range []int{1, 11, 21, 26, 52, n / 8, n/8 + 1, n} {
			for _, l := range layouts(n, rng) {
				ids, keys := make([]int, n), make([]float64, n)
				for i := range ids {
					ids[i] = i
				}
				l.set(ids, keys)
				name := l.name
				want := reference(ids, keys)
				c := prune(slices.Clone(ids), slices.Clone(keys), m)
				switch {
				case 8*m > n:
					if c != 0 {
						t.Errorf("n=%d m=%d %s: pruned to %d candidates past n/8", n, m, name, c)
					}
				case name == "random" && c < m:
					t.Errorf("n=%d m=%d random: %d candidates, want the pruned path (at least m)", n, m, c)
				case name == "stride" && m > 1 && c >= m:
					t.Errorf("n=%d m=%d stride: %d candidates, want the fallback (fewer than m)", n, m, c)
				}
				Select(ids, keys, m)
				checkSelected(t, ids, keys, want, min(m, n))
			}
		}
	}
}

// TestOrderPanicsOnLoadedNaN: a NaN key that a Load fill put past Add's
// check panics the first Order over it, on the heap path (small n) and on
// the pruned path, with the NaN between the sample points or on one.
func TestOrderPanicsOnLoadedNaN(t *testing.T) {
	for _, tc := range []struct{ n, at int }{{3, 1}, {1000, 7}, {1000, 15 * 3}, {2000, 1999}} {
		func() {
			defer func() {
				if r := recover(); r != "topk: NaN key in rank table" {
					t.Errorf("n=%d NaN at %d: Order panicked with %v", tc.n, tc.at, r)
				}
			}()
			var r Ranking
			keys := r.Load(tc.n)
			fill(keys, func(i int) float64 { return float64(i % 17) })
			keys[tc.at] = math.NaN()
			r.Order(1)
		}()
	}
}

func TestAddPanicsOnNaN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NaN key did not panic the fill")
		}
	}()
	var r Ranking
	r.Add(0, 1)
	r.Add(1, math.NaN())
}

// TestLoadMatchesAdd fills one ranking through Load and another through
// Reset + Add with the same dense ids and keys, reusing both across rounds
// of different sizes (so Load must restore ids a previous Order permuted),
// and expects the same ordered prefixes at every step.
func TestLoadMatchesAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var loaded, added Ranking
	for _, n := range []int{40, 7, 64, 1, 0, 40} {
		keys := loaded.Load(n)
		if len(keys) != n {
			t.Fatalf("Load(%d) returned %d keys", n, len(keys))
		}
		added.Reset()
		for i := range keys {
			keys[i] = float64(rng.Intn(8)) // ties are common
			added.Add(i, keys[i])
		}
		for _, m := range edgeSteps(n) {
			lids, lkeys := loaded.Order(m)
			aids, akeys := added.Order(m)
			for i := 0; i < loaded.Ordered(); i++ {
				if lids[i] != aids[i] || lkeys[i] != akeys[i] {
					t.Fatalf("n=%d m=%d position %d: Load gives (%v, %d), Add gives (%v, %d)",
						n, m, i, lkeys[i], lids[i], akeys[i], aids[i])
				}
			}
		}
	}
}

// TestLoadRestoresIdentity fills one ranking through a sequence of Load,
// Order and Add at growing and shrinking sizes, and after every Load
// expects the ids to be exactly 0..n−1: Load → Load keeps them without a
// rewrite, and Load → Order → Load or Add → Load must restore what the
// Order or Add moved, also past the previous fill's length.
func TestLoadRestoresIdentity(t *testing.T) {
	const keep, order, add = 0, 1, 2
	var r Ranking
	for step, tc := range []struct{ n, then int }{
		{12, keep}, {12, keep}, {3, add}, {9, order}, {9, keep},
		{2, keep}, {16, keep}, {5, add}, {16, order}, {0, keep},
	} {
		n := tc.n
		keys := r.Load(n)
		if len(keys) != n || len(r.ids) != n || r.Ordered() != 0 {
			t.Fatalf("step %d: Load(%d) gives %d keys, %d ids, %d ordered", step, n, len(keys), len(r.ids), r.Ordered())
		}
		for i, id := range r.ids {
			if id != i {
				t.Fatalf("step %d: after Load(%d) position %d holds id %d", step, n, i, id)
			}
		}
		for i := range keys {
			keys[i] = float64(n - i)
		}
		switch tc.then {
		case order: // reversed keys, so the order moves every id
			ids, _ := r.Order(n)
			for i, id := range ids {
				if id != n-1-i {
					t.Fatalf("step %d: Order(%d) position %d holds id %d", step, n, i, id)
				}
			}
		case add: // lands on position n, which the next, larger Load reuses
			r.Add(n+1, 1)
		}
	}
}

// TestWarmRankingAllocatesNothing pins the reason the kernel is concrete:
// a refill, a partial order, a growth step, a full order and a Load on
// warmed buffers allocate nothing.
func TestWarmRankingAllocatesNothing(t *testing.T) {
	const n = 512
	rng := rand.New(rand.NewSource(2))
	keys := make([]float64, n)
	for i := range keys {
		keys[i] = rng.Float64()
	}
	var r Ranking
	round := func() {
		r.Reset()
		for i, k := range keys {
			r.Add(i, k)
		}
		r.Order(26)
		r.Order(52)
		r.Order(n)
		copy(r.Load(n), keys)
		r.Order(26)
	}
	round()
	if allocs := testing.AllocsPerRun(20, round); allocs != 0 {
		t.Fatalf("warm Ranking allocates %v times per round, want 0", allocs)
	}
}

// FuzzSelectTop decodes (n, a ladder of growth steps, then per-pair key
// bytes, tiled to n) and checks the prefix against the sort.Slice
// reference at every step, that the slices stay a permutation, that
// Select reports a NaN key, and that a NaN key panics the fill. Keys are
// drawn from a small alphabet so duplicate keys and ±Inf are the common
// case, not the rare one. A first byte of 96 or more means n = pruneMin +
// 8·(byte − 96), which puts the small steps in the pruned regime, and the
// tiled bytes make periodic layouts that can hide the smallest keys
// between the sample points.
func FuzzSelectTop(f *testing.F) {
	f.Add([]byte{5, 0, 1, 4, 5, 10, 3, 3, 1, 0, 2})
	f.Add([]byte{8, 2, 2, 9, 0, 200, 7, 7, 7, 7, 251, 252, 7, 7})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 253})
	f.Add([]byte{0, 1, 2, 3})
	f.Add([]byte{3, 1, 2, 3, 255, 1, 254, 2})
	f.Add([]byte{96, 1, 21, 26, 52, 64, 5, 3, 6, 0, 2, 4, 1, 6})
	f.Add([]byte{200, 16, 40, 2, 9, 130, 253, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 0})
	f.Add([]byte{97, 1, 3, 30, 5, 7, 255, 4, 4, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		n := int(data[0])
		if n >= 96 {
			n = pruneMin + 8*(n-96)
		}
		data = data[1:]
		var steps []int
		for i := 0; i < 5 && len(data) > 0; i++ {
			steps = append(steps, int(data[0])%(n+6))
			data = data[1:]
		}
		ids := make([]int, n)
		keys := make([]float64, n)
		hasNaN := false
		for i := range ids {
			ids[i] = n - 1 - i // descending ids: ties must still resolve ascending
			var b byte
			j := 0
			if len(data) > 0 {
				j = i % len(data)
				b = data[j]
			}
			switch {
			case b == 255:
				keys[i] = math.NaN()
				hasNaN = true
			case b == 254:
				keys[i] = math.Inf(1)
			case b == 253:
				keys[i] = math.Inf(-1)
			case b >= 248 && j+8 < len(data):
				// Raw bits for the occasional arbitrary float.
				keys[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[j+1:]))
				hasNaN = hasNaN || keys[i] != keys[i]
			default:
				keys[i] = float64(b % 7)
			}
		}
		if hasNaN {
			want := reference(ids, keys) // a NaN scrambles its order; only the pairs matter
			for _, m := range append(steps, edgeSteps(n)...) {
				sids, skeys := slices.Clone(ids), slices.Clone(keys)
				if got := Select(sids, skeys, m); got != (m >= 1) {
					t.Fatalf("Select(m=%d) reported NaN %v, want %v", m, got, m >= 1)
				}
				checkPermutation(t, sids, skeys, want)
			}
			defer func() {
				if recover() == nil {
					t.Fatal("NaN key did not panic the fill")
				}
			}()
			var r Ranking
			for i := range ids {
				r.Add(ids[i], keys[i])
			}
			return
		}
		exercise(t, ids, keys, append(steps, edgeSteps(n)...))
		for _, m := range edgeSteps(n) {
			exercise(t, ids, keys, []int{m})
		}
	})
}
