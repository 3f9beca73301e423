package topk

import (
	"encoding/binary"
	"math"
	"math/rand"
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
	if len(ids) != len(want) || len(keys) != len(want) {
		t.Fatalf("ranking holds %d ids / %d keys, want %d", len(ids), len(keys), len(want))
	}
	for i := 0; i < prefix; i++ {
		if ids[i] != want[i].id || keys[i] != want[i].key {
			t.Fatalf("prefix[%d] = (%v, id %d), want (%v, id %d)", i, keys[i], ids[i], want[i].key, want[i].id)
		}
	}
	// Ids are distinct, so "each id once, still with its own key" is the
	// permutation check.
	keyOf := make(map[int]float64, len(want))
	for _, p := range want {
		keyOf[p.id] = p.key
	}
	seen := make(map[int]bool, len(want))
	for i, id := range ids {
		k, ok := keyOf[id]
		if !ok || seen[id] || k != keys[i] {
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
// bytes) and checks the prefix against the sort.Slice reference at every
// step, that the slices stay a permutation, and that a NaN key panics the
// fill. Keys are drawn from a small alphabet so duplicate keys and ±Inf
// are the common case, not the rare one.
func FuzzSelectTop(f *testing.F) {
	f.Add([]byte{5, 0, 1, 4, 5, 10, 3, 3, 1, 0, 2})
	f.Add([]byte{8, 2, 2, 9, 0, 200, 7, 7, 7, 7, 251, 252, 7, 7})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 253})
	f.Add([]byte{0, 1, 2, 3})
	f.Add([]byte{3, 1, 2, 3, 255, 1, 254, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		n := int(data[0]) % 96
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
			if i < len(data) {
				b = data[i]
			}
			switch {
			case b == 255:
				keys[i] = math.NaN()
				hasNaN = true
			case b == 254:
				keys[i] = math.Inf(1)
			case b == 253:
				keys[i] = math.Inf(-1)
			case b >= 248 && i+8 < len(data):
				// Raw bits for the occasional arbitrary float.
				keys[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[i+1:]))
				hasNaN = hasNaN || keys[i] != keys[i]
			default:
				keys[i] = float64(b % 7)
			}
		}
		if hasNaN {
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
