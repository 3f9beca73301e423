// Package topk is the partial-selection kernel behind every distance
// ranking in the repository: the rank protocols of internal/core, on the
// line and in the plane, the k-NN baselines' answers, and the oracle's
// k-th distance at check time (internal/oracle).
//
// Figure 5's Deploy_bound needs the (k+r)-th and (k+r+1)-st distances and
// nothing past them, so a rebuild asks for the m nearest of n streams, not
// for the whole order: Select places the m smallest (key, id) pairs sorted
// at the front and leaves the rest as an unordered permutation. A bounded
// max-heap of m pairs does the ordering. When m is small beside n, Select
// first draws a threshold t from a strided sample of the keys, sized so
// that at least m keys almost always lie at or below t, moves every
// pair with key ≤ t to the front in one compare-per-key pass, and heaps only
// those c candidates: n compares plus O(c log m), with c a small multiple
// of m. If fewer than m keys are at or below t (a layout that hides the
// smallest keys between the sample points), the heap runs over all n pairs
// instead: O(n log m) at worst, never a wrong answer.
//
// (key, id) with distinct ids is a strict total order, so the ordered
// prefix is unique — it equals the first m entries of a full sort, which
// is what makes the shortcut unobservable. The threshold cannot change it:
// with c ≥ m, the m-th smallest key is at most t, so every pair of the
// prefix is a candidate, ties at t included. m ≥ n is a full sort by the
// same heap; there is no second path.
//
// Everything is concrete ([]int ids, []float64 keys): no sort.Interface
// dispatch, no closures, no allocation once a Ranking's buffers have grown
// to the stream count.
package topk

import "math"

const (
	// sampleSize is how many keys, one per n/sampleSize positions, the
	// threshold is drawn from.
	sampleSize = 64
	// pruneMin is the smallest n Select draws a threshold for, and m ≤ n/8
	// the largest prefix: below either the candidates would be most of the
	// pairs, and the pass would not pay for itself.
	pruneMin = 512
)

// Select reorders the parallel slices ids and keys (keys[i] is the key of
// ids[i]; len(keys) >= len(ids)) so that the m smallest pairs under
// (key, then id) occupy positions [0, m) in ascending order. Positions
// [m, len(ids)) hold the remaining pairs in unspecified order. m is
// clamped to [0, len(ids)]. The package doc gives the cost and why the
// threshold pass cannot change the result.
//
// Because the tail is a permutation of everything not selected, a caller
// extends an ordered prefix of length p to length p' by calling Select on
// ids[p:], keys[p:] with m = p'−p: the keys travel with their ids, so the
// extension ranks the same snapshot the prefix was taken from.
//
// Select reports whether any key was NaN: it reads every key whenever
// m ≥ 1, so Ranking refuses a NaN key in the same pass that orders it.
// With NaN keys Select still terminates and still permutes its input, but
// the order is unspecified.
func Select(ids []int, keys []float64, m int) (nan bool) {
	n := len(ids)
	keys = keys[:n]
	m = min(m, n)
	if m <= 0 {
		return false
	}
	if c := prune(ids, keys, m); c >= m {
		ids, keys = ids[:c], keys[:c]
	}
	return heapSelect(ids, keys, m)
}

// prune moves every pair whose key is at most a sampled threshold t (or
// NaN) to the front and returns how many it moved, or 0 when n < pruneMin
// or m > n/8. t is the r-th smallest of sampleSize keys taken at a fixed
// stride. The sample keys smaller than the m-th smallest key number about
// μ = sampleSize·(m−1)/n, and the result falls short of m only if r or
// more are. r = 1 + ⌈μ + 2√μ⌉, two standard deviations over, makes that
// rare on any layout the sample sees evenly (0.3 % of the pruned passes of
// the benchmark's node-rank workload, 1 % of cluster-churn's) while the
// candidates number about n·r/sampleSize, some 5m there; a wider margin
// buys fewer fallbacks with more candidates on every pass.
func prune(ids []int, keys []float64, m int) int {
	n := len(keys)
	if n < pruneMin || 8*m > n {
		return 0
	}
	mu := float64(sampleSize*(m-1)) / float64(n)
	r := 1 + int(math.Ceil(mu+2*math.Sqrt(mu)))
	var sample [sampleSize]float64
	var sampleIDs [sampleSize]int
	stride := n / sampleSize
	for j := range sample {
		sample[j] = keys[j*stride]
	}
	heapSelect(sampleIDs[:], sample[:], r)
	t := sample[r-1]
	ids = ids[:n]
	c := 0
	for i, k := range keys {
		if k > t {
			continue
		}
		ids[c], ids[i] = ids[i], ids[c]
		keys[c], keys[i] = k, keys[c]
		c++
	}
	return c
}

// heapSelect is Select without the threshold: a max-heap of the first m
// pairs, one pass over the rest, then a heapsort of the m kept. It reports
// whether any key was NaN.
func heapSelect(ids []int, keys []float64, m int) (nan bool) {
	n := len(ids)
	keys = keys[:n]
	for _, k := range keys[:m] {
		if k != k {
			nan = true
		}
	}
	// Max-heap of the first m pairs: the root is the worst pair kept.
	for i := m/2 - 1; i >= 0; i-- {
		siftDown(ids, keys, i, m)
	}
	// One pass over the rest: a pair better than the root replaces it.
	// For m << n nearly every pair fails the first comparison, so the pass
	// is n float compares with no data movement. A NaN key fails every
	// comparison and is only noted.
	topKey, topID := keys[0], ids[0]
	for i := m; i < n; i++ {
		k := keys[i]
		if k > topKey {
			continue
		}
		if k < topKey || (k == topKey && ids[i] < topID) {
			ids[0], ids[i] = ids[i], ids[0]
			keys[0], keys[i] = k, topKey
			siftDown(ids, keys, 0, m)
			topKey, topID = keys[0], ids[0]
		} else if k != k {
			nan = true
		}
	}
	// Heapsort the kept prefix into ascending order.
	for end := m - 1; end > 0; end-- {
		ids[0], ids[end] = ids[end], ids[0]
		keys[0], keys[end] = keys[end], keys[0]
		siftDown(ids, keys, 0, end)
	}
	return nan
}

// siftDown restores the max-heap property of the first n pairs below
// position root.
func siftDown(ids []int, keys []float64, root, n int) {
	id, key := ids[root], keys[root]
	for {
		child := 2*root + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && less(keys[child], ids[child], keys[r], ids[r]) {
			child = r
		}
		if !less(key, id, keys[child], ids[child]) {
			break
		}
		ids[root], keys[root] = ids[child], keys[child]
		root = child
	}
	ids[root], keys[root] = id, key
}

// less is the strict (key, id) order.
func less(ka float64, ia int, kb float64, ib int) bool {
	if ka != kb {
		return ka < kb
	}
	return ia < ib
}

// Ranking is a reusable snapshot of (key, id) pairs with an ordered
// prefix that can be grown on demand: fill it with Load (a whole table)
// or Reset + Add (a subset), ask for the m best with Order, and ask again
// with a larger m later — the second call ranks the keys captured at fill
// time, not whatever they were computed from, which is what RTP's
// expanding search needs once its conditional probes have started
// refreshing the live table. The zero value is ready to use; buffers are
// kept across fills.
type Ranking struct {
	ids     []int
	keys    []float64
	ordered int
	// ident is how many leading entries of ids' backing array hold their
	// own index, so Load writes only the ids past it. Order and Add may
	// move or overwrite ids, so they reset it.
	ident int
}

// Reset empties the ranking, keeping its storage.
func (r *Ranking) Reset() {
	r.ids, r.keys, r.ordered = r.ids[:0], r.keys[:0], 0
}

// Load resets the ranking to the ids 0..n−1 and returns their n keys,
// aliasing the ranking, for the caller to fill in place: a rank pass over a
// whole table is one key store per stream, with no append, and the ids are
// rewritten only where an Order or Add since the last fill moved them (a
// caller that only scans the keys pays for no id store). Order refuses a
// NaN key as Add does, in the pass that orders it.
func (r *Ranking) Load(n int) []float64 {
	if cap(r.ids) < n || cap(r.keys) < n {
		r.ids, r.keys, r.ident = make([]int, n), make([]float64, n), 0
	}
	r.ids, r.keys, r.ordered = r.ids[:n], r.keys[:n], 0
	for i := r.ident; i < n; i++ {
		r.ids[i] = i
	}
	r.ident = max(r.ident, n)
	return r.keys
}

// Add appends one pair. It panics on a NaN key: a NaN compares false with
// everything and would silently scramble the order, and validated ingest
// and restore make it impossible short of a caller bug.
func (r *Ranking) Add(id int, key float64) {
	if key != key {
		panic(nanKey)
	}
	r.ids = append(r.ids, id)
	r.keys = append(r.keys, key)
	r.ordered, r.ident = 0, 0
}

// nanKey is the panic a NaN key in a Ranking raises.
const nanKey = "topk: NaN key in rank table"

// Ordered returns the length of the ordered prefix.
func (r *Ranking) Ordered() int { return r.ordered }

// Order grows the ordered prefix to m pairs, or to all of them if there
// are fewer (never shrinking it), and returns all ids and keys: the first
// Ordered() are ascending by (key, id), the rest are the unselected pairs
// in unspecified order. The slices alias the ranking and are valid until
// the next Reset, Add or Load. It panics, as Add does, if a key it orders
// over is NaN, which only a Load fill can have put there.
func (r *Ranking) Order(m int) (ids []int, keys []float64) {
	if m > len(r.ids) {
		m = len(r.ids)
	}
	if m > r.ordered {
		if Select(r.ids[r.ordered:], r.keys[r.ordered:], m-r.ordered) {
			panic(nanKey)
		}
		r.ordered = m
	}
	r.ident = 0 // Select moves ids, and so may a caller through the slice
	return r.ids, r.keys
}
