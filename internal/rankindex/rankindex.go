// Package rankindex maintains a dynamic set of (stream id → value) pairs and
// answers the ranking questions the paper's queries need: k nearest streams
// to a query center, the rank of a stream, and range-membership counts. It
// backs the ground-truth oracle, which moves a stream on every event and
// asks counts and ranks at every audit. (The server-side k-NN baselines,
// read once per answer, keep unordered columns instead: internal/core's
// toldValues.)
//
// Layout: beside the per-id value and presence arrays, the index keeps one
// dense slice of (value, id) keys for the present streams, in ascending
// (value, id) order. Values order first and ids break ties, so the order is
// total and deterministic (DESIGN.md §3.5).
//
// Cost model: every count is a binary search and the key of rank i is
// keys[i], so rank queries cost O(log n) and KNearest walks the slice by
// index. Moving a present stream costs O(log n + d), where d is the number
// of keys it passes: the key is found by binary search and the keys between
// its old and new slot shift by one with a single copy. Adding a stream
// shifts the tail, O(n) memory movement at worst. Bulk loads sort once,
// O(n log n).
//
// Under the paper's random-walk workloads a stream steps a small distance
// per update, so it passes only the few streams whose values lie within
// that step and d stays small. The worst case is an update that redraws the
// value uniformly: the key then passes a third of the index on average.
//
// Ranks are defined favorably under ties: rank(S) = 1 + number of streams
// strictly closer to the query center. Streams tied in distance therefore
// share the better rank, so an answer tied with the true k-th neighbor is
// not counted as an error (see DESIGN.md §3 on tie handling).
//
// NaN values are rejected: they admit no order, so Set and Load panic on
// one, and a NaN bound or radius counts nothing.
package rankindex

import (
	"cmp"
	"math"
	"slices"

	"adaptivefilters/internal/query"
	"adaptivefilters/internal/topk"
)

// key is one present stream in the ordered slice.
type key struct {
	V  float64
	ID int
}

// less is the index order: value ascending, then id ascending.
func less(a, b key) bool { return a.V < b.V || a.V == b.V && a.ID < b.ID }

// search returns the number of keys in ks ordered before k.
func search(ks []key, k key) int {
	lo, hi := 0, len(ks)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if less(ks[m], k) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// Index is a dynamic value index over streams 0..n-1. Streams may be absent
// (not yet observed); use Set to add or move them.
type Index struct {
	keys    []key // present streams, ascending (value, id); capacity n
	vals    []float64
	present []bool

	skeys []float64 // sortByDistID key scratch, recomputed per sort
}

// New returns an empty index sized for n streams.
func New(n int) *Index {
	return &Index{keys: make([]key, 0, n), vals: make([]float64, n), present: make([]bool, n)}
}

// FromValues builds an index holding every stream at the given value.
func FromValues(vals []float64) *Index {
	ix := New(len(vals))
	ix.Load(vals)
	return ix
}

// Len returns the number of streams currently present.
func (ix *Index) Len() int { return len(ix.keys) }

// N returns the index capacity (total stream count).
func (ix *Index) N() int { return len(ix.vals) }

// Value returns stream id's current value; the bool is false if absent.
func (ix *Index) Value(id int) (float64, bool) { return ix.vals[id], ix.present[id] }

// Set inserts stream id at value v, or moves it if already present.
//
// Set panics if v is NaN — a NaN value has no place in the order and would
// poison every later ranking answer. Paths that carry untrusted values
// (snapshot restore, wire ingest) validate before calling Set, so the panic
// marks a caller bug, not bad input.
func (ix *Index) Set(id int, v float64) {
	if math.IsNaN(v) {
		panic("rankindex: Set with NaN value")
	}
	ks, k := ix.keys, key{V: v, ID: id}
	if !ix.present[id] {
		i := search(ks, k)
		ks = append(ks, key{})
		copy(ks[i+1:], ks[i:])
		ks[i] = k
		ix.keys, ix.vals[id], ix.present[id] = ks, v, true
		return
	}
	old := key{V: ix.vals[id], ID: id}
	ix.vals[id] = v
	i := search(ks, old)
	if less(k, old) {
		// Moving down: the keys in [j, i) shift up one slot.
		j := search(ks[:i], k)
		copy(ks[j+1:i+1], ks[j:i])
		ks[j] = k
		return
	}
	// Moving up (or staying): the keys after i that order before k shift
	// down one slot.
	j := i + search(ks[i+1:], k)
	copy(ks[i:j], ks[i+1:j+1])
	ks[j] = k
}

// Load replaces the whole index in one sort: every stream is present at
// vals[id]. It panics, leaving the index untouched, if vals is not N long
// or holds a NaN.
func (ix *Index) Load(vals []float64) {
	if len(vals) != len(ix.vals) {
		panic("rankindex: Load size differs from the index capacity")
	}
	if slices.ContainsFunc(vals, math.IsNaN) {
		panic("rankindex: Load with NaN value")
	}
	ks := ix.keys[:0]
	for id, v := range vals {
		ix.vals[id], ix.present[id] = v, true
		ks = append(ks, key{V: v, ID: id})
	}
	slices.SortFunc(ks, func(a, b key) int {
		if c := cmp.Compare(a.V, b.V); c != 0 {
			return c
		}
		return a.ID - b.ID
	})
	ix.keys = ks
}

// countLess returns the number of present streams with value < v; NaN
// counts nothing.
func (ix *Index) countLess(v float64) int { return search(ix.keys, key{V: v, ID: minInt}) }

// countLE returns the number of present streams with value <= v; NaN counts
// nothing.
func (ix *Index) countLE(v float64) int { return search(ix.keys, key{V: v, ID: maxInt}) }

// CountRange returns the number of present streams with lo <= value <= hi.
// It returns 0 when lo > hi or either bound is NaN.
func (ix *Index) CountRange(lo, hi float64) int {
	if !(lo <= hi) {
		return 0
	}
	return ix.countLE(hi) - ix.countLess(lo)
}

// CountCloser returns the number of present streams strictly closer to q
// than distance d. A NaN d counts nothing.
func (ix *Index) CountCloser(q query.Center, d float64) int {
	if math.IsNaN(d) {
		return 0
	}
	switch q.Kind {
	case query.PosInf:
		// dist = -v < d  <=>  v > -d
		return ix.Len() - ix.countLE(-d)
	case query.NegInf:
		// dist = v < d
		return ix.countLess(d)
	default:
		// |v - x| < d  <=>  x-d < v < x+d (empty when d <= 0)
		if d <= 0 {
			return 0
		}
		return ix.countLess(q.X+d) - ix.countLE(q.X-d)
	}
}

// CountWithin returns the number of present streams at distance <= d from
// q. A NaN d counts nothing.
func (ix *Index) CountWithin(q query.Center, d float64) int {
	if math.IsNaN(d) {
		return 0
	}
	switch q.Kind {
	case query.PosInf:
		return ix.Len() - ix.countLess(-d)
	case query.NegInf:
		return ix.countLE(d)
	default:
		if d < 0 {
			return 0
		}
		return ix.CountRange(q.X-d, q.X+d)
	}
}

// RankOf returns the favorable rank of stream id with respect to center q:
// 1 + the number of present streams strictly closer. The bool is false when
// the stream is absent.
func (ix *Index) RankOf(id int, q query.Center) (int, bool) {
	if !ix.present[id] {
		return 0, false
	}
	d := q.Dist(ix.vals[id])
	return 1 + ix.CountCloser(q, d), true
}

// KNearest returns up to k present stream ids ordered by (distance, id)
// ascending from center q. Ties at the k-th distance resolve to the smallest
// ids, keeping the result deterministic.
func (ix *Index) KNearest(q query.Center, k int) []int {
	ks := ix.keys
	n := len(ks)
	if k > n {
		k = n
	}
	if k <= 0 {
		return nil
	}
	switch q.Kind {
	case query.NegInf:
		// Index order (value asc, id asc) equals (distance asc, id asc).
		out := make([]int, k)
		for i := range out {
			out[i] = ks[i].ID
		}
		return out
	case query.PosInf:
		// The top-k window is the last k keys, but a value tie at the window
		// boundary must resolve to the smallest ids: extend the window
		// through the tie and re-rank.
		start := n - k
		for start > 0 && ks[start-1].V == ks[n-k].V {
			start--
		}
		cands := make([]int, 0, n-start)
		for _, e := range ks[start:] {
			cands = append(cands, e.ID)
		}
		ix.sortByDistID(cands, q)
		return cands[:k]
	default:
		// Two-pointer walk outward from the insertion position of q.X,
		// collecting k candidates plus everything tied with the k-th
		// distance, then re-rank for deterministic tie order. k <= n, so
		// one side always has a key left while fewer than k are taken.
		r := ix.countLess(q.X)
		l := r - 1
		cands := make([]int, 0, k+4)
		var dk float64
		for len(cands) < k {
			switch {
			case l >= 0 && (r >= n || q.Dist(ks[l].V) <= q.Dist(ks[r].V)):
				cands = append(cands, ks[l].ID)
				dk = q.Dist(ks[l].V)
				l--
			default:
				cands = append(cands, ks[r].ID)
				dk = q.Dist(ks[r].V)
				r++
			}
		}
		for ; l >= 0 && q.Dist(ks[l].V) == dk; l-- {
			cands = append(cands, ks[l].ID)
		}
		for ; r < n && q.Dist(ks[r].V) == dk; r++ {
			cands = append(cands, ks[r].ID)
		}
		ix.sortByDistID(cands, q)
		return cands[:k]
	}
}

// sortByDistID orders ids ascending by (distance from q, id) through the
// shared selection kernel over index-owned key scratch, so it allocates
// nothing. The candidate lists are k plus boundary ties, so the whole list
// is ordered.
func (ix *Index) sortByDistID(ids []int, q query.Center) {
	keys := ix.skeys[:0]
	for _, id := range ids {
		keys = append(keys, q.Dist(ix.vals[id]))
	}
	ix.skeys = keys
	topk.Select(ids, keys, len(ids))
}

// KthDist returns the distance from q of the k-th nearest present stream
// (1-based). ok is false when fewer than k streams are present.
func (ix *Index) KthDist(q query.Center, k int) (float64, bool) {
	ids := ix.KNearest(q, k)
	if len(ids) < k || k <= 0 {
		return 0, false
	}
	return q.Dist(ix.vals[ids[k-1]]), true
}

const (
	maxInt = int(^uint(0) >> 1)
	minInt = -maxInt - 1
)
