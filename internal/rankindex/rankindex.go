// Package rankindex maintains a dynamic set of (stream id → value) pairs and
// answers the ranking questions the paper's queries need: k nearest streams
// to a query center, the rank of a stream, and range-membership counts.
//
// It is built on the order-statistic treap and is shared by the ground-truth
// oracle and the server-side no-filter baseline.
//
// Ranks are defined favorably under ties: rank(S) = 1 + number of streams
// strictly closer to the query center. Streams tied in distance therefore
// share the better rank, so an answer tied with the true k-th neighbor is
// not counted as an error (see DESIGN.md §3 on tie handling).
package rankindex

import (
	"math"

	"adaptivefilters/internal/ostree"
	"adaptivefilters/internal/query"
	"adaptivefilters/internal/topk"
)

// Index is a dynamic value index over streams 0..n-1. Streams may be absent
// (not yet observed); use Set to add or move them.
type Index struct {
	tree    *ostree.Tree
	vals    []float64
	present []bool

	skeys []float64 // sortByDistID key scratch, recomputed per sort
}

// New returns an empty index sized for n streams.
func New(n int) *Index {
	return &Index{tree: ostree.New(), vals: make([]float64, n), present: make([]bool, n)}
}

// FromValues builds an index holding every stream at the given value.
func FromValues(vals []float64) *Index {
	ix := New(len(vals))
	for id, v := range vals {
		ix.Set(id, v)
	}
	return ix
}

// Len returns the number of streams currently present.
func (ix *Index) Len() int { return ix.tree.Len() }

// N returns the index capacity (total stream count).
func (ix *Index) N() int { return len(ix.vals) }

// Has reports whether stream id is present.
func (ix *Index) Has(id int) bool { return ix.present[id] }

// Value returns stream id's current value; the bool is false if absent.
func (ix *Index) Value(id int) (float64, bool) { return ix.vals[id], ix.present[id] }

// Set inserts stream id at value v, or moves it if already present.
//
// Set panics if v is NaN — a NaN value would corrupt the underlying tree
// order (see ostree.Insert) and poison every later ranking answer. Paths
// that carry untrusted values (snapshot restore, wire ingest) validate
// before calling Set, so the panic marks a caller bug, not bad input.
func (ix *Index) Set(id int, v float64) {
	if math.IsNaN(v) {
		panic("rankindex: Set with NaN value")
	}
	if ix.present[id] {
		ix.tree.Delete(ostree.Key{V: ix.vals[id], ID: id})
	}
	ix.vals[id] = v
	ix.present[id] = true
	ix.tree.Insert(ostree.Key{V: v, ID: id})
}

// Remove deletes stream id from the index if present.
func (ix *Index) Remove(id int) {
	if !ix.present[id] {
		return
	}
	ix.tree.Delete(ostree.Key{V: ix.vals[id], ID: id})
	ix.present[id] = false
}

// CountRange returns the number of present streams with lo <= value <= hi.
func (ix *Index) CountRange(lo, hi float64) int { return ix.tree.CountRange(lo, hi) }

// CountCloser returns the number of present streams strictly closer to q
// than distance d.
func (ix *Index) CountCloser(q query.Center, d float64) int {
	switch q.Kind {
	case query.PosInf:
		// dist = -v < d  <=>  v > -d
		return ix.tree.Len() - ix.tree.CountLE(-d)
	case query.NegInf:
		// dist = v < d
		return ix.tree.CountLess(d)
	default:
		// |v - x| < d  <=>  x-d < v < x+d (empty when d <= 0)
		if d <= 0 {
			return 0
		}
		return ix.tree.CountLess(q.X+d) - ix.tree.CountLE(q.X-d)
	}
}

// CountWithin returns the number of present streams at distance <= d from q.
func (ix *Index) CountWithin(q query.Center, d float64) int {
	switch q.Kind {
	case query.PosInf:
		return ix.tree.Len() - ix.tree.CountLess(-d)
	case query.NegInf:
		return ix.tree.CountLE(d)
	default:
		if d < 0 {
			return 0
		}
		return ix.tree.CountRange(q.X-d, q.X+d)
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
	n := ix.tree.Len()
	if k > n {
		k = n
	}
	if k <= 0 {
		return nil
	}
	switch q.Kind {
	case query.NegInf:
		// Tree order (value asc, id asc) equals (distance asc, id asc).
		out := make([]int, 0, k)
		for i := 0; i < k; i++ {
			key, _ := ix.tree.Select(i)
			out = append(out, key.ID)
		}
		return out
	case query.PosInf:
		// The top-k window is the last k keys, but a value tie at the window
		// boundary must resolve to the smallest ids: extend the window
		// through the tie and re-rank.
		start := n - k
		bound, _ := ix.tree.Select(start)
		for start > 0 {
			prev, _ := ix.tree.Select(start - 1)
			if prev.V != bound.V {
				break
			}
			start--
		}
		cands := make([]int, 0, n-start)
		for i := start; i < n; i++ {
			key, _ := ix.tree.Select(i)
			cands = append(cands, key.ID)
		}
		ix.sortByDistID(cands, q)
		return cands[:k]
	default:
		// Two-pointer walk outward from the insertion position of q.X,
		// collecting k candidates plus everything tied with the k-th
		// distance, then re-rank for deterministic tie order.
		r := ix.tree.Rank(ostree.Key{V: q.X, ID: minInt})
		l := r - 1
		cands := make([]int, 0, k+4)
		var dk float64
		take := func(key ostree.Key) { cands = append(cands, key.ID) }
		for len(cands) < k {
			lk, lok := keyAt(ix.tree, l)
			rk, rok := keyAt(ix.tree, r)
			switch {
			case lok && rok:
				if q.Dist(lk.V) <= q.Dist(rk.V) {
					take(lk)
					dk = q.Dist(lk.V)
					l--
				} else {
					take(rk)
					dk = q.Dist(rk.V)
					r++
				}
			case lok:
				take(lk)
				dk = q.Dist(lk.V)
				l--
			case rok:
				take(rk)
				dk = q.Dist(rk.V)
				r++
			default:
				ix.sortByDistID(cands, q)
				return cands
			}
		}
		for {
			lk, lok := keyAt(ix.tree, l)
			if !lok || q.Dist(lk.V) != dk {
				break
			}
			take(lk)
			l--
		}
		for {
			rk, rok := keyAt(ix.tree, r)
			if !rok || q.Dist(rk.V) != dk {
				break
			}
			take(rk)
			r++
		}
		ix.sortByDistID(cands, q)
		return cands[:k]
	}
}

func keyAt(t *ostree.Tree, i int) (ostree.Key, bool) {
	if i < 0 {
		return ostree.Key{}, false
	}
	return t.Select(i)
}

// sortByDistID orders ids ascending by (distance from q, id) through the
// shared selection kernel over index-owned key scratch, so it allocates
// nothing — which matters now that KNearest sits on the ingest hot path.
// The candidate lists are k plus boundary ties, so the whole list is
// ordered.
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

// MaxDist returns the largest distance from q over the given stream ids.
// Absent ids are skipped; ok is false if none were present.
func (ix *Index) MaxDist(q query.Center, ids []int) (float64, bool) {
	best, ok := math.Inf(-1), false
	for _, id := range ids {
		if !ix.present[id] {
			continue
		}
		if d := q.Dist(ix.vals[id]); d > best {
			best = d
		}
		ok = true
	}
	return best, ok
}

const minInt = -int(^uint(0)>>1) - 1
