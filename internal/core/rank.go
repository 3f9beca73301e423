package core

import (
	"fmt"
	"slices"

	"adaptivefilters/internal/query"
	"adaptivefilters/internal/server"
	"adaptivefilters/internal/topk"
)

// ranker is the rank machinery RTP, FT-RP and ZT-RP share: the host, the
// query center and the scratch of the rank passes, over stream values of
// type V and filter constraints of type C. The center is consulted in
// batches — one Dists call per pass — so a per-stream loop never makes a
// dynamic call per stream.
type ranker[V, C any] struct {
	c server.HostOf[V, C]
	q query.CenterOf[V, C]

	// Reusable scratch, so steady-state event handling allocates nothing
	// once the buffers have grown to the stream count.
	rk      topk.Ranking
	valsBuf []V       // probe fan-out and rank-pass table copy
	keyBuf  []float64 // nearestOf / tableDists keys
	pickBuf []V       // nearestOf / tableDists table values
}

// probeAll probes every stream into the table-copy scratch.
func (r *ranker[V, C]) probeAll() { r.valsBuf = r.c.ProbeAllInto(r.valsBuf) }

// rankNearest snapshots every stream's table distance from q — the "old
// ranking scores kept by the server" the protocols consult — into rk and
// orders the m nearest by (distance, id) at the front; the rest follow
// unordered. The table is copied once into valsBuf and the keys are filled
// from it in one Dists call; a NaN distance panics in rk.Order's pass, as
// topk.Ranking.Add would. A rebuild asks for exactly the prefix it reads
// (k+r+1 for Deploy_bound, k+1 for the k-NN-as-range protocols); rk.Order
// can extend the prefix later over the same snapshot. The returned slices
// alias rk and are valid until its next fill. The pass is charged to the
// server computation metric as one touch per stream, whatever m is.
func (r *ranker[V, C]) rankNearest(m int) (ids []int, dists []float64) {
	r.valsBuf = r.c.TableValues(r.valsBuf)
	keys := r.rk.Load(len(r.valsBuf))
	r.q.Dists(keys, r.valsBuf)
	ids, dists = r.rk.Order(m)
	r.c.AddServerOps(len(keys))
	return ids, dists
}

// nearestOf reorders ids in place so its m nearest by (table distance from
// q, id) lead in ascending order, and charges one server op per id. It
// returns the distances, permuted with ids; they alias keyBuf.
func (r *ranker[V, C]) nearestOf(ids []int, m int) []float64 {
	keys := r.tableDists(ids)
	topk.Select(ids, keys, m)
	r.c.AddServerOps(len(ids))
	return keys
}

// tableDists returns the distances of ids' table values from q, filled by
// one Dists call into keyBuf.
func (r *ranker[V, C]) tableDists(ids []int) []float64 {
	vals := r.pickBuf[:0]
	for _, id := range ids {
		vals = append(vals, r.c.Table(id))
	}
	r.pickBuf = vals
	r.keyBuf = slices.Grow(r.keyBuf[:0], len(ids))
	keys := r.keyBuf[:len(ids)]
	r.q.Dists(keys, vals)
	return keys
}

// checkCenter panics on a NaN query center, which would otherwise only
// surface as a NaN key in the first rank pass.
func checkCenter[V, C any](q query.CenterOf[V, C]) {
	if q.IsNaN() {
		panic(fmt.Sprintf("core: NaN query center %v", q))
	}
}

// midpoint returns the boundary radius halfway between two distances, the
// paper's placement for R ("halfway between the (k+r)th and the (k+r+1)st
// object").
func midpoint(inner, outer float64) float64 { return (inner + outer) / 2 }
