package core

import (
	"adaptivefilters/internal/query"
	"adaptivefilters/internal/server"
	"adaptivefilters/internal/topk"
)

// rankNearest snapshots every stream's table distance from q — the "old
// ranking scores kept by the server" the protocols consult — into rk and
// orders the m nearest by (distance, id) at the front; the rest follow
// unordered. The table is copied once into *vals (the protocol's probe
// scratch) and the keys are filled from it in one loop, which panics on a
// NaN distance as topk.Ranking.Add does. A rebuild asks for exactly the
// prefix it reads (k+r+1 for Deploy_bound, k+1 for the k-NN-as-range
// protocols); rk.Order can extend the prefix later over the same snapshot.
// The returned slices alias rk and are valid until its next fill. The pass
// is charged to the server computation metric as one touch per stream,
// whatever m is.
func rankNearest(rk *topk.Ranking, vals *[]float64, c server.Host, q query.Center, m int) (ids []int, dists []float64) {
	*vals = c.TableValues(*vals)
	keys := rk.Load(len(*vals))
	for i, v := range *vals {
		d := q.Dist(v)
		if d != d {
			panic("topk: NaN key in rank table")
		}
		keys[i] = d
	}
	c.AddServerOps(len(keys))
	return rk.Order(m)
}

// nearestOf reorders ids in place so its m nearest by (table distance from
// q, id) lead in ascending order, using keyBuf as key scratch, and charges
// one server op per id.
func nearestOf(keyBuf *[]float64, c server.Host, q query.Center, ids []int, m int) {
	keys := (*keyBuf)[:0]
	for _, id := range ids {
		keys = append(keys, tableDist(c, q, id))
	}
	*keyBuf = keys
	topk.Select(ids, keys, m)
	c.AddServerOps(len(ids))
}

// tableDist returns the distance of stream id's table value from q.
func tableDist(c server.Host, q query.Center, id int) float64 {
	v, _ := c.Table(id)
	return q.Dist(v)
}

// midpoint returns the boundary radius halfway between two distances, the
// paper's placement for R ("halfway between the (k+r)th and the (k+r+1)st
// object").
func midpoint(inner, outer float64) float64 { return (inner + outer) / 2 }
