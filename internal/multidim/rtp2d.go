package multidim

import (
	"fmt"
	"sort"

	"adaptivefilters/internal/core"
	"adaptivefilters/internal/filter"
	"adaptivefilters/internal/server"
	"adaptivefilters/internal/stream"
	"adaptivefilters/internal/topk"
)

// rankNearest snapshots every stream's table distance to q into rk and
// orders the m nearest by (distance, id) at the front, the rest following
// unordered — the planar twin of core's rank pass over the same kernel:
// one table copy into *pts, one key fill. It charges n server ops for the
// ranking work whatever m is, and panics on a NaN distance, as
// topk.Ranking.Add does: impossible via validated ingest/restore, hence a
// caller bug, and a NaN would silently scramble the order. The returned
// slices alias rk.
func rankNearest(rk *topk.Ranking, pts *[]Point, h server.SpatialHost, q Point, m int) (ids []int, dists []float64) {
	*pts = h.TableValues(*pts)
	keys := rk.Load(len(*pts))
	for i, pt := range *pts {
		d := Dist(q, pt)
		if d != d {
			panic("topk: NaN key in rank table")
		}
		keys[i] = d
	}
	h.AddServerOps(len(keys))
	return rk.Order(m)
}

func sortedKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// RTP2D is the rank-based tolerance protocol (paper §4) over 2-D points:
// the server maintains a disk R around the query point enclosing at most
// ε_k^r streams, with the boundary halfway between the ε-th and (ε+1)-st
// distances. Filters are disks; everything else mirrors the 1-D RTP,
// including the conditional expanding search of Case 2 — whose probes now
// travel through SpatialHost.ProbeIf, so the conditional-probe accounting
// is the shared charge table's, not the protocol's own arithmetic.
//
// RTP2D is a server.SpatialStatefulProtocol: it runs under any SpatialHost
// (a bare server.SpatialCluster or runtime.Node's shard loops) and
// snapshots via ExportState/ImportState.
type RTP2D struct {
	h   server.SpatialHost
	q   Point
	tol core.RankTolerance

	inA map[int]bool
	inX map[int]bool
	cur filter.Region

	rs      topk.Ranking
	us      topk.Ranking  // expandSearch responder ranking scratch
	pending []int         // expandSearch candidate scratch
	hits    map[int]Point // expandSearch responder scratch
	probeXs []int         // entered() batch-probe scratch
	ptsBuf  []Point       // probe fan-out and rank-pass table copy

	// Deploys and Reinits mirror core.RTP's counters.
	Deploys uint64
	Reinits uint64
}

var _ server.SpatialStatefulProtocol = (*RTP2D)(nil)

// NewRTP2D builds the protocol against a spatial host. The caller wires it
// in with SetProtocol and runs the t0 phase via the host's Initialize. It
// panics on invalid parameters.
func NewRTP2D(h server.SpatialHost, q Point, tol core.RankTolerance) *RTP2D {
	if err := tol.Validate(); err != nil {
		panic(err)
	}
	if tol.Eps() >= h.N() {
		panic(fmt.Sprintf("multidim: ε=%d needs more than %d streams", tol.Eps(), h.N()))
	}
	if q.IsNaN() {
		panic("multidim: NaN query point")
	}
	return &RTP2D{h: h, q: q, tol: tol,
		inA: map[int]bool{}, inX: map[int]bool{}, hits: map[int]Point{}}
}

// Name identifies the protocol.
func (p *RTP2D) Name() string {
	return fmt.Sprintf("rtp2d(k=%d,r=%d)", p.tol.K, p.tol.R)
}

// Bound returns the deployed region (tests).
func (p *RTP2D) Bound() filter.Region { return p.cur }

// Answer returns A(t) sorted by id.
func (p *RTP2D) Answer() []stream.ID { return sortedKeys(p.inA) }

// X returns X(t) sorted by id (tests).
func (p *RTP2D) X() []int { return sortedKeys(p.inX) }

// Initialize runs the initialization phase: probe all, seed A and X,
// deploy. Accounting phases are switched by the host.
func (p *RTP2D) Initialize() {
	p.ptsBuf = p.h.ProbeAllInto(p.ptsBuf)
	p.rebuildFromTable()
}

// rebuildFromTable recomputes A and X from the host table and redeploys;
// the bound sits between the ε-th and (ε+1)-st distances, so the ε+1
// nearest are all the ranking it needs.
func (p *RTP2D) rebuildFromTable() {
	e := p.tol.Eps()
	nearest, dists := rankNearest(&p.rs, &p.ptsBuf, p.h, p.q, e+1)
	clear(p.inA)
	clear(p.inX)
	for i, id := range nearest[:e] {
		if i < p.tol.K {
			p.inA[id] = true
		}
		p.inX[id] = true
	}
	p.install((dists[e-1] + dists[e]) / 2)
}

func (p *RTP2D) install(r float64) {
	p.cur = filter.NewDisk(p.q, r)
	p.h.InstallAll(p.cur)
	p.Deploys++
}

// HandleUpdate is the Maintenance Phase entry point.
func (p *RTP2D) HandleUpdate(id stream.ID, pt Point) {
	inside := p.cur.Contains(pt)
	switch {
	case p.inA[id]:
		if inside {
			return
		}
		p.answerLeft(id)
	case p.inX[id]:
		if !inside {
			delete(p.inX, id)
		}
	default:
		if inside {
			p.entered(id)
		}
	}
}

func (p *RTP2D) answerLeft(id int) {
	delete(p.inA, id)
	delete(p.inX, id)
	if len(p.inX) > len(p.inA) {
		best, bestD := -1, 0.0
		for x := range p.inX {
			if p.inA[x] {
				continue
			}
			pt, _ := p.h.Table(x)
			d := Dist(p.q, pt)
			if best < 0 || d < bestD || (d == bestD && x < best) {
				best, bestD = x, d
			}
		}
		p.inA[best] = true
		return
	}
	if p.expandSearch() {
		return
	}
	p.Reinits++
	p.ptsBuf = p.h.ProbeAllInto(p.ptsBuf)
	p.rebuildFromTable()
}

// expandSearch mirrors core.RTP's Case 2 step 4 with disks: grow a disk R'
// through the stale ranking and conditionally probe candidates until two
// respond. Every conditional probe is a SpatialHost.ProbeIf round — the
// request always charged, the reply only on a hit — so the 2-D costs are
// priced by the same charge rules as server.Cluster's
// (TestSpatialChargeParity pins this). As in 1-D the stale ranking is
// ordered lazily — 2(ε+1) entries, doubled when the walk runs off them —
// always over the distances captured on entry, not the table ProbeIf is
// refreshing.
func (p *RTP2D) expandSearch() bool {
	e := p.tol.Eps()
	prefix := 2 * (e + 1)
	sorted, dists := rankNearest(&p.rs, &p.ptsBuf, p.h, p.q, prefix)
	clear(p.hits)
	p.pending = p.pending[:0]
	for _, id := range sorted[:e] {
		if !p.inA[id] {
			p.pending = append(p.pending, id)
		}
	}
	for j := e + 1; j <= len(sorted); j++ {
		if j > prefix {
			prefix *= 2
			p.rs.Order(prefix)
		}
		dPrime := dists[j-1]
		region := filter.NewDisk(p.q, dPrime)
		if !p.inA[sorted[j-1]] {
			p.pending = append(p.pending, sorted[j-1])
		}
		misses := p.pending[:0]
		for _, cand := range p.pending {
			if _, dup := p.hits[cand]; dup {
				continue
			}
			if pt, ok := p.h.ProbeIf(cand, region); ok {
				p.hits[cand] = pt
			} else {
				misses = append(misses, cand)
			}
		}
		p.pending = misses
		if len(p.hits) < 2 {
			continue
		}
		p.us.Reset()
		for id, pt := range p.hits {
			p.us.Add(id, Dist(p.q, pt))
		}
		limit := p.tol.R + 1
		if limit > len(p.hits) {
			limit = len(p.hits)
		}
		u, _ := p.us.Order(limit + 1)
		p.inA[u[0]] = true
		clear(p.inX)
		for a := range p.inA {
			p.inX[a] = true
		}
		for _, id := range u[:limit] {
			p.inX[id] = true
		}
		inner := 0.0
		for x := range p.inX {
			pt, _ := p.h.Table(x)
			if d := Dist(p.q, pt); d > inner {
				inner = d
			}
		}
		outer := dPrime
		if limit < len(u) {
			if d := Dist(p.q, p.hits[u[limit]]); d < outer {
				outer = d
			}
		}
		if outer < inner {
			outer = inner
		}
		p.install((inner + outer) / 2)
		return true
	}
	return false
}

func (p *RTP2D) entered(id int) {
	if len(p.inX) < p.tol.Eps() {
		p.inX[id] = true
		return
	}
	// Refresh every X member in one batched probe fan-out (2·|X| messages,
	// identical totals to the legacy per-stream loop) and rebuild.
	p.probeXs = p.probeXs[:0]
	for x := range p.inX {
		p.probeXs = append(p.probeXs, x)
	}
	sort.Ints(p.probeXs)
	p.h.ProbeBatch(p.probeXs)
	p.rebuildFromTable()
}
