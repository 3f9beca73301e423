package core

import (
	"fmt"
	"math"

	"adaptivefilters/internal/filter"
	"adaptivefilters/internal/query"
	"adaptivefilters/internal/server"
	"adaptivefilters/internal/stream"
)

// RTPOf is the rank-based tolerance protocol for k-NN queries (paper §4,
// Figure 5) over stream values of type V and filter constraints of type C.
// The server maintains a closed region R around the query center q that
// encloses at least the answer set and at most ε_k^r = k+r streams; R's
// boundary sits halfway between the (k+r)-th and (k+r+1)-st closest values
// known to the server. Every stream's filter is R, so the server only hears
// about streams crossing R, and Definition 1 correctness holds as long as
// A(t) ⊆ X(t) ⊆ {streams inside R}.
//
// The center supplies the distance and R's shape: an interval [q−d, q+d]
// in 1-D (RTP), a disk in the plane (§7), through one body.
type RTPOf[V any, C filter.Of[V, C]] struct {
	ranker[V, C]
	tol RankTolerance

	inA intSet // A(t): the k answers
	inX intSet // X(t): streams the server believes inside R (A ⊆ X)
	d   float64
	cur C

	// Reusable scratch for the maintenance-phase repair paths (replacement
	// candidates, expanding search, X refresh).
	idBuf    []int  // replacement candidates / probe fan-out
	pendBuf  []int  // expanding search: candidates awaiting a reply
	spareBuf []int  // expanding search: ping-pong partner of pendBuf
	hitBuf   []int  // expanding search: conditional-probe hits, discovery order
	isHit    []bool // expanding search: dense hit membership

	// Deploys counts bound deployments; Reinits counts full
	// re-initializations from the expanding-search fallback (reports/tests).
	Deploys uint64
	Reinits uint64
}

// RTP is the paper's one-dimensional RTP.
type RTP = RTPOf[float64, filter.Constraint]

// NewRTP returns the rank-based tolerance protocol for the k-NN query
// around q. It panics on an invalid tolerance or a NaN center.
func NewRTP[V any, C filter.Of[V, C]](c server.HostOf[V, C], q query.CenterOf[V, C], tol RankTolerance) *RTPOf[V, C] {
	if err := tol.Validate(); err != nil {
		panic(err)
	}
	if tol.Eps() >= c.N() {
		panic(fmt.Sprintf("core: rank tolerance k+r=%d needs at least %d streams, have %d",
			tol.Eps(), tol.Eps()+1, c.N()))
	}
	checkCenter(q)
	return &RTPOf[V, C]{ranker: ranker[V, C]{c: c, q: q}, tol: tol, inA: newIntSet(), inX: newIntSet()}
}

// Name implements server.Protocol.
func (p *RTPOf[V, C]) Name() string {
	return fmt.Sprintf("rtp(k=%d,r=%d,%v)", p.tol.K, p.tol.R, p.q)
}

// Bound returns the currently deployed region constraint (tests).
func (p *RTPOf[V, C]) Bound() C { return p.cur }

// X returns X(t) as sorted ids (tests).
func (p *RTPOf[V, C]) X() []int { return p.inX.sorted() }

// Initialize implements the Figure 5 Initialization phase: probe everything,
// seed A and X from the true ranking, deploy R.
func (p *RTPOf[V, C]) Initialize() {
	p.probeAll()
	p.rebuildFromRanking()
}

// rebuildFromRanking recomputes A and X from the current server table and
// redeploys the bound (shared by Initialize and the Case 3 X refresh).
//
// Deploy_bound places R halfway between the ε_k^r-th and (ε_k^r+1)-st table
// distances, so the ε_k^r+1 nearest are all the ranking it needs.
func (p *RTPOf[V, C]) rebuildFromRanking() {
	e := p.tol.Eps()
	nearest, dists := p.rankNearest(e + 1)
	p.inA.clear()
	p.inX.clear()
	for i, id := range nearest[:e] {
		if i < p.tol.K {
			p.inA.add(id)
		}
		p.inX.add(id)
	}
	p.install(midpoint(dists[e-1], dists[e]))
}

func (p *RTPOf[V, C]) install(d float64) {
	p.d = d
	p.cur = p.q.BallConstraint(d)
	p.c.InstallAllExcept(nil, p.cur)
	p.Deploys++
}

// HandleUpdate implements the Figure 5 Maintenance phase.
func (p *RTPOf[V, C]) HandleUpdate(id stream.ID, v V) {
	p.c.AddServerOps(1)
	inside := p.cur.Contains(v)
	switch {
	case p.inA.has(id):
		if inside {
			return // stale-side refresh; still an answer
		}
		p.answerLeft(id)
	case p.inX.has(id):
		// Case 1: a non-answer member of X left R.
		if !inside {
			p.inX.remove(id)
		}
	default:
		// Case 3: a stream outside X reports; if it entered R it must be
		// tracked (otherwise it is a stale-side refresh and is ignored).
		if inside {
			p.entered(id)
		}
	}
}

// answerLeft is Figure 5 Case 2: an answer stream left R.
func (p *RTPOf[V, C]) answerLeft(id stream.ID) {
	p.inA.remove(id)
	p.inX.remove(id)
	// Step 3: replace from X−A when possible — pick the member with the
	// highest rank (smallest table distance).
	if p.inX.len() > p.inA.len() {
		members := p.inX.appendMembers(p.idBuf[:0])
		candidates := members[:0]
		for _, x := range members {
			if !p.inA.has(x) {
				candidates = append(candidates, x)
			}
		}
		p.idBuf = members
		p.nearestOf(candidates, 1)
		p.inA.add(candidates[0])
		return
	}
	// Step 4: X−A is empty; expand the search region outward using the old
	// ranking scores kept by the server.
	if p.expandSearch() {
		return
	}
	// Step 5: nothing found — re-run Initialization.
	p.Reinits++
	p.Initialize()
}

// expandSearch implements Figure 5 Case 2 step 4: grow a candidate region
// R' through the stale ranking, conditionally probing candidates until at
// least two respond, then rebuild A and X and redeploy the bound. All
// working storage is protocol scratch; the hit bitmap is cleaned before
// every return.
//
// The stale ranking is consumed front to back and the search usually stops
// a few steps past ε_k^r, so it is ordered lazily: 2(ε_k^r+1) entries to
// start, doubled whenever the walk runs off the ordered prefix. The
// extension ranks the distances captured on entry — never the live table,
// which ProbeIf has been refreshing since.
func (p *RTPOf[V, C]) expandSearch() bool {
	e := p.tol.Eps()
	prefix := 2 * (e + 1)
	sorted, dists := p.rankNearest(prefix)
	if n := p.c.N(); len(p.isHit) < n {
		p.isHit = make([]bool, n)
	}
	hits := p.hitBuf[:0] // conditional-probe hits, discovery order
	// pending holds every candidate covered by the current region that has
	// not replied yet: the non-answer streams whose stale rank is within
	// ε_k^r, plus one more stream per expansion step. Regions are nested, so
	// previous hits remain hits and only misses need re-probing.
	pending, spare := p.pendBuf[:0], p.spareBuf[:0]
	found := false
	for _, id := range sorted[:e] {
		if !p.inA.has(id) {
			pending = append(pending, id)
		}
	}
	for j := e + 1; j <= len(sorted); j++ {
		if j > prefix {
			prefix *= 2
			p.rk.Order(prefix)
		}
		dPrime := dists[j-1]
		region := p.q.BallConstraint(dPrime)
		if !p.inA.has(sorted[j-1]) {
			pending = append(pending, sorted[j-1])
		}
		spare = spare[:0]
		for _, cand := range pending {
			if p.isHit[cand] {
				continue
			}
			if _, ok := p.c.ProbeIf(cand, region); ok {
				// ProbeIf refreshed the table, so the hit's fresh value is
				// read back through it below.
				p.isHit[cand] = true
				hits = append(hits, cand)
			} else {
				spare = append(spare, cand)
			}
		}
		pending, spare = spare, pending
		if len(hits) < 2 {
			continue
		}
		// Found enough candidates: the closest joins A; X keeps up to r+1
		// of the closest hits alongside A, and u[limit] caps the new bound.
		u := hits
		limit := p.tol.R + 1
		if limit > len(u) {
			limit = len(u)
		}
		keys := p.nearestOf(u, limit+1) // hits' table values are fresh
		p.inA.add(u[0])
		p.inX.clear()
		p.inX.addAll(&p.inA)
		for _, idm := range u[:limit] {
			p.inX.add(idm)
		}
		// Place the new bound between the farthest X member and the nearest
		// excluded candidate, capped by the probed region so conditional-
		// probe misses are guaranteed to lie outside the new R (see
		// DESIGN.md §3 on bound placement). keys share scratch with
		// maxXDist, so the cap is read first.
		outer := dPrime
		if limit < len(u) && keys[limit] < outer {
			outer = keys[limit]
		}
		inner := p.maxXDist()
		if outer < inner {
			outer = inner
		}
		p.install(midpoint(inner, outer))
		found = true
		break
	}
	for _, h := range hits {
		p.isHit[h] = false
	}
	p.hitBuf, p.pendBuf, p.spareBuf = hits, pending, spare
	return found
}

func (p *RTPOf[V, C]) maxXDist() float64 {
	max := math.Inf(-1)
	p.idBuf = p.inX.appendMembers(p.idBuf[:0])
	for _, d := range p.tableDists(p.idBuf) {
		if d > max {
			max = d
		}
	}
	return max
}

// entered is Figure 5 Case 3: a stream outside X entered R.
func (p *RTPOf[V, C]) entered(id stream.ID) {
	if p.inX.len() < p.tol.Eps() {
		// Step 6: room in X — just track it.
		p.inX.add(id)
		return
	}
	// Step 7: X is full; probe its members for fresh values and rebuild.
	p.idBuf = p.inX.appendMembers(p.idBuf[:0])
	p.c.ProbeBatch(p.idBuf)
	p.rebuildFromRanking()
}

// Answer implements server.Protocol.
func (p *RTPOf[V, C]) Answer() []stream.ID { return p.inA.sorted() }
