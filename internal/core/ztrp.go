package core

import (
	"fmt"

	"adaptivefilters/internal/filter"
	"adaptivefilters/internal/query"
	"adaptivefilters/internal/server"
	"adaptivefilters/internal/stream"
)

// ZTRP is the zero-tolerance k-NN protocol of paper §5.2.1: the k-NN query
// is viewed as a range query over the tightest region R enclosing the k-th
// nearest neighbor, and R is installed at every stream. Because no error is
// allowed, any crossing of R forces R to be recomputed and re-announced to
// every stream — the sensitivity the fraction-based FT-RP protocol removes.
type ZTRP struct {
	ranker[float64, filter.Constraint]
	k   int
	ans intSet
	d   float64
	cur filter.Constraint

	idBuf []int // entering-stream probe fan-out scratch

	// Recomputes counts bound recomputations (reports/tests).
	Recomputes uint64
}

// NewZTRP returns the zero-tolerance k-NN protocol.
func NewZTRP(c server.Host, q query.Center, k int) *ZTRP {
	if k <= 0 || k >= c.N() {
		panic(fmt.Sprintf("core: zt-rp needs 1 <= k < n, got k=%d n=%d", k, c.N()))
	}
	checkCenter(q)
	return &ZTRP{ranker: ranker[float64, filter.Constraint]{c: c, q: q}, k: k, ans: newIntSet()}
}

// Name implements server.Protocol.
func (p *ZTRP) Name() string { return fmt.Sprintf("zt-rp(k=%d,%v)", p.k, p.q) }

// Bound returns the deployed region (tests).
func (p *ZTRP) Bound() filter.Constraint { return p.cur }

// Initialize probes everything, computes the k nearest and deploys R halfway
// between the k-th and (k+1)-st distances.
func (p *ZTRP) Initialize() {
	p.probeAll()
	p.rebuild()
}

// rebuild recomputes A and R from the current server table and redeploys.
func (p *ZTRP) rebuild() {
	nearest, dists := p.rankNearest(p.k + 1)
	p.ans.clear()
	for _, id := range nearest[:p.k] {
		p.ans.add(id)
	}
	p.d = midpoint(dists[p.k-1], dists[p.k])
	p.cur = p.q.BallConstraint(p.d)
	p.c.InstallAllExcept(nil, p.cur)
	p.Recomputes++
}

// HandleUpdate reacts to any crossing of R.
func (p *ZTRP) HandleUpdate(id stream.ID, v float64) {
	p.c.AddServerOps(1)
	inside := p.cur.Contains(v)
	switch {
	case p.ans.has(id) && !inside:
		// An answer left R: the new k-th neighbor may be anywhere outside,
		// so the server must probe everything again.
		p.probeAll()
		p.rebuild()
	case !p.ans.has(id) && inside:
		// A stream entered R: R now holds k+1 streams. Refresh the members
		// and shrink R around the true k nearest.
		p.idBuf = p.ans.appendMembers(p.idBuf[:0])
		p.c.ProbeBatch(p.idBuf)
		p.rebuild()
	default:
		// Stale-side refresh (install handshake); nothing crossed.
	}
}

// Answer implements server.Protocol.
func (p *ZTRP) Answer() []stream.ID { return p.ans.sorted() }
