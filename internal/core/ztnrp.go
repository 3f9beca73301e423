package core

import (
	"adaptivefilters/internal/query"
	"adaptivefilters/internal/server"
	"adaptivefilters/internal/stream"
)

// ZTNRP is the zero-tolerance protocol for non-rank-based (range) queries
// (paper §5.1): every stream filter is set to the query interval [l, u], so
// each filter evaluates the range query locally and reports only boundary
// crossings. The answer is always exact, but no tolerance is exploited.
type ZTNRP struct {
	c   server.Host
	rng query.Range
	ans intSet
}

// NewZTNRP returns the zero-tolerance range protocol.
func NewZTNRP(c server.Host, rng query.Range) *ZTNRP {
	return &ZTNRP{c: c, rng: rng, ans: newIntSet()}
}

// Name implements server.Protocol.
func (p *ZTNRP) Name() string { return "zt-nrp" }

// Initialize probes all streams, computes the exact answer and installs the
// query interval as every stream's filter constraint.
func (p *ZTNRP) Initialize() {
	vals := p.c.ProbeAllInto(nil)
	for id, v := range vals {
		if p.rng.Contains(v) {
			p.ans.add(id)
		}
	}
	p.c.AddServerOps(len(vals))
	p.c.InstallAllExcept(nil, p.rng.Constraint())
}

// HandleUpdate processes a boundary crossing: the stream either entered or
// left the query range.
func (p *ZTNRP) HandleUpdate(id stream.ID, v float64) {
	p.c.AddServerOps(1)
	p.Crossed(id, v)
}

// Answer implements server.Protocol.
func (p *ZTNRP) Answer() []stream.ID { return p.ans.sorted() }

// Crossed implements server.CrossingDriven: HandleUpdate without its server
// op. Every stream holds the query interval and is in ans exactly when its
// recorded side is inside, so an update that stays on that side re-adds a
// member or re-removes a non-member and changes nothing.
func (p *ZTNRP) Crossed(id stream.ID, v float64) {
	if p.rng.Contains(v) {
		p.ans.add(id)
	} else {
		p.ans.remove(id)
	}
}
