package core

import (
	"adaptivefilters/internal/query"
	"adaptivefilters/internal/server"
	"adaptivefilters/internal/stream"
)

// NoFilterRange is the evaluation baseline for range queries: no filters are
// installed, every stream reports every update (the paper's "no filter is
// used at all" series, where each update counts as one maintenance message),
// and the server answer is always exact.
type NoFilterRange struct {
	c   server.Host
	rng query.Range
	ans intSet
}

// NewNoFilterRange returns the baseline protocol for the given range query.
func NewNoFilterRange(c server.Host, rng query.Range) *NoFilterRange {
	return &NoFilterRange{c: c, rng: rng, ans: newIntSet()}
}

// Name implements server.Protocol.
func (p *NoFilterRange) Name() string { return "no-filter-range" }

// Initialize probes every stream once and computes the exact answer. No
// filters are installed, so all subsequent updates flow to the server.
func (p *NoFilterRange) Initialize() {
	vals := p.c.ProbeAllInto(nil)
	for id, v := range vals {
		if p.rng.Contains(v) {
			p.ans.add(id)
		}
	}
	p.c.AddServerOps(len(vals))
}

// HandleUpdate keeps the exact answer current.
func (p *NoFilterRange) HandleUpdate(id stream.ID, v float64) {
	if p.rng.Contains(v) {
		p.ans.add(id)
	} else {
		p.ans.remove(id)
	}
	p.c.AddServerOps(1)
}

// Answer implements server.Protocol.
func (p *NoFilterRange) Answer() []stream.ID { return p.ans.sorted() }

// NoFilterKNN is the no-filter baseline for k-NN / top-k queries. Every
// update reaches the server, which keeps the reported values and ranks
// them exactly when an answer is read.
type NoFilterKNN struct {
	c    server.Host
	q    query.KNN
	told toldValues
}

// NewNoFilterKNN returns the baseline protocol for the given k-NN query.
func NewNoFilterKNN(c server.Host, q query.KNN) *NoFilterKNN {
	return &NoFilterKNN{c: c, q: q, told: newToldValues(c.N())}
}

// Name implements server.Protocol.
func (p *NoFilterKNN) Name() string { return "no-filter-knn" }

// Initialize probes every stream and records the values.
func (p *NoFilterKNN) Initialize() {
	p.told.load(p.c.ProbeAllInto(nil))
	p.c.AddServerOps(p.c.N())
}

// HandleUpdate records the reported value.
func (p *NoFilterKNN) HandleUpdate(id stream.ID, v float64) {
	p.told.set(id, v)
	p.c.AddServerOps(1)
}

// Answer returns the exact k nearest streams.
func (p *NoFilterKNN) Answer() []stream.ID {
	p.c.AddServerOps(p.q.K)
	return p.told.nearest(p.q.Q, p.q.K)
}
