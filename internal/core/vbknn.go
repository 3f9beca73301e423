package core

import (
	"fmt"

	"adaptivefilters/internal/filter"
	"adaptivefilters/internal/query"
	"adaptivefilters/internal/server"
	"adaptivefilters/internal/stream"
)

// VBKNN is the *value-based* tolerance baseline the paper argues against in
// its introduction (Figure 1): every stream carries an Olston-style band
// filter of half-width ε_v/2 around its last reported value, so the server
// knows each value to within ±ε_v/2 and answers the k-NN query from that
// approximate table.
//
// The guarantee is purely numeric: the returned streams' values are within
// ε_v of answers' true values, but their *ranks* are unbounded — a returned
// stream "could rank far from the true maximum" when ε_v is large, and a
// small ε_v forfeits the savings. The Figure 1 motivation experiment
// (experiment.Figure1) quantifies this trade-off against RTP's rank-based
// tolerance.
type VBKNN struct {
	c server.Host
	q query.KNN
	// Width is the value tolerance ε_v (band width; filters use Width/2).
	Width float64
	told  toldValues
}

// NewVBKNN returns the value-based baseline with value tolerance width.
func NewVBKNN(c server.Host, q query.KNN, width float64) *VBKNN {
	if width < 0 {
		panic(fmt.Sprintf("core: vb-knn needs width >= 0, got %g", width))
	}
	return &VBKNN{c: c, q: q, Width: width, told: newToldValues(c.N())}
}

// Name implements server.Protocol.
func (p *VBKNN) Name() string { return fmt.Sprintf("vb-knn(k=%d,εv=%g)", p.q.K, p.Width) }

// Initialize probes every stream and installs the band filters.
func (p *VBKNN) Initialize() {
	vals := p.c.ProbeAllInto(nil)
	p.told.load(vals)
	for id, v := range vals {
		p.c.Install(id, filter.NewBand(v, p.Width/2), true)
	}
	p.c.AddServerOps(len(vals))
}

// HandleUpdate records the reported value; the band re-centers at the
// source, so no install message is needed.
func (p *VBKNN) HandleUpdate(id stream.ID, v float64) {
	p.told.set(id, v)
	p.c.AddServerOps(1)
}

// Answer returns the k nearest streams according to the reported values.
func (p *VBKNN) Answer() []stream.ID {
	p.c.AddServerOps(p.q.K)
	return p.told.nearest(p.q.Q, p.q.K)
}
