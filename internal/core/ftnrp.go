package core

import (
	"fmt"
	"slices"

	"adaptivefilters/internal/filter"
	"adaptivefilters/internal/query"
	"adaptivefilters/internal/server"
	"adaptivefilters/internal/stream"
)

// ReinitPolicy controls what FT-NRP does when both silent-filter pools are
// exhausted (the paper: "the protocol reduces to ZT-NRP. To exploit
// tolerance, the Initialization Phase of FT-NRP may be run again").
type ReinitPolicy int

const (
	// ReinitAlways re-runs the initialization phase as soon as both n⁺ and
	// n⁻ reach zero (and re-running would allocate at least one silent
	// filter). The re-initialization messages are charged to maintenance.
	ReinitAlways ReinitPolicy = iota
	// ReinitNever lets the protocol degrade to ZT-NRP permanently.
	ReinitNever
)

// String names the policy.
func (p ReinitPolicy) String() string {
	if p == ReinitNever {
		return "never"
	}
	return "always"
}

// FTNRPConfig parameterizes the fraction-based tolerance protocol for
// non-rank-based queries.
type FTNRPConfig struct {
	// Tol is the user's fraction-based tolerance (ε⁺, ε⁻).
	Tol FractionTolerance
	// Selection picks which streams get silent filters (default
	// boundary-nearest; Figure 14 compares against random).
	Selection Selection
	// Seed drives the random selection heuristic.
	Seed int64
	// Faithful reproduces the Figure 7 pseudocode exactly in Fix_Error step
	// 1(III): a probed false-positive stream found outside the range keeps
	// its [−∞,∞] filter and stays in the n⁺ pool. The default (strict)
	// variant installs [l,u] on it and retires the filter, which closes a
	// false-negative accounting leak (see DESIGN.md §3).
	Faithful bool
	// Reinit controls re-initialization on silent-filter depletion.
	Reinit ReinitPolicy
}

// FTNRP is the fraction-based tolerance protocol for range queries
// (paper §5.1.1, Figure 7). Out of the streams satisfying the query, up to
// Emax⁺ receive the [−∞,∞] false-positive filter; out of the rest, up to
// Emax⁻ receive the [∞,∞] false-negative filter. Both kinds are silent —
// the streams are effectively shut down (saving battery in the paper's
// sensor reading) — and the count/Fix_Error machinery keeps F⁺ <= ε⁺ and
// F⁻ <= ε⁻ at all times.
type FTNRP struct {
	fraction
	c   server.Host
	rng query.Range
	cfg FTNRPConfig

	// Reusable scratch for the (re-)initialization fan-out, so protocol
	// re-initializations triggered from the maintenance path allocate
	// nothing once warm: the probe table, the ids partitioned inside then
	// outside, and their selection scores in the same order.
	valsBuf  []float64
	idBuf    []int
	scoreBuf []float64

	// Reinits counts maintenance-phase re-initializations (for reports).
	Reinits uint64
}

// NewFTNRP returns the fraction-based range protocol. It panics on an
// invalid tolerance so misconfigurations fail loudly at setup.
func NewFTNRP(c server.Host, rng query.Range, cfg FTNRPConfig) *FTNRP {
	if err := cfg.Tol.Validate(); err != nil {
		panic(err)
	}
	return &FTNRP{
		fraction: newFraction(cfg.Selection, cfg.Faithful, cfg.Seed, ftnrpSelStream),
		c:        c, rng: rng, cfg: cfg,
	}
}

// Name implements server.Protocol.
func (p *FTNRP) Name() string { return fmt.Sprintf("ft-nrp(%v,%v)", p.cfg.Tol, p.cfg.Selection) }

// Count exposes the Figure 7 count variable (tests).
func (p *FTNRP) Count() int { return p.count }

// HasAnswer reports whether stream id is currently in A(t).
func (p *FTNRP) HasAnswer(id stream.ID) bool { return p.ans.has(id) }

// Initialize implements the Figure 7 Initialization phase: probe every
// stream, then deploy the interval with Emax⁺ / Emax⁻ silent filters,
// scored by distance to the nearer endpoint.
func (p *FTNRP) Initialize() {
	p.valsBuf = p.c.ProbeAllInto(p.valsBuf)
	vals := p.valsBuf
	p.c.AddServerOps(len(vals))
	ids := slices.Grow(p.idBuf[:0], len(vals))
	for id, v := range vals {
		if p.rng.Contains(v) {
			ids = append(ids, id)
		}
	}
	in := len(ids)
	for id, v := range vals {
		if !p.rng.Contains(v) {
			ids = append(ids, id)
		}
	}
	keys := slices.Grow(p.scoreBuf[:0], len(vals))
	for _, id := range ids {
		keys = append(keys, p.rng.BoundaryDist(vals[id]))
	}
	p.idBuf, p.scoreBuf = ids, keys
	deploy(&p.fraction, p.c, ids[:in], ids[in:], keys[:in], keys[in:],
		p.cfg.Tol.MaxFalsePositives(in), p.cfg.Tol.MaxFalseNegatives(in),
		p.rng.Constraint(), filter.WideOpen(), filter.Shut())
}

// HandleUpdate implements the Figure 7 Maintenance phase.
func (p *FTNRP) HandleUpdate(id stream.ID, v float64) {
	p.c.AddServerOps(1)
	p.Crossed(id, v)
}

// Crossed implements server.CrossingDriven: HandleUpdate without its server
// op. A stream holding the query interval is in ans exactly when its
// recorded side is inside, so an update that stays on that side takes
// step's "already an answer" / "not an answer" early return; streams
// holding a silent filter are never dispatched at all.
func (p *FTNRP) Crossed(id stream.ID, v float64) {
	if p.step(id, p.rng.Contains(v)) {
		fixError(&p.fraction, p.c, p.rng.Constraint())
		p.maybeReinit()
	}
}

// maybeReinit re-runs initialization when both silent pools are exhausted
// and the policy allows it. The messages are charged to the maintenance
// phase, faithfully pricing the re-acquisition of tolerance.
func (p *FTNRP) maybeReinit() {
	if p.cfg.Reinit != ReinitAlways || p.fp.len() > 0 || p.fn.len() > 0 {
		return
	}
	// Re-running only pays off if it would allocate at least one silent
	// filter; with ε = 0 the protocol is exactly ZT-NRP and must not loop.
	if p.cfg.Tol.MaxFalsePositives(p.ans.len()) == 0 &&
		p.cfg.Tol.MaxFalseNegatives(p.ans.len()) == 0 {
		return
	}
	p.Reinits++
	p.Initialize()
}
