package main

import (
	"math/rand"

	"adaptivefilters/internal/filter"
	"adaptivefilters/internal/protospec"
	"adaptivefilters/internal/runtime"
	"adaptivefilters/internal/wire"
)

// Value domain and random-walk step of every generated stream (the paper's
// §6.2 synthetic model: uniform start in [0,1000], Normal(0,σ) steps that
// reflect at the domain boundary).
const (
	domainLo = 0.0
	domainHi = 1000.0
	sigma    = 20.0
)

// tenantDef describes one tenant declaratively: enough to admit it on any
// surface (node, wire, cluster), to rebuild it on a bare host for the
// ledger, and to audit its answers.
type tenantDef struct {
	name    string
	n       int
	spec    protospec.Spec   // single-query and spatial tenants
	queries []wire.QuerySpec // composite tenants
}

func (d tenantDef) spatial() bool   { return d.spec.Spatial() }
func (d tenantDef) composite() bool { return len(d.queries) > 0 }

// kind is the ledger row a tenant's direct-host cost is filed under.
func (d tenantDef) kind() string {
	switch {
	case d.composite():
		return "composite"
	case d.spec.Protocol == "rtp" && d.spec.Top:
		return "rtp-top"
	default:
		return d.spec.Protocol
	}
}

// inputs is everything a run feeds the system: the tenants' initial values
// and one pool of events in two directions. fwd walks every stream away
// from its initial value; bwd undoes fwd event by event (the time-reversed
// walk, which is the same process), so after fwd+bwd every stream is back
// at its initial value and the pool can be cycled for as long as a phase
// lasts without a discontinuity at the seam.
type inputs struct {
	defs      []tenantDef
	x0, y0    [][]float64 // initial values per tenant (y0 only for spatial tenants)
	x1, y1    [][]float64 // values after one fwd pass
	fwd, bwd  []runtime.Event
	perTenant []uint64 // events per tenant in one pass (either direction)
}

// reflect folds v back into the domain by mirroring at the boundaries.
func reflect(v float64) float64 {
	for v < domainLo || v > domainHi {
		if v < domainLo {
			v = 2*domainLo - v
		} else {
			v = 2*domainHi - v
		}
	}
	return v
}

// generate draws the inputs for defs from seed: events pick a stream
// uniformly over all tenants' streams, so every stream updates at the same
// rate and a tenant's share of the traffic is its share of the streams.
func generate(defs []tenantDef, seed int64, poolEvents int) *inputs {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{
		defs:      defs,
		x0:        make([][]float64, len(defs)),
		y0:        make([][]float64, len(defs)),
		x1:        make([][]float64, len(defs)),
		y1:        make([][]float64, len(defs)),
		fwd:       make([]runtime.Event, poolEvents),
		bwd:       make([]runtime.Event, poolEvents),
		perTenant: make([]uint64, len(defs)),
	}
	type slot struct{ tenant, stream int32 }
	var slots []slot
	for t, d := range defs {
		in.x0[t] = make([]float64, d.n)
		for s := range in.x0[t] {
			in.x0[t][s] = domainLo + rng.Float64()*(domainHi-domainLo)
			slots = append(slots, slot{int32(t), int32(s)})
		}
		in.x1[t] = append([]float64(nil), in.x0[t]...)
		if d.spatial() {
			in.y0[t] = make([]float64, d.n)
			for s := range in.y0[t] {
				in.y0[t][s] = domainLo + rng.Float64()*(domainHi-domainLo)
			}
			in.y1[t] = append([]float64(nil), in.y0[t]...)
		}
	}
	for i := range in.fwd {
		sl := slots[rng.Intn(len(slots))]
		t, s := int(sl.tenant), int(sl.stream)
		in.perTenant[t]++
		prev := runtime.Event{Tenant: t, Stream: s, Value: in.x1[t][s]}
		in.x1[t][s] = reflect(in.x1[t][s] + rng.NormFloat64()*sigma)
		next := runtime.Event{Tenant: t, Stream: s, Value: in.x1[t][s]}
		if in.y1[t] != nil {
			prev.Y = in.y1[t][s]
			in.y1[t][s] = reflect(in.y1[t][s] + rng.NormFloat64()*sigma)
			next.Y = in.y1[t][s]
		}
		in.fwd[i] = next
		in.bwd[poolEvents-1-i] = prev
	}
	return in
}

// next returns up to n events starting at position pos of the endless
// sequence fwd, bwd, fwd, bwd, …; a slice never crosses the end of a pass.
func (in *inputs) next(pos uint64, n int) []runtime.Event {
	pool := uint64(len(in.fwd))
	ev, off := in.fwd, int(pos%pool)
	if pos/pool%2 == 1 {
		ev = in.bwd
	}
	return ev[off:min(off+n, len(ev))]
}

// state returns, for tenant t after the first pos events of the sequence,
// the true stream values and how many of those events were the tenant's.
func (in *inputs) state(t int, pos uint64) (x, y []float64, events uint64) {
	pool := uint64(len(in.fwd))
	x, y = in.x0[t], in.y0[t]
	if pos/pool%2 == 1 {
		x, y = in.x1[t], in.y1[t]
	}
	x, y = append([]float64(nil), x...), append([]float64(nil), y...)
	events = pos / pool * in.perTenant[t]
	for _, ev := range in.next(pos-pos%pool, int(pos%pool)) {
		if ev.Tenant != t {
			continue
		}
		events++
		x[ev.Stream] = ev.Value
		if len(y) > 0 {
			y[ev.Stream] = ev.Y
		}
	}
	return x, y, events
}

// points returns spatial tenant t's initial locations.
func (in *inputs) points(t int) []filter.Point {
	pts := make([]filter.Point, len(in.x0[t]))
	for s := range pts {
		pts[s] = filter.Point{X: in.x0[t][s], Y: in.y0[t][s]}
	}
	return pts
}

// dists maps planar locations to their distance from (qx, qy), the
// ranking key of the spatial protocols.
func dists(x, y []float64, q filter.Point) []float64 {
	d := make([]float64, len(x))
	for i := range x {
		d[i] = filter.Dist(filter.Point{X: x[i], Y: y[i]}, q)
	}
	return d
}
