package main

import (
	"fmt"

	"adaptivefilters/internal/protospec"
	"adaptivefilters/internal/runtime"
	"adaptivefilters/internal/wire"
)

// nodeSeed is the runtime seed of every node the benchmark builds; the
// workload seed (-seed) only drives the generated inputs, so a tenant's
// protocol randomness is the same on the full stack and on the reference.
const nodeSeed = 42

// surface names the serving surface a workload drives.
type surface int

const (
	surfaceWire    surface = iota // client → TCP loopback → netserve → node
	surfaceNode                   // runtime.Ingester → node, in-process
	surfaceCluster                // cluster.Cluster over local members
)

// workload is one traffic mix and the stack that serves it.
type workload struct {
	name    string
	surface surface
	shards  int // per node (per member on the cluster surface)
	members int // cluster surface only
	defs    []tenantDef
	// pool is the number of distinct events generated (one pass); the run
	// cycles through it forward and backward for as long as it lasts. A
	// larger pool averages more independent input into every figure, which
	// is what keeps them steady from seed to seed.
	pool int
	// prologue is how many events the verification prologue plays through
	// both the full stack and the reference node, and segment how many one
	// saturation segment holds (0.1–0.15 s of work on the reference box).
	prologue, segment uint64
	// batch is the events per ingest call, in every phase.
	batch int
	// ctlEvery, when non-zero, runs one control round (cluster: one
	// MigrateTenant plus one AddQuery+RemoveQuery pair) every that many
	// events.
	ctlEvery uint64
	// pricePlusRTP makes the ledger also price the first composite tenant
	// with one RTP query added (server.composite-rtp).
	pricePlusRTP bool
}

// pacedRate is the events/s offered in the paced phase.
const pacedRate = 2e6

func ftnrp(lo, hi float64) protospec.Spec {
	return protospec.Spec{Protocol: "ft-nrp", Lo: lo, Hi: hi, EpsPlus: 0.2, EpsMinus: 0.2}
}

// workloads returns the four workloads. The reasons each exists are in
// BENCHMARK.json and benchmark/README.md.
func workloads() []workload {
	wireRange := workload{name: "wire-range", surface: surfaceWire, shards: 1, pool: 1 << 21, prologue: 1 << 20, segment: 1 << 20, batch: 32}
	for i := 0; i < 8; i++ {
		wireRange.defs = append(wireRange.defs, tenantDef{
			name: fmt.Sprintf("ft-nrp-%d", i), n: 250, spec: ftnrp(400, 600),
		})
	}

	nodeRank := workload{name: "node-rank", surface: surfaceNode, shards: 2, pool: 1 << 22, prologue: 1 << 19, segment: 1 << 19, batch: 256, defs: []tenantDef{
		{name: "rtp", n: 2000, spec: protospec.Spec{Protocol: "rtp", K: 20, R: 5, Q: 500}},
		{name: "rtp-top", n: 2000, spec: protospec.Spec{Protocol: "rtp", K: 20, R: 5, Top: true}},
		{name: "ft-rp", n: 2000, spec: protospec.Spec{Protocol: "ft-rp", K: 20, Q: 500, EpsPlus: 0.2, EpsMinus: 0.2}},
		{name: "vb-knn", n: 2000, spec: protospec.Spec{Protocol: "vb-knn", K: 20, Q: 500, Width: 40}},
		{name: "rtp2d", n: 1000, spec: protospec.Spec{Protocol: "rtp2d", K: 20, R: 5, QX: 500, QY: 500}},
		{name: "ft-rp2d", n: 1000, spec: protospec.Spec{Protocol: "ft-rp2d", K: 20, QX: 500, QY: 500, EpsPlus: 0.2, EpsMinus: 0.2}},
	}}

	nodeMulti := workload{name: "node-multiquery", surface: surfaceNode, shards: 2, pool: 1 << 20, prologue: 1 << 18, segment: 1 << 18, batch: 256, pricePlusRTP: true}
	for i := 0; i < 4; i++ {
		nodeMulti.defs = append(nodeMulti.defs, tenantDef{
			name: fmt.Sprintf("composite-%d", i), n: 64, queries: multiQueries(),
		})
	}

	churn := workload{name: "cluster-churn", surface: surfaceCluster, shards: 1, members: 3,
		pool: 1 << 22, prologue: 1 << 20, segment: 1 << 20, batch: 256, ctlEvery: 500_000}
	for i := 0; i < 4; i++ {
		churn.defs = append(churn.defs, tenantDef{
			name: fmt.Sprintf("ft-nrp-%d", i), n: 1000, spec: ftnrp(400, 600),
		})
	}
	for i := 0; i < 4; i++ {
		churn.defs = append(churn.defs, tenantDef{
			name: fmt.Sprintf("rtp-%d", i), n: 1000, spec: protospec.Spec{Protocol: "rtp", K: 10, R: 5, Q: 500},
		})
	}
	for i := 0; i < 4; i++ {
		d := tenantDef{name: fmt.Sprintf("composite-%d", i), n: 1000}
		for q := 0; q < 8; q++ {
			lo := 100 + 90*float64(q)
			d.queries = append(d.queries, wire.QuerySpec{Name: fmt.Sprintf("q%d", q), Spec: ftnrp(lo, lo+150)})
		}
		churn.defs = append(churn.defs, d)
	}
	return []workload{wireRange, nodeRank, nodeMulti, churn}
}

// multiQueries is node-multiquery's 64 standing queries: 28 FT-NRP drawn
// from 16 bands (so some bands are asked twice and share one evaluation
// class in the per-stream query index), 28 distinct overlapping FT-NRP, and
// 8 ZT-NRP. No rank query: one RTP among the 64 dominates the run and
// hides the index, so it is the layer metric server.composite-rtp instead.
func multiQueries() []wire.QuerySpec {
	var qs []wire.QuerySpec
	for i := 0; i < 28; i++ {
		lo := 60 * float64(i%16)
		qs = append(qs, wire.QuerySpec{Name: fmt.Sprintf("band-%d", i), Spec: ftnrp(lo, lo+100)})
	}
	for i := 0; i < 28; i++ {
		lo := 100 + 25*float64(i)
		qs = append(qs, wire.QuerySpec{Name: fmt.Sprintf("range-%d", i), Spec: ftnrp(lo, lo+200)})
	}
	for i := 0; i < 8; i++ {
		lo := 120 * float64(i)
		qs = append(qs, wire.QuerySpec{Name: fmt.Sprintf("zt-%d", i), Spec: protospec.Spec{Protocol: "zt-nrp", Lo: lo, Hi: lo + 80}})
	}
	return qs
}

// churnQuery is the standing query cluster-churn admits and evicts in each
// control round.
var churnQuery = wire.QuerySpec{Name: "churn", Spec: ftnrp(300, 700)}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// wireSpec renders tenant t declaratively (cluster and netserve admission).
func (in *inputs) wireSpec(t int) wire.TenantSpec {
	d := in.defs[t]
	return wire.TenantSpec{Name: d.name, Initial: in.x0[t], Spec: d.spec, Queries: d.queries}
}

// runtimeSpecs compiles every tenant into the factory form runtime.NewNode
// admits. 1-D tenants go through wire.TenantSpec.Runtime, the same
// validation an admission off the network gets; spatial tenants are
// in-process only and compile through protospec directly.
func (in *inputs) runtimeSpecs() ([]runtime.TenantSpec, error) {
	specs := make([]runtime.TenantSpec, len(in.defs))
	for t, d := range in.defs {
		if !d.spatial() {
			rs, err := in.wireSpec(t).Runtime()
			if err != nil {
				return nil, fmt.Errorf("tenant %s: %w", d.name, err)
			}
			specs[t] = rs
			continue
		}
		if err := d.spec.Validate(d.n); err != nil {
			return nil, fmt.Errorf("tenant %s: %w", d.name, err)
		}
		build, err := d.spec.SpatialFactory()
		if err != nil {
			return nil, fmt.Errorf("tenant %s: %w", d.name, err)
		}
		specs[t] = runtime.TenantSpec{Name: d.name, SpatialInitial: in.points(t), NewSpatial: build}
	}
	return specs, nil
}
