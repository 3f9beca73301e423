// Package experiment wires workloads, clusters, protocols and the oracle
// into reproducible runs, and regenerates every figure of the paper's
// evaluation section (Figures 9–15) plus the supplemental studies (the
// Figure 1 motivation experiment, the server-computation table) and the
// ablations listed in DESIGN.md.
package experiment

import (
	"context"
	"fmt"

	"adaptivefilters/internal/comm"
	"adaptivefilters/internal/oracle"
	"adaptivefilters/internal/runtime"
	"adaptivefilters/internal/server"
	"adaptivefilters/internal/workload"
)

// Config describes one simulation run.
type Config struct {
	// Workload drives the stream values.
	Workload workload.Workload
	// NewProtocol builds the protocol under test over the serving host (a
	// *server.Cluster, the one a runtime.Node gives any single-query
	// tenant). The seed argument is Config.Seed — in figure grids, the
	// per-cell seed derived by the engine — and must be the constructor's
	// only randomness source so runs stay reproducible under any cell
	// scheduling.
	NewProtocol func(c server.Host, seed int64) server.Protocol
	// Seed seeds NewProtocol and the serving node (hence uplink loss).
	Seed int64
	// UplinkLoss is the tenant's runtime.TenantSpec.UplinkLoss.
	UplinkLoss float64
	// Check optionally holds the served answer to a guarantee: a fresh
	// auditor over Workload.Initial(), asked every Check.Every events.
	Check *oracle.Auditor
	// MaxEvents caps delivered events (0 = whole workload).
	MaxEvents int
}

// Result summarizes one run.
type Result struct {
	Protocol     string
	Workload     string
	Events       int
	InitMessages uint64
	// MaintMessages is the paper's metric: all messages after t0.
	MaintMessages uint64
	ByKind        map[string]uint64
	ServerOps     uint64
	FinalAnswer   []int
	// Tally is what Config.Check saw (zero without one).
	oracle.Tally
}

// runBatch is the ingest batch of the stretches of a run nobody audits.
const runBatch = 512

// Run executes one simulation to completion and returns its summary. The
// cell is served the way a deployment serves it — as the one tenant of a
// one-shard runtime.Node — so what a figure measures is the serving stack,
// and an audit sees the answer a client would be handed. A sample costs a
// Drain barrier: ingest batches end on each sampling point.
func Run(cfg Config) Result {
	if cfg.Workload == nil || cfg.NewProtocol == nil {
		panic("experiment: Config needs Workload and NewProtocol")
	}
	var proto server.Protocol
	node, err := runtime.NewNode(runtime.Config{Seed: cfg.Seed}, []runtime.TenantSpec{{
		Initial:    cfg.Workload.Initial(),
		UplinkLoss: cfg.UplinkLoss,
		// The protocol draws from the cell's seed, not from the one the node
		// derives for tenant 0: a figure's bytes must not depend on its host.
		NewProtocol: func(h server.Host, _ int64) server.Protocol {
			proto = cfg.NewProtocol(h, cfg.Seed)
			return proto
		},
	}})
	must(err)
	must(node.Start(context.Background()))
	defer node.Stop()

	res := Result{Protocol: proto.Name(), Workload: cfg.Workload.Name()}
	aud := cfg.Check
	buf := make([]runtime.Event, 0, runBatch)
	evs := cfg.Workload.Events()
	if cfg.MaxEvents > 0 && cfg.MaxEvents < len(evs) {
		evs = evs[:cfg.MaxEvents]
	}
	for i, ev := range evs {
		buf = append(buf, runtime.Event{Stream: ev.Stream, Value: ev.Value})
		due := false
		if aud != nil {
			aud.Apply(ev.Stream, ev.Value, 0)
			due = aud.Every > 0 && (i+1)%aud.Every == 0
		}
		if due || len(buf) == runBatch {
			must(node.Ingest(buf))
			buf = buf[:0]
		}
		if due {
			must(node.Drain())
			aud.Audit(uint64(i+1), node.Report().Tenants[0].Answer)
		}
	}
	res.Events = len(evs)
	must(node.Ingest(buf))
	must(node.Drain())

	// The report's counter is taken before its answer, which for a k-NN
	// baseline charges server ops of its own.
	tr := node.Report().Tenants[0]
	ctr := &tr.Counter
	res.InitMessages = ctr.PhaseTotal(comm.Init)
	res.MaintMessages = ctr.Maintenance()
	res.ServerOps = ctr.ServerOps
	res.ByKind = make(map[string]uint64, 4)
	for _, k := range comm.Kinds() {
		res.ByKind[k.String()] = ctr.Get(comm.Maintenance, k)
	}
	res.FinalAnswer = tr.Answer
	if aud != nil {
		res.Tally = aud.Tally
	}
	return res
}

// must panics on a node error: the node is private to the run, so one means
// a workload event no tenant could take (an unknown stream, a NaN).
func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("experiment: %v", err))
	}
}
