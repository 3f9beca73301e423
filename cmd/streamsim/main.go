// Command streamsim runs one configured simulation: a workload, a query, a
// protocol and a tolerance, hosted as tenants of a sharded runtime.Node —
// one by default, many independent instances with -tenants — and prints
// per-tenant and node-level message accounting (by message kind), ingest
// throughput and, with -check, oracle verification.
//
// Examples:
//
//	streamsim -workload synthetic -protocol ft-nrp -eps 0.2
//	streamsim -workload tcp -protocol rtp -k 20 -r 5 -check
//	streamsim -workload synthetic -protocol ft-rp -k 50 -eps 0.3 -q 500
//	streamsim -tenants 16 -shards 4 -n 200 -events 5000 -protocol ft-nrp
//
// With -listen the process becomes the serving side of the wire: it hosts
// the configured node behind a TCP front end (internal/netserve) and
// applies whatever clients send, until a client's -shutdown or SIGINT.
// With -connect it becomes the driving side: an open-loop load generator
// that plays the configured workload against a remote -listen process,
// measures ingest ack latency against intended send deadlines, and can
// fetch the remote answer dump for byte-comparison with a local run:
//
//	streamsim -tenants 16 -shards 4 -listen :7070
//	streamsim -tenants 16 -connect localhost:7070 -rate 100000 \
//	    -answers remote.txt -shutdown
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"adaptivefilters/internal/protospec"
	"adaptivefilters/internal/runtime"
)

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "streamsim:", err)
		os.Exit(2)
	}
}

// parseFlags binds every flag to its simParams field.
func parseFlags(args []string, stderr io.Writer) (simParams, error) {
	var p simParams
	fs := flag.NewFlagSet("streamsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&p.Workload, "workload", "synthetic", "workload: synthetic | tcp | replay")
	fs.StringVar(&p.Trace, "trace", "", "CSV trace file for -workload replay (time,stream,value)")
	fs.StringVar(&p.Proto, "protocol", "ft-nrp", "protocol: "+strings.Join(protospec.Protocols, " | "))
	fs.IntVar(&p.N, "n", 1000, "number of streams")
	fs.IntVar(&p.Events, "events", 50000, "approximate number of events")
	fs.Float64Var(&p.Sigma, "sigma", 20, "synthetic random-walk step deviation")
	fs.Int64Var(&p.Seed, "seed", 1, "determinism seed")
	fs.Float64Var(&p.Lo, "lo", 400, "range query lower bound")
	fs.Float64Var(&p.Hi, "hi", 600, "range query upper bound")
	fs.IntVar(&p.K, "k", 20, "rank requirement for k-NN/top-k protocols")
	fs.IntVar(&p.R, "r", 5, "rank slack for rtp")
	fs.Float64Var(&p.Q, "q", 500, "k-NN query point (use -top for q=+inf)")
	fs.Float64Var(&p.QX, "qx", 500, "spatial query point X for rtp2d/ft-rp2d")
	fs.Float64Var(&p.QY, "qy", 500, "spatial query point Y for rtp2d/ft-rp2d")
	fs.BoolVar(&p.Top, "top", false, "use the top-k (q=+inf) transform")
	eps := fs.Float64("eps", 0.2, "symmetric fraction tolerance ε⁺=ε⁻")
	fs.Float64Var(&p.Width, "width", 100, "value tolerance ε_v for vb-knn")
	fs.Float64Var(&p.EpsPlus, "eps-plus", 0, "explicit ε⁺ (default: the -eps value)")
	fs.Float64Var(&p.EpsMinus, "eps-minus", 0, "explicit ε⁻ (default: the -eps value)")
	fs.StringVar(&p.Selection, "selection", "boundary", "silent filter selection: boundary | random")
	fs.BoolVar(&p.Check, "check", false, "verify answers against the ground-truth oracle")
	fs.IntVar(&p.CheckEvery, "check-every", 10, "oracle sampling period")
	fs.BoolVar(&p.Verbose, "v", false, "print every tenant's summary line (printed anyway for at most 8 tenants) and the per-shard stats")
	fs.IntVar(&p.Tenants, "tenants", 1, "host this many independent (workload × query) tenants on one node")
	fs.IntVar(&p.Queries, "queries", 1, "standing queries per tenant: with -queries M > 1 each tenant is a composite multi-query tenant whose M queries (shifted copies of the configured query) share one value table, one counter and composite filters")
	fs.IntVar(&p.Shards, "shards", 1, "event-loop goroutines (-1 = GOMAXPROCS)")
	fs.IntVar(&p.Batch, "batch", 512, "ingest batch size")
	fs.IntVar(&p.Ingesters, "ingesters", 1, "concurrent ingest goroutines, each with its own runtime.Ingester; tenant i's traffic flows through ingester i mod N, so answers stay byte-identical at any count")
	fs.IntVar(&p.Conns, "conns", 1, "TCP connections for -connect, each with its own pipeline; tenant i's traffic flows through connection i mod N")
	fs.StringVar(&p.Answers, "answers", "", "write a timing-free per-tenant answer/counter dump to this file; byte-identical at any -shards, the determinism matrix diffs it")
	fs.IntVar(&p.SnapEvery, "snapshot-every", 0, "take a barrier-consistent node snapshot about every N ingested events (0 = off)")
	fs.StringVar(&p.SnapFile, "snapshot-file", "streamsim.snap", "file the latest -snapshot-every snapshot is written to")
	fs.StringVar(&p.Restore, "restore", "", "resume from a node snapshot file instead of starting fresh (pass the same workload/protocol flags as the snapshotting run)")
	fs.IntVar(&p.Cluster, "cluster", 0, "host the tenants on this many in-process cluster members behind a consistent-hash router instead of one node (0 = off); answers stay byte-identical to a single node at any member count")
	fs.IntVar(&p.MigrateEvery, "migrate-every", 0, "with -cluster, force a round-robin live tenant migration about every N ingested events (0 = no forced migrations)")
	fs.StringVar(&p.ReadyFile, "ready-file", "", "with -listen, write the resolved listen address to this file once the server is accepting (scripts poll it instead of sleeping)")
	fs.StringVar(&p.Listen, "listen", "", "serve the configured node over TCP on this address (e.g. :7070) instead of ingesting locally")
	fs.StringVar(&p.Connect, "connect", "", "drive a -listen process at this address with the configured workload instead of hosting a node")
	fs.Float64Var(&p.Rate, "rate", 0, "open-loop target ingest rate in events/sec for -connect (0 = unpaced)")
	fs.BoolVar(&p.Shutdown, "shutdown", false, "ask the remote process to stop after a -connect run")
	if err := fs.Parse(args); err != nil {
		return p, err
	}
	// -eps fills only the sides the command line left unset, so a negative
	// -eps-plus or -eps-minus reaches validation instead of a default.
	plus, minus := *eps, *eps
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "eps-plus":
			plus = p.EpsPlus
		case "eps-minus":
			minus = p.EpsMinus
		}
	})
	p.EpsPlus, p.EpsMinus = plus, minus
	return p, nil
}

// run is the whole command: parse, validate, pick the mode. It never exits
// the process, so tests drive every mode in-process.
func run(args []string, stdout, stderr io.Writer) error {
	p, err := parseFlags(args, stderr)
	if err != nil {
		return err
	}
	if err := p.validate(); err != nil {
		return fmt.Errorf("%w\nrun with -h for usage", err)
	}
	switch {
	case p.Listen != "":
		return runListen(p, stdout)
	case p.Connect != "":
		return runConnect(p, stdout)
	case p.clusterMode():
		return runCluster(p, stdout)
	default:
		return runNode(p, stdout)
	}
}

// startNode hosts the tenants on one started runtime.Node — fresh, or with
// -restore resumed from that snapshot — whose t0 initialization has
// finished, so throughput figures measure steady-state ingest.
func startNode(ctx context.Context, p simParams, ts tenantSet, stdout io.Writer) (*runtime.Node, error) {
	specs, err := ts.runtimeSpecs()
	if err != nil {
		return nil, err
	}
	cfg := runtime.Config{Shards: p.Shards, Seed: p.Seed}
	var node *runtime.Node
	if p.Restore != "" {
		data, err := os.ReadFile(p.Restore)
		if err != nil {
			return nil, err
		}
		if node, err = runtime.RestoreNode(cfg, specs, data); err != nil {
			return nil, fmt.Errorf("restoring %s: %w", p.Restore, err)
		}
		fmt.Fprintf(stdout, "restored:   %s (%d events already applied)\n", p.Restore, node.TotalEvents())
	} else if node, err = runtime.NewNode(cfg, specs); err != nil {
		return nil, err
	}
	if err := node.Start(ctx); err != nil {
		return nil, err
	}
	if err := node.Drain(); err != nil {
		node.Stop()
		return nil, err
	}
	return node, nil
}

// runNode hosts the tenants on one runtime.Node and plays them in through
// -ingesters lanes. With -snapshot-every the node snapshots itself at batch
// boundaries, overwriting -snapshot-file; a -restore run with the same
// flags finishes byte-identical to an uninterrupted one at any shard count.
func runNode(p simParams, stdout io.Writer) error {
	ts, err := p.buildTenants()
	if err != nil {
		return err
	}
	node, err := startNode(context.Background(), p, ts, stdout)
	if err != nil {
		return err
	}
	defer node.Stop()
	// The merged ingress order is deterministic, so the events a restored
	// snapshot already holds are exactly its first TotalEvents() entries.
	skip := node.TotalEvents()
	lanes := make([]lane, p.Ingesters)
	for g := range lanes {
		lanes[g] = node.NewIngester()
	}
	// validate keeps snapshots to one lane: a restore replays a sequential
	// global ingest prefix.
	snapshot := periodically(skip, p.SnapEvery, func() error {
		snap, err := node.Snapshot()
		if err != nil {
			return err
		}
		return os.WriteFile(p.SnapFile, snap, 0o644)
	})
	res, err := p.play(lanes, nodeTarget{node}, ts, skip, snapshot)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "tenants:    %d   queries/tenant: %d   shards: %d   batch: %d   ingesters: %d\n",
		p.Tenants, p.Queries, node.Shards(), p.Batch, p.Ingesters)
	printIngested(stdout, res)
	if err := p.finish(stdout, res.report, ts); err != nil {
		return err
	}
	if p.Verbose {
		for _, st := range node.ShardStats() {
			fmt.Fprintf(stdout, "  shard %-3d queued=%-4d applied=%-8d tenants=%d\n",
				st.Shard, st.Queued, st.Applied, st.Tenants)
		}
	}
	return nil
}
