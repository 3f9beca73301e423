// Cluster mode: -cluster N hosts the configured tenants on N in-process
// runtime nodes behind internal/cluster's consistent-hash router instead of
// one node. The tenants are admitted declaratively, so every one of them is
// migratable; -migrate-every forces round-robin live migrations mid-stream.
// The -answers dump must be byte-identical to a single-node run.
package main

import (
	"context"
	"fmt"
	"io"

	"adaptivefilters/internal/cluster"
	"adaptivefilters/internal/runtime"
)

// runCluster plays the tenants through the cluster router — its one lane —
// into the cluster itself as target.
func runCluster(p simParams, stdout io.Writer) error {
	ts, err := p.buildTenants()
	if err != nil {
		return err
	}
	mems := make([]cluster.Member, p.Cluster)
	shards := 0
	for m := range mems {
		node, err := runtime.NewNodeLabeled(runtime.Config{Shards: p.Shards, Seed: p.Seed}, nil, nil)
		if err != nil {
			return err
		}
		if err := node.Start(context.Background()); err != nil {
			return err
		}
		defer node.Stop()
		mems[m], shards = cluster.NewLocalMember(node), node.Shards()
	}
	c, err := cluster.New(cluster.Config{}, mems)
	if err != nil {
		return err
	}
	for _, spec := range ts.specs {
		if _, err := c.AddTenant(spec); err != nil {
			return err
		}
	}
	// Settle t0 initialization before the clock starts, as runNode does.
	if err := c.Drain(); err != nil {
		return err
	}

	// Round-robin cut: tenant (migrations % tenants) hops to the next member.
	migrations := 0
	migrate := periodically(0, p.MigrateEvery, func() error {
		g := migrations % p.Tenants
		m, err := c.MemberOf(g)
		if err != nil {
			return err
		}
		migrations++
		return c.MigrateTenant(g, (m+1)%p.Cluster)
	})
	res, err := p.play([]lane{c}, c, ts, 0, migrate)
	if err != nil {
		return err
	}

	stats, err := c.MemberStats()
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "cluster:    members=%d tenants=%d queries/tenant=%d shards=%d batch=%d\n",
		p.Cluster, p.Tenants, p.Queries, shards, p.Batch)
	if p.MigrateEvery > 0 {
		fmt.Fprintf(stdout, "migrations: %d forced (about every %d events)\n", migrations, p.MigrateEvery)
	}
	printIngested(stdout, res)
	owned := make([]int, p.Cluster)
	for g := 0; g < c.NumTenants(); g++ {
		if m, err := c.MemberOf(g); err == nil {
			owned[m]++
		}
	}
	for m, s := range stats {
		// s.Tenants counts every member-local slot ever used (migration
		// leaves dead slots behind); owned is the live placement.
		fmt.Fprintf(stdout, "  member %d: tenants=%d events=%d\n", m, owned[m], s.TotalEvents)
	}
	return p.finish(stdout, res.report, ts)
}
