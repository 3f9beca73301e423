package runtime_test

import (
	"context"
	"reflect"
	"slices"
	"strings"
	"testing"

	"adaptivefilters/internal/comm"
	"adaptivefilters/internal/core"
	"adaptivefilters/internal/pintest"
	"adaptivefilters/internal/query"
	"adaptivefilters/internal/runtime"
	"adaptivefilters/internal/server"
	"adaptivefilters/internal/sim"
)

// reportSpecs builds a small mixed population: one single-query FT-NRP
// tenant, one RTP tenant, one multi-query composite tenant.
func reportSpecs() []runtime.TenantSpec {
	initial := func(n int, seed int64) []float64 {
		rng := sim.NewRNG(seed)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.Uniform(0, 1000)
		}
		return vals
	}
	ftnrp := func(lo, hi float64) func(h server.Host, seed int64) server.Protocol {
		return func(h server.Host, seed int64) server.Protocol {
			return core.NewFTNRP(h, query.NewRange(lo, hi), core.FTNRPConfig{
				Tol:       core.FractionTolerance{EpsPlus: 0.3, EpsMinus: 0.3},
				Selection: core.SelectBoundaryNearest,
				Seed:      seed,
			})
		}
	}
	return []runtime.TenantSpec{
		{Name: "single-ft", Initial: initial(40, 3), NewProtocol: ftnrp(300, 700)},
		{Name: "single-rtp", Initial: initial(50, 4), NewProtocol: func(h server.Host, _ int64) server.Protocol {
			return core.NewRTP(h, query.At(500), core.RankTolerance{K: 5, R: 2})
		}},
		{Name: "multi", Initial: initial(45, 5), Queries: []runtime.QuerySpec{
			{Name: "qa", NewProtocol: ftnrp(200, 500)},
			{Name: "qb", NewProtocol: ftnrp(400, 800)},
		}},
	}
}

// startReportNode starts a two-shard node over reportSpecs, stopped when
// the test ends.
func startReportNode(t *testing.T) *runtime.Node {
	t.Helper()
	node, err := runtime.NewNode(runtime.Config{Shards: 2, Seed: 11}, reportSpecs())
	if err != nil {
		t.Fatal(err)
	}
	if err := node.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(node.Stop)
	return node
}

// playReport ingests 600 seeded events spread over every reportSpecs
// tenant, in batches of 64, and drains.
func playReport(t *testing.T, node *runtime.Node, seed int64) {
	t.Helper()
	rng := sim.NewRNG(seed)
	batch := make([]runtime.Event, 0, 64)
	for i := 0; i < 600; i++ {
		ti := rng.Intn(node.NumTenants())
		s := rng.Intn(40)
		batch = append(batch, runtime.Event{Tenant: ti, Stream: s, Value: rng.Uniform(0, 1000)})
		if len(batch) == cap(batch) || i == 599 {
			if err := node.Ingest(batch); err != nil {
				t.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	if err := node.Drain(); err != nil {
		t.Fatal(err)
	}
}

// TestReportTextMatchesLegacyDump pins Report.Text byte for byte to
// testdata/report.golden, through tenant and query lifecycle churn. The file
// was recorded from the historical answer-dump format cmd/streamsim's
// -answers flag wrote before Report existed, the format the determinism
// matrix has diffed since; Report is the single source of that dump, so a
// mismatch is a format change, not a re-record.
func TestReportTextMatchesLegacyDump(t *testing.T) {
	node := startReportNode(t)
	playReport(t, node, 77)
	text := "# drained\n" + node.Report().Text()

	// Lifecycle churn: evict a tenant and a query slot, then re-check — the
	// removed-slot lines must render identically too.
	if err := node.RemoveTenant(1); err != nil {
		t.Fatal(err)
	}
	if err := node.RemoveQuery(2, 0); err != nil {
		t.Fatal(err)
	}
	text += "# after RemoveTenant(1), RemoveQuery(2, 0)\n" + node.Report().Text()
	pintest.Check(t, "testdata/report.golden", strings.Split(strings.TrimSuffix(text, "\n"), "\n"), false)
}

// cloneReport deep-copies a report.
func cloneReport(r *runtime.Report) *runtime.Report {
	c := &runtime.Report{Tenants: slices.Clone(r.Tenants), Totals: r.Totals}
	for i := range c.Tenants {
		t := &c.Tenants[i]
		t.Answer = slices.Clone(t.Answer)
		t.Queries = slices.Clone(t.Queries)
		for j := range t.Queries {
			t.Queries[j].Answer = slices.Clone(t.Queries[j].Answer)
		}
	}
	return c
}

// TestReportSharesNothing holds Report, the node's only read path, to its
// promise: a caller may write anywhere in a report without touching the
// node, and the node moving on does not touch the report. A twin node
// that is never read stands for the untouched state.
func TestReportSharesNothing(t *testing.T) {
	node, twin := startReportNode(t), startReportNode(t)
	playReport(t, node, 77)
	playReport(t, twin, 77)

	rep := node.Report()
	for i := range rep.Tenants {
		tr := &rep.Tenants[i]
		for k := range tr.Answer {
			tr.Answer[k] = -1
		}
		for _, q := range tr.Queries {
			for k := range q.Answer {
				q.Answer[k] = -1
			}
		}
		tr.Counter.Add(comm.Update, 1000)
		tr.Counter.AddServerOps(1000)
	}
	rep.Totals.Reset()
	written := cloneReport(rep)
	if !strings.Contains(written.Text(), "-1") {
		t.Fatalf("no answer was written into:\n%s", written.Text())
	}

	playReport(t, node, 78)
	playReport(t, twin, 78)
	if got, want := node.Report().Text(), twin.Report().Text(); got != want {
		t.Errorf("writes into a report reached the node:\n got:\n%s\nwant:\n%s", got, want)
	}
	if !reflect.DeepEqual(rep, written) {
		t.Errorf("the node moved a report it had handed out:\n got:\n%s\nwant:\n%s", rep.Text(), written.Text())
	}
}

// TestPendingEventsQuiescent checks the watermark accessor reads zero on a
// drained node and QueueCap reports the configured capacity in events.
func TestPendingEventsQuiescent(t *testing.T) {
	node, err := runtime.NewNode(runtime.Config{Shards: 2, Seed: 1, Queue: 8}, reportSpecs())
	if err != nil {
		t.Fatal(err)
	}
	if got := node.QueueCap(); got != 8 {
		t.Fatalf("QueueCap = %d, want 8", got)
	}
	if err := node.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer node.Stop()
	if err := node.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := node.PendingEvents(); got != 0 {
		t.Fatalf("PendingEvents on a drained node = %d, want 0", got)
	}
}
