package runtime_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"adaptivefilters/internal/core"
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

// legacyDump renders the node's state through the public accessors with the
// exact fmt logic cmd/streamsim's -answers flag used before Report existed —
// the format the CI determinism jobs have been diffing since PR 2.
func legacyDump(node *runtime.Node) string {
	var b strings.Builder
	for i := 0; i < node.NumTenants(); i++ {
		if !node.Alive(i) {
			fmt.Fprintf(&b, "tenant %d removed\n", i)
			continue
		}
		if node.MultiQuery(i) {
			fmt.Fprintf(&b, "tenant %s events=%d counter={%v}\n",
				node.TenantName(i), node.Events(i), node.Counter(i))
			for qi := 0; qi < node.NumQueries(i); qi++ {
				if !node.QueryAlive(i, qi) {
					fmt.Fprintf(&b, "  query %d removed\n", qi)
					continue
				}
				fmt.Fprintf(&b, "  query %s answer=%v\n", node.QueryName(i, qi), node.QueryAnswer(i, qi))
			}
			continue
		}
		fmt.Fprintf(&b, "tenant %s events=%d counter={%v} answer=%v\n",
			node.TenantName(i), node.Events(i), node.Counter(i), node.Answer(i))
	}
	totals := node.Totals()
	fmt.Fprintf(&b, "totals {%v}\n", &totals)
	return b.String()
}

// TestReportTextMatchesLegacyDump pins Report.Text to the historical answer
// dump format, through tenant and query lifecycle churn: the wire's
// byte-identity invariant leans on this renderer being the single source of
// the canonical dump.
func TestReportTextMatchesLegacyDump(t *testing.T) {
	specs := reportSpecs()
	node, err := runtime.NewNode(runtime.Config{Shards: 2, Seed: 11}, specs)
	if err != nil {
		t.Fatal(err)
	}
	if err := node.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer node.Stop()

	rng := sim.NewRNG(77)
	batch := make([]runtime.Event, 0, 64)
	for i := 0; i < 600; i++ {
		ti := rng.Intn(len(specs))
		s := rng.Intn(40)
		batch = append(batch, runtime.Event{Tenant: ti, Stream: s, Value: rng.Uniform(0, 1000)})
		if len(batch) == cap(batch) {
			if err := node.Ingest(batch); err != nil {
				t.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	if len(batch) > 0 {
		if err := node.Ingest(batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := node.Drain(); err != nil {
		t.Fatal(err)
	}
	if got, want := node.Report().Text(), legacyDump(node); got != want {
		t.Fatalf("Report.Text diverges from the legacy dump:\n got:\n%s\nwant:\n%s", got, want)
	}

	// Lifecycle churn: evict a tenant and a query slot, then re-check — the
	// removed-slot lines must render identically too.
	if err := node.RemoveTenant(1); err != nil {
		t.Fatal(err)
	}
	if err := node.RemoveQuery(2, 0); err != nil {
		t.Fatal(err)
	}
	if got, want := node.Report().Text(), legacyDump(node); got != want {
		t.Fatalf("Report.Text diverges after lifecycle churn:\n got:\n%s\nwant:\n%s", got, want)
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
