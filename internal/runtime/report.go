package runtime

import (
	"fmt"
	"strings"

	"adaptivefilters/internal/comm"
	"adaptivefilters/internal/stream"
)

// Report is a structured, placement-free summary of a quiesced node's
// observable state: every tenant slot's answer set(s), event count and
// message counter, plus the node-level counter totals. It is the document
// the network serving plane ships to clients (internal/wire encodes it),
// and its Text rendering is the repository's determinism currency: the
// same (seed, tenants, queries, workload) must produce byte-identical
// Text output at any shard count, whether the report was built in-process
// or decoded off the wire — CI diffs exactly that.
type Report struct {
	// Tenants has one entry per tenant slot, evicted slots included
	// (Alive=false), in slot order.
	Tenants []TenantReport
	// Totals merges every live tenant's counter. Counters of evicted tenants
	// leave the totals with them: an eviction hands the tenant's accounting
	// to whoever evicted it.
	Totals comm.Counter
}

// TenantReport is one tenant slot's summary.
type TenantReport struct {
	// Alive is false for evicted slots; all other fields are then zero.
	Alive bool
	// Name is the tenant's label.
	Name string
	// Events counts the events the tenant has applied.
	Events uint64
	// Counter is the tenant's message counter (shared across all queries of
	// a multi-query tenant).
	Counter comm.Counter
	// Quarantined marks a tenant a panic has stopped. Its answers are not
	// read (Answer and Queries stay empty); its events and counter are
	// where the panic left them.
	Quarantined bool
	// MultiQuery marks composite tenants; their answers live in Queries,
	// a single-query tenant's in Answer.
	MultiQuery bool
	// Queries has one entry per query slot of a multi-query tenant, removed
	// slots included, in slot order.
	Queries []QueryReport
	// Answer is a single-query tenant's current answer set.
	Answer []stream.ID
}

// QueryReport is one query slot's summary inside a multi-query tenant.
type QueryReport struct {
	// Alive is false for removed query slots.
	Alive bool
	// Name is the query's label.
	Name string
	// Answer is the query's current answer set.
	Answer []stream.ID
}

// Report captures the node's current observable state; it is the one way
// to read a tenant's answers, events and messages. It must only be called
// quiesced (after Drain or Stop); the returned report shares nothing with
// the node.
func (n *Node) Report() *Report {
	rep := &Report{Tenants: make([]TenantReport, len(n.tenants))}
	for ti, t := range n.tenants {
		if t == nil {
			continue
		}
		tr := &rep.Tenants[ti]
		tr.Alive = true
		tr.Name = t.name
		tr.Events = t.events
		tr.Counter = *t.Counter()
		tr.Quarantined = t.fault != ""
		tr.MultiQuery = t.kind() == tenantKindMulti
		if !tr.Quarantined {
			t.report(tr)
		}
		// After report: a VB-kNN answer charges server ops, which the
		// totals count and the tenant's own copy, taken before, does not.
		rep.Totals.Merge(t.Counter())
	}
	return rep
}

// Text renders the report in the canonical answer-dump format streamsim's
// -answers flag writes and the CI determinism jobs byte-diff. Nothing in
// it is time-, placement- or transport-dependent.
func (r *Report) Text() string {
	var b strings.Builder
	for ti := range r.Tenants {
		t := &r.Tenants[ti]
		if !t.Alive {
			fmt.Fprintf(&b, "tenant %d removed\n", ti)
			continue
		}
		if t.Quarantined {
			fmt.Fprintf(&b, "tenant %s events=%d counter={%v} quarantined\n", t.Name, t.Events, &t.Counter)
			continue
		}
		if t.MultiQuery {
			fmt.Fprintf(&b, "tenant %s events=%d counter={%v}\n", t.Name, t.Events, &t.Counter)
			for qi := range t.Queries {
				q := &t.Queries[qi]
				if !q.Alive {
					fmt.Fprintf(&b, "  query %d removed\n", qi)
					continue
				}
				fmt.Fprintf(&b, "  query %s answer=%v\n", q.Name, q.Answer)
			}
			continue
		}
		fmt.Fprintf(&b, "tenant %s events=%d counter={%v} answer=%v\n",
			t.Name, t.Events, &t.Counter, t.Answer)
	}
	fmt.Fprintf(&b, "totals {%v}\n", &r.Totals)
	return b.String()
}
