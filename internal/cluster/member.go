package cluster

import (
	"fmt"

	"adaptivefilters/client"
	"adaptivefilters/internal/runtime"
	"adaptivefilters/internal/wire"
)

// Member is one serving node as the router sees it: the runtime's
// ingest-side surface plus the migration primitives, speaking declarative
// wire.TenantSpecs so in-process and remote members are interchangeable.
// All calls come from the cluster's single router goroutine, preserving
// each node's single-caller contract.
type Member interface {
	// AddTenantLabeled admits a tenant under the cluster's global seed
	// label and returns the member-local slot id.
	AddTenantLabeled(spec wire.TenantSpec, label int64) (int, error)
	// RemoveTenant evicts member-local slot ti.
	RemoveTenant(ti int) error
	// AddQuery admits a standing query onto local tenant ti.
	AddQuery(ti int, q wire.QuerySpec) (int, error)
	// RemoveQuery evicts query slot qi of local tenant ti.
	RemoveQuery(ti, qi int) error
	// Ingest applies (or pipelines) one batch; events carry member-local
	// tenant ids. A pipelined implementation may defer errors to the next
	// barrier call.
	Ingest(events []runtime.Event) error
	// Drain blocks until every batch ingested so far is applied.
	Drain() error
	// Report returns the member's quiesced state (call after Drain).
	Report() (*runtime.Report, error)
	// ExportTenant captures local tenant ti's migration snapshot.
	ExportTenant(ti int) ([]byte, error)
	// ImportTenant restores a migrated tenant, returning its local slot.
	ImportTenant(spec wire.TenantSpec, snap []byte) (int, error)
	// Stats returns the member's load figures.
	Stats() (wire.Stats, error)
}

// LocalMember hosts a runtime.Node in-process. The member owns the
// ingest-side role; the caller must not drive the node directly while the
// cluster uses it.
type LocalMember struct {
	node *runtime.Node
}

// NewLocalMember wraps a started node.
func NewLocalMember(node *runtime.Node) *LocalMember { return &LocalMember{node: node} }

// Node exposes the wrapped node (tests and shutdown paths).
func (m *LocalMember) Node() *runtime.Node { return m.node }

func (m *LocalMember) AddTenantLabeled(spec wire.TenantSpec, label int64) (int, error) {
	rspec, err := spec.Runtime()
	if err != nil {
		return 0, err
	}
	return m.node.AddTenantLabeled(rspec, label)
}

func (m *LocalMember) RemoveTenant(ti int) error { return m.node.RemoveTenant(ti) }

func (m *LocalMember) AddQuery(ti int, q wire.QuerySpec) (int, error) {
	if ti < 0 || ti >= m.node.NumTenants() || !m.node.Alive(ti) {
		return 0, fmt.Errorf("cluster: no live tenant %d", ti)
	}
	rq, err := q.Runtime(m.node.StreamCount(ti))
	if err != nil {
		return 0, err
	}
	return m.node.AddQuery(ti, rq)
}

func (m *LocalMember) RemoveQuery(ti, qi int) error { return m.node.RemoveQuery(ti, qi) }

func (m *LocalMember) Ingest(events []runtime.Event) error { return m.node.Ingest(events) }

func (m *LocalMember) Drain() error { return m.node.Drain() }

func (m *LocalMember) Report() (*runtime.Report, error) { return m.node.Report(), nil }

func (m *LocalMember) ExportTenant(ti int) ([]byte, error) { return m.node.ExportTenant(ti) }

func (m *LocalMember) ImportTenant(spec wire.TenantSpec, snap []byte) (int, error) {
	rspec, err := spec.Runtime()
	if err != nil {
		return 0, err
	}
	return m.node.ImportTenant(rspec, snap)
}

func (m *LocalMember) Stats() (wire.Stats, error) {
	return wire.Stats{
		Pending:     m.node.PendingEvents(),
		QueueCap:    m.node.QueueCap(),
		TotalEvents: m.node.TotalEvents(),
		Tenants:     m.node.NumTenants(),
	}, nil
}

// RemoteMember drives a netserve endpoint through the wire client. Ingest
// pipelines (the client's inflight window applies); barrier calls flush.
// Serve the endpoint with shedding disabled (netserve
// Options.ShedWatermark < 0) when bit-determinism matters — a shed batch
// is a visible drop the cluster does not replay.
type RemoteMember struct {
	c *client.Client
}

// NewRemoteMember wraps a connected client.
func NewRemoteMember(c *client.Client) *RemoteMember { return &RemoteMember{c: c} }

// Client exposes the wrapped client (shutdown paths).
func (m *RemoteMember) Client() *client.Client { return m.c }

func (m *RemoteMember) AddTenantLabeled(spec wire.TenantSpec, label int64) (int, error) {
	return m.c.AddTenantLabeled(spec, label)
}

func (m *RemoteMember) RemoveTenant(ti int) error { return m.c.RemoveTenant(ti) }

func (m *RemoteMember) AddQuery(ti int, q wire.QuerySpec) (int, error) {
	return m.c.AddQuery(ti, q)
}

func (m *RemoteMember) RemoveQuery(ti, qi int) error { return m.c.RemoveQuery(ti, qi) }

func (m *RemoteMember) Ingest(events []runtime.Event) error {
	_, err := m.c.Ingest(events)
	return err
}

func (m *RemoteMember) Drain() error { return m.c.Drain() }

func (m *RemoteMember) Report() (*runtime.Report, error) { return m.c.Report() }

func (m *RemoteMember) ExportTenant(ti int) ([]byte, error) { return m.c.ExportTenant(ti) }

func (m *RemoteMember) ImportTenant(spec wire.TenantSpec, snap []byte) (int, error) {
	return m.c.ImportTenant(spec, snap)
}

func (m *RemoteMember) Stats() (wire.Stats, error) { return m.c.NodeStats() }
