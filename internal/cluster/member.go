package cluster

import (
	"adaptivefilters/client"
	"adaptivefilters/internal/netserve"
	"adaptivefilters/internal/runtime"
	"adaptivefilters/internal/wire"
)

// Member is one serving node as the router sees it: an ingest lane plus
// the wire's control ops, so in-process and remote members are
// interchangeable. All calls come from the cluster's single router
// goroutine, preserving each node's single-caller contract.
type Member interface {
	// Ingest applies (or pipelines) one batch; events carry member-local
	// tenant ids. A pipelined implementation may defer errors to the next
	// barrier call.
	Ingest(events []runtime.Event) error
	// Do runs one control request (any op but OpIngest) and returns its
	// reply, or the member's error when the op is refused.
	Do(req wire.Request) (wire.Reply, error)
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

func (m *LocalMember) Ingest(events []runtime.Event) error { return m.node.Ingest(events) }

// Do applies req to the node exactly as a netserve server would; a refused
// op returns the node's own error.
func (m *LocalMember) Do(req wire.Request) (wire.Reply, error) { return netserve.Apply(m.node, req) }

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

func (m *RemoteMember) Ingest(events []runtime.Event) error {
	_, err := m.c.Ingest(events)
	return err
}

func (m *RemoteMember) Do(req wire.Request) (wire.Reply, error) { return m.c.Do(req) }
