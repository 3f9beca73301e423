package server

import (
	"testing"

	"adaptivefilters/internal/comm"
	"adaptivefilters/internal/filter"
	"adaptivefilters/internal/stream"
)

// fakeProto records protocol callbacks and optionally reacts to updates.
type fakeProto struct {
	c        *Cluster
	inited   int
	updates  []stream.ID
	onUpdate func(id stream.ID, v float64)
}

func (p *fakeProto) Name() string { return "fake" }
func (p *fakeProto) Initialize()  { p.inited++ }
func (p *fakeProto) HandleUpdate(id stream.ID, v float64) {
	p.updates = append(p.updates, id)
	if p.onUpdate != nil {
		p.onUpdate(id, v)
	}
}
func (p *fakeProto) Answer() []stream.ID { return nil }

func newTestCluster(vals []float64) (*Cluster, *fakeProto) {
	c := NewCluster(vals)
	p := &fakeProto{c: c}
	c.SetProtocol(p)
	return c, p
}

func TestInitializePhaseAccounting(t *testing.T) {
	c, p := newTestCluster([]float64{1, 2, 3})
	p.onUpdate = nil
	c.Initialize()
	if p.inited != 1 {
		t.Fatalf("Initialize called %d times, want 1", p.inited)
	}
	if got := c.Counter().Phase(); got != comm.Maintenance {
		t.Fatalf("phase after Initialize = %v, want Maintenance", got)
	}
}

func TestProbeCountsTwoMessagesAndRefreshesTable(t *testing.T) {
	c, _ := newTestCluster([]float64{10, 20, 30})
	c.Initialize()
	if v := c.Probe(1); v != 20 {
		t.Fatalf("Probe(1) = %v, want 20", v)
	}
	ctr := c.Counter()
	if got := ctr.Get(comm.Maintenance, comm.Probe); got != 1 {
		t.Fatalf("probe count = %d, want 1", got)
	}
	if got := ctr.Get(comm.Maintenance, comm.ProbeReply); got != 1 {
		t.Fatalf("probe-reply count = %d, want 1", got)
	}
	if v := c.Table(1); v != 20 {
		t.Fatalf("Table(1) = %v, want 20", v)
	}
	if v := c.Table(0); v != 0 {
		t.Fatalf("Table(0) = %v without any contact, want 0", v)
	}
}

func TestProbeAll(t *testing.T) {
	c, _ := newTestCluster([]float64{10, 20, 30})
	c.Initialize()
	vals := c.ProbeAllInto(nil)
	if len(vals) != 3 || vals[2] != 30 {
		t.Fatalf("ProbeAllInto(nil) = %v", vals)
	}
	if got := c.Counter().Get(comm.Maintenance, comm.Probe); got != 3 {
		t.Fatalf("probe count = %d, want 3", got)
	}
}

func TestProbeIfCountsReplyOnlyOnHit(t *testing.T) {
	c, _ := newTestCluster([]float64{10, 500})
	c.Initialize()
	cons := filter.NewInterval(400, 600)
	if _, ok := c.ProbeIf(0, cons); ok {
		t.Fatal("ProbeIf hit for out-of-region stream")
	}
	if v, ok := c.ProbeIf(1, cons); !ok || v != 500 {
		t.Fatalf("ProbeIf(1) = %v,%v; want 500,true", v, ok)
	}
	ctr := c.Counter()
	if got := ctr.Get(comm.Maintenance, comm.Probe); got != 2 {
		t.Fatalf("probe count = %d, want 2", got)
	}
	if got := ctr.Get(comm.Maintenance, comm.ProbeReply); got != 1 {
		t.Fatalf("probe-reply count = %d, want 1 (miss must not reply)", got)
	}
	// A miss must not refresh the table.
	if v := c.Table(0); v != 0 {
		t.Fatalf("table refreshed to %v by a conditional-probe miss", v)
	}
}

func TestDeliverRoutesFilterViolationsToProtocol(t *testing.T) {
	c, p := newTestCluster([]float64{500, 500})
	c.Initialize()
	c.Install(0, filter.NewInterval(400, 600), true)
	c.Install(1, filter.NewInterval(400, 600), true)
	c.Deliver(0, 550) // inside, no violation
	if len(p.updates) != 0 {
		t.Fatalf("protocol saw %d updates, want 0", len(p.updates))
	}
	c.Deliver(0, 700) // crossing
	if len(p.updates) != 1 || p.updates[0] != 0 {
		t.Fatalf("protocol updates = %v, want [0]", p.updates)
	}
	if got := c.Counter().Get(comm.Maintenance, comm.Update); got != 1 {
		t.Fatalf("update count = %d, want 1", got)
	}
	if v := c.Table(0); v != 700 {
		t.Fatalf("Table(0) = %v after update, want 700", v)
	}
}

func TestInstallMismatchQueuesUpdateForLater(t *testing.T) {
	c, p := newTestCluster([]float64{700})
	c.Initialize()
	depth := 0
	p.onUpdate = func(id stream.ID, v float64) {
		depth++
		if depth > 1 {
			t.Fatal("re-entrant HandleUpdate")
		}
		defer func() { depth-- }()
		// Install with a wrong expectation from inside the handler: the
		// mismatch report must be processed after this handler returns.
		if len(p.updates) == 1 {
			c.Install(0, filter.NewInterval(0, 10), true) // actual 700 → outside
		}
	}
	// Kick things off with an unfiltered update.
	c.Deliver(0, 700)
	if len(p.updates) != 2 {
		t.Fatalf("protocol saw %d updates, want 2 (original + mismatch)", len(p.updates))
	}
}

func TestInstallAllCountsPerStream(t *testing.T) {
	c, _ := newTestCluster(make([]float64, 5))
	c.Initialize()
	c.InstallAllExcept(nil, filter.NewInterval(0, 1))
	if got := c.Counter().Get(comm.Maintenance, comm.Install); got != 5 {
		t.Fatalf("install count = %d, want 5", got)
	}
}

// TestInstallBatchCharges pins InstallBatch's price on a 1-D Cluster:
// len(ids) Installs, and nothing for an empty batch.
func TestInstallBatchCharges(t *testing.T) {
	c := NewCluster(make([]float64, 5))
	c.SetProtocol(&fakeProto{c: c})
	c.Initialize()
	c.InstallBatch(nil, filter.NewInterval(0, 1))
	if got := c.Counter().Get(comm.Maintenance, comm.Install); got != 0 {
		t.Fatalf("empty batch charged %d, want 0", got)
	}
	c.InstallBatch([]stream.ID{4, 1, 3}, filter.NewInterval(0, 1))
	if got := c.Counter().Get(comm.Maintenance, comm.Install); got != 3 {
		t.Fatalf("install count = %d, want len(ids)=3", got)
	}
	for _, id := range []stream.ID{4, 1, 3} {
		if got := c.Constraint(id); got != filter.NewInterval(0, 1) {
			t.Errorf("stream %d holds %v", id, got)
		}
	}
	if got := c.Constraint(0); got != (filter.Constraint{}) {
		t.Errorf("unlisted stream 0 holds %v", got)
	}
}

// TestInstallBatchUsesTableForExpectations is InstallAllExcept's table rule for
// a batch: stream 1 was never heard from (table 0, inside [0,10]) but
// truly sits at 700, so it reports; the unlisted stream 0 does not.
func TestInstallBatchUsesTableForExpectations(t *testing.T) {
	c, p := newTestCluster([]float64{700, 700})
	c.Initialize()
	c.InstallBatch([]stream.ID{1}, filter.NewInterval(0, 10))
	if len(p.updates) != 1 || p.updates[0] != 1 {
		t.Fatalf("mismatch updates = %v, want [1]", p.updates)
	}
}

func TestInstallAllUsesTableForExpectations(t *testing.T) {
	// Stream 0's true value is outside [0,10] but the server never heard
	// from it (table zero value 0 is inside), so InstallAllExcept must trigger a
	// mismatch report.
	c, p := newTestCluster([]float64{700})
	c.Initialize()
	c.InstallAllExcept(nil, filter.NewInterval(0, 10))
	if len(p.updates) != 1 {
		t.Fatalf("mismatch updates = %d, want 1", len(p.updates))
	}
}

func TestSetProtocolTwicePanics(t *testing.T) {
	c, _ := newTestCluster([]float64{1})
	defer func() {
		if recover() == nil {
			t.Error("second SetProtocol did not panic")
		}
	}()
	c.SetProtocol(&fakeProto{})
}

func TestInitializeWithoutProtocolPanics(t *testing.T) {
	c := NewCluster([]float64{1})
	defer func() {
		if recover() == nil {
			t.Error("Initialize without protocol did not panic")
		}
	}()
	c.Initialize()
}

func TestTrueValueAndSourceInspection(t *testing.T) {
	c, _ := newTestCluster([]float64{42})
	if c.TrueValue(0) != 42 {
		t.Fatalf("TrueValue = %v", c.TrueValue(0))
	}
	if s := c.Constraint(0); s.Kind != filter.None {
		t.Fatalf("fresh source holds %v, want no filter", s)
	}
	if c.N() != 1 {
		t.Fatalf("N() = %d", c.N())
	}
}

func TestConstraintAccessor(t *testing.T) {
	c, _ := newTestCluster([]float64{1})
	c.Initialize()
	cons := filter.NewInterval(1, 2)
	c.Install(0, cons, true)
	if got := c.Constraint(0); got != cons {
		t.Fatalf("Constraint(0) = %v, want %v", got, cons)
	}
}

func TestTableValuesSnapshotIsCopy(t *testing.T) {
	c, _ := newTestCluster([]float64{5})
	c.Initialize()
	c.Probe(0)
	snap := c.TableValues(nil)
	snap[0] = 999
	if c.Table(0) != 5 {
		t.Fatal("TableValues returned a live reference")
	}
	// A long enough buffer is reused, not reallocated.
	buf := make([]float64, 0, 4)
	if got := c.TableValues(buf); len(got) != 1 || got[0] != 5 || &got[:1][0] != &buf[:1][0] {
		t.Fatalf("TableValues(buf) = %v, want [5] in buf", got)
	}
}

func TestAddServerOps(t *testing.T) {
	c, _ := newTestCluster([]float64{1})
	c.AddServerOps(7)
	if c.Counter().ServerOps != 7 {
		t.Fatalf("ServerOps = %d, want 7", c.Counter().ServerOps)
	}
}

func TestStringSummary(t *testing.T) {
	c, _ := newTestCluster([]float64{1})
	if c.String() == "" {
		t.Fatal("String() empty")
	}
}
