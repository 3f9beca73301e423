package server

import (
	"bytes"
	"reflect"
	"testing"

	"adaptivefilters/internal/filter"
	"adaptivefilters/internal/snapshot"
	"adaptivefilters/internal/stream"
)

// driveLossy runs a lossy cluster through a deterministic update schedule.
func driveLossy(c *Cluster, rounds int) {
	for i := 0; i < rounds; i++ {
		id := i % c.N()
		c.Deliver(id, float64(100+i*7%500))
	}
}

// newLossy builds a lossy cluster with a fake protocol that installs an
// interval on a value-derived subset of updates (so filter state, table
// state and the accounting machinery all get exercised).
func newLossy(t *testing.T) *Cluster {
	t.Helper()
	initial := []float64{100, 200, 300, 400, 500}
	c := NewCluster(initial)
	c.SetUplinkLoss(0.4, 77)
	// The install decision must be a pure function of the update: protocol
	// state is snapshotted separately (by the protocol's own ExportState),
	// so a stateful fake here would diverge after restore by design.
	c.SetProtocol(&fakeProto{c: c, onUpdate: func(id stream.ID, v float64) {
		if int64(v)%3 == 0 {
			c.Install(id, filter.NewInterval(v-50, v+50), true)
		}
	}})
	c.Initialize()
	return c
}

// TestClusterStateRoundTrip checks ExportState → ImportState reproduces a
// lossy, filter-carrying cluster exactly: same continuation behavior (the
// restored counter is the loss position), same counters, same encoded
// bytes.
func TestClusterStateRoundTrip(t *testing.T) {
	orig := newLossy(t)
	driveLossy(orig, 200)

	w := snapshot.NewWriter()
	orig.ExportState(w)
	data := w.Bytes()

	restored := newLossy(t)
	// A fresh Initialize perturbed restored's counters relative to orig;
	// ImportState must overwrite all of it.
	r := snapshot.NewReader(data)
	if err := restored.ImportState(r); err != nil {
		t.Fatal(err)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*restored.Counter(), *orig.Counter()) {
		t.Fatalf("counter = %+v, want %+v", *restored.Counter(), *orig.Counter())
	}
	if restored.DroppedUpdates() != orig.DroppedUpdates() {
		t.Fatalf("DroppedUpdates = %d, want %d", restored.DroppedUpdates(), orig.DroppedUpdates())
	}
	if !reflect.DeepEqual(restored.TableValues(nil), orig.TableValues(nil)) {
		t.Fatal("table diverged")
	}

	// Continuation equivalence: both clusters must now behave identically,
	// including which updates the loss process drops.
	driveLossy(orig, 200)
	driveLossy(restored, 200)
	if restored.DroppedUpdates() != orig.DroppedUpdates() {
		t.Fatalf("post-restore drops diverged: %d vs %d", restored.DroppedUpdates(), orig.DroppedUpdates())
	}
	if !reflect.DeepEqual(*restored.Counter(), *orig.Counter()) {
		t.Fatalf("post-restore counter = %+v, want %+v", *restored.Counter(), *orig.Counter())
	}
	w1, w2 := snapshot.NewWriter(), snapshot.NewWriter()
	orig.ExportState(w1)
	restored.ExportState(w2)
	if !bytes.Equal(w1.Bytes(), w2.Bytes()) {
		t.Fatal("post-restore state encodings diverged")
	}
}

// TestClusterImportRejects covers the cluster decode error paths.
func TestClusterImportRejects(t *testing.T) {
	orig := newLossy(t)
	driveLossy(orig, 50)
	w := snapshot.NewWriter()
	orig.ExportState(w)
	data := w.Bytes()

	// Stream-count mismatch.
	small := NewCluster([]float64{1, 2})
	small.SetProtocol(&fakeProto{})
	if err := small.ImportState(snapshot.NewReader(data)); err == nil {
		t.Fatal("stream-count mismatch accepted")
	}
	// Lost updates without loss injection configured.
	if orig.DroppedUpdates() == 0 {
		t.Fatal("the lossy cluster dropped no update")
	}
	lossless := NewCluster([]float64{1, 2, 3, 4, 5})
	lossless.SetProtocol(&fakeProto{})
	if err := lossless.ImportState(snapshot.NewReader(data)); err == nil {
		t.Fatal("lost updates accepted by lossless cluster")
	}
	// Its composite twin: an unfiltered query makes every move report, and
	// the slot is removed before the export (the fake has no state codec).
	comp := NewComposite([]float64{1, 2, 3, 4, 5})
	comp.SetUplinkLoss(0.4, 77)
	comp.AddQuery("q", 0, func(Host) Protocol { return &fakeProto{} })
	comp.Initialize()
	for i := 0; i < 50; i++ {
		comp.Deliver(i%5, float64(i))
	}
	if comp.DroppedUpdates() == 0 {
		t.Fatal("the lossy composite dropped no update")
	}
	if err := comp.RemoveQuery(0); err != nil {
		t.Fatal(err)
	}
	cw := snapshot.NewWriter()
	comp.ExportState(cw)
	compData := cw.Bytes()
	if err := NewComposite([]float64{1, 2, 3, 4, 5}).ImportState(snapshot.NewReader(compData), nil); err == nil {
		t.Fatal("lost updates accepted by lossless composite")
	}
	lossyComp := NewComposite([]float64{1, 2, 3, 4, 5})
	lossyComp.SetUplinkLoss(0.4, 77)
	if err := lossyComp.ImportState(snapshot.NewReader(compData), nil); err != nil {
		t.Fatalf("lossy composite refused its own record: %v", err)
	}
	if lossyComp.DroppedUpdates() != comp.DroppedUpdates() {
		t.Fatalf("restored DroppedUpdates = %d, want %d", lossyComp.DroppedUpdates(), comp.DroppedUpdates())
	}
	// Truncations anywhere must error, never panic.
	for cut := 0; cut < len(data); cut += 9 {
		c := newLossy(t)
		if err := c.ImportState(snapshot.NewReader(data[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}
