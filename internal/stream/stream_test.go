package stream

import (
	"testing"
	"testing/quick"

	"adaptivefilters/internal/filter"
	"adaptivefilters/internal/snapshot"
)

// recorder stands in for the server's uplink: it records every report a
// source owes, in order.
type recorder struct {
	ids  []ID
	vals []float64
}

func (r *recorder) report(id ID, v float64) {
	r.ids = append(r.ids, id)
	r.vals = append(r.vals, v)
}

// set applies v to source id (s) and hands the report it owes to the
// recorder, as the cluster's Deliver does.
func (r *recorder) set(s *Sources[float64, filter.Constraint], id ID, v float64) bool {
	if !s.Set(id, v) {
		return false
	}
	r.report(id, s.Value(id))
	return true
}

// install is Install with the owed report handed to the recorder, as the
// cluster's Install does.
func (r *recorder) install(s *Sources[float64, filter.Constraint], id ID, c filter.Constraint, expectInside bool) bool {
	if !s.Install(id, c, expectInside) {
		return false
	}
	r.report(id, s.Value(id))
	return true
}

func TestUnfilteredReportsEverything(t *testing.T) {
	var rec recorder
	s := New(0, 0, 0, 10)
	for i, v := range []float64{11, 11, 12, -5} {
		if !rec.set(&s, 3, v) {
			t.Fatalf("Set #%d did not report without a filter", i)
		}
	}
	if len(rec.ids) != 4 {
		t.Fatalf("got %d reports, want 4", len(rec.ids))
	}
	if rec.ids[0] != 3 || rec.vals[3] != -5 {
		t.Fatalf("report content wrong: %+v", rec)
	}
	for i, id := range rec.ids {
		if id != 3 {
			t.Fatalf("report %d came from source %d, want 3", i, id)
		}
	}
}

func TestIntervalFilterReportsOnlyCrossings(t *testing.T) {
	s := New(500)
	s.Install(0, filter.NewInterval(400, 600), true)
	steps := []struct {
		v      float64
		report bool
	}{
		{550, false}, // stays inside
		{650, true},  // leaves
		{700, false}, // stays outside
		{450, true},  // re-enters
		{400, false}, // inside (closed boundary)
		{399, true},  // leaves by a hair
	}
	reports := 0
	for i, st := range steps {
		got := s.Set(0, st.v)
		if got != st.report {
			t.Fatalf("step %d (v=%v): reported=%v, want %v", i, st.v, got, st.report)
		}
		if got {
			reports++
		}
	}
	if reports != 3 {
		t.Fatalf("Set owed %d reports, want 3", reports)
	}
}

func TestInstallMismatchTriggersReport(t *testing.T) {
	var rec recorder
	s := New(700) // truly outside [400,600]
	if reported := rec.install(&s, 0, filter.NewInterval(400, 600), true); !reported {
		t.Fatal("Install with wrong expected side did not report")
	}
	if len(rec.ids) != 1 || rec.vals[0] != 700 {
		t.Fatalf("mismatch report = %+v, want value 700", rec)
	}
	// The recorded side is now correct; staying outside is silent.
	if s.Set(0, 800) {
		t.Fatal("reported while staying outside after mismatch sync")
	}
}

func TestInstallMatchIsSilent(t *testing.T) {
	var rec recorder
	s := New(500)
	if rec.install(&s, 0, filter.NewInterval(400, 600), true) {
		t.Fatal("Install with correct expected side reported")
	}
	if len(rec.ids) != 0 {
		t.Fatalf("unexpected reports: %+v", rec)
	}
}

func TestSilentFiltersNeverReport(t *testing.T) {
	s := New(500)
	// A wide-open filter silences even though the expectation is wrong on
	// purpose: silent filters must not generate mismatch reports.
	if s.Install(0, filter.WideOpen(), false) {
		t.Fatal("WideOpen install reported")
	}
	for _, v := range []float64{1, 1000, -1000} {
		if s.Set(0, v) {
			t.Fatalf("WideOpen filter reported on %v", v)
		}
	}
	if s.Install(0, filter.Shut(), true) {
		t.Fatal("Shut install reported")
	}
	for _, v := range []float64{1, 1000, -1000} {
		if s.Set(0, v) {
			t.Fatalf("Shut filter reported on %v", v)
		}
	}
}

func TestProbeReturnsTruthAndResyncs(t *testing.T) {
	s := New(500)
	s.Install(0, filter.NewInterval(400, 600), true)
	// Drifting outside silently is impossible with an interval filter, and
	// every install records the true side, so a probe finds the recorded
	// side already in sync with the value it returns.
	s.Set(0, 650) // reports (leaves)
	if got := s.Value(0); got != 650 {
		t.Fatalf("Probe() = %v, want 650", got)
	}
	if s.Inside(0) {
		t.Fatal("Inside() = true after probing an outside value")
	}
}

func TestRemovingFilterRestoresReportEverything(t *testing.T) {
	s := New(500)
	s.Install(0, filter.NewInterval(0, 1000), true)
	if s.Set(0, 600) {
		t.Fatal("reported while inside interval")
	}
	s.Install(0, filter.NoFilter(), false)
	if !s.Set(0, 601) {
		t.Fatal("unfiltered stream did not report")
	}
}

func TestValueAccessors(t *testing.T) {
	s := New(123)
	if s.Value(0) != 123 {
		t.Fatalf("Value() = %v", s.Value(0))
	}
	s.Set(0, 456)
	if s.Value(0) != 456 {
		t.Fatalf("Value() = %v after Set", s.Value(0))
	}
	if s.Constraint(0).Kind != filter.None {
		t.Fatalf("initial constraint = %v, want none", s.Constraint(0))
	}
}

func TestStringRendering(t *testing.T) {
	s := New(5)
	if got := s.String(0); got == "" {
		t.Fatal("String() empty")
	}
}

func TestQuickReportIffMembershipChanges(t *testing.T) {
	// Under an interval filter, a report happens iff the membership status
	// changed relative to the previously recorded side — the paper's §3.1
	// crossing rule.
	f := func(lo, hi float64, vals []float64) bool {
		if lo != lo || hi != hi {
			return true
		}
		s := New(0)
		cons := filter.NewInterval(lo, hi)
		s.Install(0, cons, cons.Contains(0))
		prevInside := cons.Contains(s.Value(0))
		for _, v := range vals {
			if v != v {
				continue
			}
			reported := s.Set(0, v)
			nowInside := cons.Contains(v)
			if reported != (nowInside != prevInside) {
				return false
			}
			prevInside = nowInside
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSourceStateRoundTrip(t *testing.T) {
	src := New(100)
	src.Install(0, filter.NewInterval(50, 150), true)
	src.Set(0, 120)
	src.Set(0, 200) // crossing: reports

	w := snapshot.NewWriter()
	src.ExportState(w)

	restored := New(0)
	r := snapshot.NewReader(w.Bytes())
	if err := restored.ImportState(r); err != nil {
		t.Fatal(err)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	if restored.Value(0) != src.Value(0) || restored.Constraint(0) != src.Constraint(0) ||
		restored.Inside(0) != src.Inside(0) {
		t.Fatalf("round-trip mismatch: %v vs %v", restored.String(0), src.String(0))
	}
	// Continuation equivalence: the same next value triggers (or not) the
	// same report on both.
	a := src.Set(0, 140)
	b := restored.Set(0, 140)
	if a != b {
		t.Fatalf("post-restore Set diverged: %v vs %v", a, b)
	}
}

func TestSourceImportRejects(t *testing.T) {
	src := New(1)
	w := snapshot.NewWriter()
	src.ExportState(w)
	data := w.Bytes()
	for cut := 0; cut < len(data); cut += 7 {
		got := New(0)
		if err := got.ImportState(snapshot.NewReader(data[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	bad := append([]byte(nil), data...)
	bad[8] = 0x66 // constraint kind discriminator
	got := New(0)
	if err := got.ImportState(snapshot.NewReader(bad)); err == nil {
		t.Fatal("invalid constraint kind accepted")
	}
}

// TestSourceImportRefusesContradictedSide flips the recorded side of an
// exported crossing-mode source: the record says outside while the value
// is inside. Adopting it would leave the source silent when the value
// later leaves, so restore refuses it and leaves the target untouched.
func TestSourceImportRefusesContradictedSide(t *testing.T) {
	src := New(500)
	src.Install(0, filter.NewInterval(400, 600), true)
	w := snapshot.NewWriter()
	src.ExportState(w)
	good := w.Bytes()
	// Layout: value (8 B), constraint (kind 8 B, lo 8 B, hi 8 B), side.
	const sideAt = 8 + 8 + 8 + 8
	if good[sideAt] != 1 {
		t.Fatalf("side byte = %d, want 1 (inside)", good[sideAt])
	}
	for _, cons := range []filter.Constraint{filter.NewInterval(400, 600), filter.NewInterval(0, 100)} {
		target := New(7)
		target.Install(0, cons, cons.Contains(7))
		before := target.state(0)
		bad := append([]byte(nil), good...)
		bad[sideAt] = 0
		if err := target.ImportState(snapshot.NewReader(bad)); err == nil {
			t.Fatal("import of a side contradicting the value succeeded")
		}
		if !target.state(0).same(before) {
			t.Fatalf("failed import changed the source: %v, was %v", target.String(0), before)
		}
	}
	// The unmodified record still imports.
	ok := New(0)
	if err := ok.ImportState(snapshot.NewReader(good)); err != nil || !ok.Inside(0) {
		t.Fatalf("import of the true record: err=%v inside=%v", err, ok.Inside(0))
	}
}

// TestSourceRecordWidth pins the bytes ExportState writes per source —
// value, constraint and recorded side — in both instantiations: 8 + 24 + 1
// in 1-D and 16 + 40 + 1 planar.
func TestSourceRecordWidth(t *testing.T) {
	line := New(1, 2, 3)
	line.Install(1, filter.NewInterval(0, 5), true)
	plane := NewSpatial(filter.Point{}, filter.Point{X: 1})
	plane.Install(0, filter.NewDisk(filter.Point{}, 2), true)
	for _, c := range []struct {
		name  string
		src   interface{ ExportState(*snapshot.Writer) }
		n     int
		width int
	}{{"1-D", &line, line.Len(), 33}, {"planar", &plane, plane.Len(), 57}} {
		w := snapshot.NewWriter()
		c.src.ExportState(w)
		if got := len(w.Bytes()); got != c.n*c.width {
			t.Errorf("%s: %d sources export %d B, want %d × %d", c.name, c.n, got, c.n, c.width)
		}
	}
}
