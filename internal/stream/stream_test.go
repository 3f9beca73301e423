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
func (r *recorder) set(s *Source[float64, filter.Constraint], id ID, v float64) bool {
	if !s.Set(v) {
		return false
	}
	r.report(id, s.Value())
	return true
}

// install is Install with the owed report handed to the recorder, as the
// cluster's Install does.
func (r *recorder) install(s *Source[float64, filter.Constraint], id ID, c filter.Constraint, expectInside bool) bool {
	if !s.Install(c, expectInside) {
		return false
	}
	r.report(id, s.Value())
	return true
}

func TestUnfilteredReportsEverything(t *testing.T) {
	var rec recorder
	s := New(10)
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
	if s.Updates != 4 || s.Reports != 4 {
		t.Fatalf("Updates/Reports = %d/%d, want 4/4", s.Updates, s.Reports)
	}
}

func TestIntervalFilterReportsOnlyCrossings(t *testing.T) {
	s := New(500)
	s.Install(filter.NewInterval(400, 600), true)
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
	for i, st := range steps {
		if got := s.Set(st.v); got != st.report {
			t.Fatalf("step %d (v=%v): reported=%v, want %v", i, st.v, got, st.report)
		}
	}
	if s.Reports != 3 {
		t.Fatalf("Reports = %d, want 3", s.Reports)
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
	if s.Set(800) {
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
	if s.Install(filter.WideOpen(), false) {
		t.Fatal("WideOpen install reported")
	}
	for _, v := range []float64{1, 1000, -1000} {
		if s.Set(v) {
			t.Fatalf("WideOpen filter reported on %v", v)
		}
	}
	if s.Install(filter.Shut(), true) {
		t.Fatal("Shut install reported")
	}
	for _, v := range []float64{1, 1000, -1000} {
		if s.Set(v) {
			t.Fatalf("Shut filter reported on %v", v)
		}
	}
	if s.Reports != 0 {
		t.Fatalf("Reports = %d, want 0", s.Reports)
	}
}

func TestProbeReturnsTruthAndResyncs(t *testing.T) {
	s := New(500)
	s.Install(filter.NewInterval(400, 600), true)
	// Drifting outside silently is impossible with an interval filter, and
	// every install records the true side, so a probe finds the recorded
	// side already in sync with the value it returns.
	s.Set(650) // reports (leaves)
	if got := s.Probe(); got != 650 {
		t.Fatalf("Probe() = %v, want 650", got)
	}
	if s.Inside() {
		t.Fatal("Inside() = true after probing an outside value")
	}
}

func TestRemovingFilterRestoresReportEverything(t *testing.T) {
	s := New(500)
	s.Install(filter.NewInterval(0, 1000), true)
	if s.Set(600) {
		t.Fatal("reported while inside interval")
	}
	s.Install(filter.NoFilter(), false)
	if !s.Set(601) {
		t.Fatal("unfiltered stream did not report")
	}
}

func TestValueAccessors(t *testing.T) {
	s := New(123)
	if s.Value() != 123 {
		t.Fatalf("Value() = %v", s.Value())
	}
	s.Set(456)
	if s.Value() != 456 {
		t.Fatalf("Value() = %v after Set", s.Value())
	}
	if s.Constraint().Kind != filter.None {
		t.Fatalf("initial constraint = %v, want none", s.Constraint())
	}
}

func TestStringRendering(t *testing.T) {
	s := New(5)
	if got := s.String(); got == "" {
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
		s.Install(cons, cons.Contains(0))
		prevInside := cons.Contains(s.Value())
		for _, v := range vals {
			if v != v {
				continue
			}
			reported := s.Set(v)
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
	src.Install(filter.NewInterval(50, 150), true)
	src.Set(120)
	src.Set(200) // crossing: reports

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
	if restored.Value() != src.Value() || restored.Constraint() != src.Constraint() ||
		restored.Inside() != src.Inside() || restored.Updates != src.Updates ||
		restored.Reports != src.Reports {
		t.Fatalf("round-trip mismatch: %v vs %v", restored, src)
	}
	// Continuation equivalence: the same next value triggers (or not) the
	// same report on both.
	a := src.Set(140)
	b := restored.Set(140)
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
	src.Install(filter.NewInterval(400, 600), true)
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
		target.Install(cons, cons.Contains(7))
		before := target
		bad := append([]byte(nil), good...)
		bad[sideAt] = 0
		if err := target.ImportState(snapshot.NewReader(bad)); err == nil {
			t.Fatal("import of a side contradicting the value succeeded")
		}
		if target != before {
			t.Fatalf("failed import changed the source: %v, was %v", target, before)
		}
	}
	// The unmodified record still imports.
	ok := New(0)
	if err := ok.ImportState(snapshot.NewReader(good)); err != nil || !ok.Inside() {
		t.Fatalf("import of the true record: err=%v inside=%v", err, ok.Inside())
	}
}
