package stream_test

import (
	"math"
	"testing"

	"adaptivefilters/internal/filter"
	"adaptivefilters/internal/snapshot"
	"adaptivefilters/internal/stream"
)

func pt(x, y float64) filter.Point { return filter.Point{X: x, Y: y} }

// planar is a planar source with the server's side of its uplink: every
// report the source owes is appended to reports, as the cluster's Deliver
// and Install do.
type planar struct {
	src     stream.Sources[filter.Point, filter.Region]
	reports []filter.Point
}

func newPlanar(initial filter.Point) *planar {
	return &planar{src: stream.NewSpatial(initial)}
}

func (p *planar) Set(v filter.Point) bool {
	if !p.src.Set(0, v) {
		return false
	}
	p.reports = append(p.reports, p.src.Value(0))
	return true
}

func (p *planar) Install(c filter.Region, expectInside bool) bool {
	if !p.src.Install(0, c, expectInside) {
		return false
	}
	p.reports = append(p.reports, p.src.Value(0))
	return true
}

func (p *planar) Inside() bool { return p.src.Inside(0) }

// planarState is one planar source's full state, read through the
// accessors.
type planarState struct {
	v      filter.Point
	c      filter.Region
	inside bool
}

func stateOf(s *stream.Sources[filter.Point, filter.Region]) planarState {
	return planarState{s.Value(0), s.Constraint(0), s.Inside(0)}
}

func TestSpatialSourceCrossingSemantics(t *testing.T) {
	s := newPlanar(pt(0, 0))

	// No filter: every update reports.
	if !s.Set(pt(1, 1)) || !s.Set(pt(2, 2)) {
		t.Fatal("unfiltered source suppressed an update")
	}

	// Install a disk containing the current point, expectation matching: no
	// report.
	if s.Install(filter.NewDisk(pt(0, 0), 5), true) {
		t.Fatal("matching install reported")
	}
	n := len(s.reports)
	if s.Set(pt(3, 0)) { // still inside
		t.Fatal("inside move reported")
	}
	if !s.Set(pt(9, 0)) { // crossed out
		t.Fatal("outward crossing suppressed")
	}
	if !s.Set(pt(1, 0)) { // crossed back in
		t.Fatal("inward crossing suppressed")
	}
	if s.Set(pt(2, 0)) {
		t.Fatal("inside move reported after crossings")
	}
	if got := len(s.reports) - n; got != 2 {
		t.Fatalf("crossings sent %d reports, want 2", got)
	}
	if len(s.reports) != 4 {
		t.Fatalf("six updates owed %d reports, want 4", len(s.reports))
	}
}

func TestSpatialSourceInstallMismatch(t *testing.T) {
	s := newPlanar(pt(10, 0))

	// Server believes inside, point is actually outside: convergence report.
	if !s.Install(filter.NewDisk(pt(0, 0), 5), true) {
		t.Fatal("mismatched install did not report")
	}
	if len(s.reports) != 1 || s.reports[0] != pt(10, 0) {
		t.Fatalf("reports = %v, want [(10,0)]", s.reports)
	}
	if s.Inside() {
		t.Fatal("recorded side not corrected to outside")
	}

	// Matching expectation: silent.
	if s.Install(filter.NewDisk(pt(0, 0), 5), false) {
		t.Fatal("matching install reported")
	}

	// RegionNone install never reports and clears the recorded side.
	if s.Install(filter.NoRegion(), true) || s.Inside() {
		t.Fatal("RegionNone install misbehaved")
	}
}

// TestSpatialSourceSilentInstallMismatch pins the satellite edge case: an
// Install carrying a silent region with a wrong expected side must NOT
// report — a silent filter can never be violated, so no convergence message
// is owed. This mirrors Sources.Install's c.Silent() guard for
// [+∞,+∞] / [−∞,+∞] interval constraints.
func TestSpatialSourceSilentInstallMismatch(t *testing.T) {
	s := newPlanar(pt(10, 0))

	// Shut region: the point is outside (shut contains nothing), server
	// wrongly expects inside — still silent.
	if s.Install(filter.ShutRegion(pt(0, 0)), true) {
		t.Fatal("shut-region install reported despite silence")
	}
	if s.Inside() {
		t.Fatal("shut region recorded as inside")
	}

	// Wide-open region: the point is inside, server wrongly expects outside
	// — still silent.
	if s.Install(filter.WideOpenRegion(pt(0, 0)), false) {
		t.Fatal("wide-open install reported despite silence")
	}
	if !s.Inside() {
		t.Fatal("wide-open region recorded as outside")
	}
	if len(s.reports) != 0 {
		t.Fatalf("silent installs sent %d reports, want 0", len(s.reports))
	}

	// And a silent region never fires afterwards, wherever the point goes.
	if s.Set(pt(1e9, -1e9)) || s.Set(pt(0, 0)) {
		t.Fatal("wide-open region reported a move")
	}
}

func TestSpatialSourceProbeRefreshesSide(t *testing.T) {
	s := stream.NewSpatial(pt(0, 0))
	s.Install(0, filter.NewDisk(pt(0, 0), 5), true)
	// Force a stale side without going through Set's report path.
	s.Install(0, filter.NewDisk(pt(100, 100), 5), true) // actually outside → reports, side false
	if s.Inside(0) {
		t.Fatal("side not corrected by install")
	}
	if got := s.Value(0); got != pt(0, 0) {
		t.Fatalf("Probe = %v, want (0,0)", got)
	}
	if s.Inside(0) {
		t.Fatal("probe flipped side wrongly")
	}
}

func TestSpatialSourceNaNPanics(t *testing.T) {
	cases := []func(){
		func() { stream.NewSpatial(pt(math.NaN(), 0)) },
		func() {
			s := stream.NewSpatial(pt(0, 0))
			s.Set(0, pt(0, math.NaN()))
		},
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: NaN point did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestSpatialSourceStateRoundTrip(t *testing.T) {
	s := stream.NewSpatial(pt(3, 4))
	s.Install(0, filter.NewDisk(pt(0, 0), 10), true)
	s.Set(0, pt(20, 0)) // crossing: reports

	w := snapshot.NewWriter()
	s.ExportState(w)

	restored := stream.NewSpatial(pt(0, 0))
	if err := restored.ImportState(snapshot.NewReader(w.Bytes())); err != nil {
		t.Fatal(err)
	}
	if stateOf(&restored) != stateOf(&s) {
		t.Fatalf("round-trip mismatch: %v vs %v", restored.String(0), s.String(0))
	}

	// NaN location in the snapshot is rejected, not adopted.
	w2 := snapshot.NewWriter()
	w2.Float64(math.NaN())
	w2.Float64(0)
	filter.NoRegion().ExportState(w2)
	w2.Bool(false)
	if err := restored.ImportState(snapshot.NewReader(w2.Bytes())); err == nil {
		t.Fatal("NaN location imported without error")
	}
}

// TestSpatialSourceImportRefusesContradictedSide is the planar twin of
// TestSourceImportRefusesContradictedSide: a disk and a rectangle record
// whose side is flipped against its point is refused, and the target is
// left untouched.
func TestSpatialSourceImportRefusesContradictedSide(t *testing.T) {
	for _, reg := range []filter.Region{filter.NewDisk(pt(0, 0), 5), filter.NewRect(pt(0, 0), 2, 3)} {
		src := stream.NewSpatial(pt(1, 1))
		src.Install(0, reg, true)
		w := snapshot.NewWriter()
		src.ExportState(w)
		good := w.Bytes()
		// Layout: point (16 B), region (kind, centre, A, B: 40 B), side.
		const sideAt = 16 + 40
		if good[sideAt] != 1 {
			t.Fatalf("%v: side byte = %d, want 1 (inside)", reg, good[sideAt])
		}
		bad := append([]byte(nil), good...)
		bad[sideAt] = 0
		target := stream.NewSpatial(pt(9, 9))
		target.Install(0, reg, false)
		before := stateOf(&target)
		if err := target.ImportState(snapshot.NewReader(bad)); err == nil {
			t.Fatalf("%v: import of a side contradicting the point succeeded", reg)
		}
		if stateOf(&target) != before {
			t.Fatalf("%v: failed import changed the source: %v, was %v", reg, target.String(0), before)
		}
		if err := target.ImportState(snapshot.NewReader(good)); err != nil || !target.Inside(0) {
			t.Fatalf("%v: import of the true record: err=%v inside=%v", reg, err, target.Inside(0))
		}
	}
}
