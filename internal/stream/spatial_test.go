package stream_test

import (
	"math"
	"testing"

	"adaptivefilters/internal/filter"
	"adaptivefilters/internal/snapshot"
	"adaptivefilters/internal/stream"
)

func pt(x, y float64) filter.Point { return filter.Point{X: x, Y: y} }

func TestSpatialSourceCrossingSemantics(t *testing.T) {
	var reports []filter.Point
	s := stream.NewSpatial(0, pt(0, 0), func(_ stream.ID, p filter.Point) {
		reports = append(reports, p)
	})

	// No filter: every update reports.
	if !s.Set(pt(1, 1)) || !s.Set(pt(2, 2)) {
		t.Fatal("unfiltered source suppressed an update")
	}

	// Install a disk containing the current point, expectation matching: no
	// report.
	if s.Install(filter.NewDisk(pt(0, 0), 5), true) {
		t.Fatal("matching install reported")
	}
	n := len(reports)
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
	if got := len(reports) - n; got != 2 {
		t.Fatalf("crossings sent %d reports, want 2", got)
	}
	if s.Updates != 6 || s.Reports != 4 {
		t.Fatalf("counters Updates=%d Reports=%d, want 6/4", s.Updates, s.Reports)
	}
}

func TestSpatialSourceInstallMismatch(t *testing.T) {
	reports := 0
	s := stream.NewSpatial(3, pt(10, 0), func(stream.ID, filter.Point) { reports++ })

	// Server believes inside, point is actually outside: convergence report.
	if !s.Install(filter.NewDisk(pt(0, 0), 5), true) {
		t.Fatal("mismatched install did not report")
	}
	if reports != 1 {
		t.Fatalf("reports = %d, want 1", reports)
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
// is owed. This mirrors stream.Source.Install's c.Silent() guard for
// [+∞,+∞] / [−∞,+∞] interval constraints.
func TestSpatialSourceSilentInstallMismatch(t *testing.T) {
	reports := 0
	s := stream.NewSpatial(0, pt(10, 0), func(stream.ID, filter.Point) { reports++ })

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
	if reports != 0 {
		t.Fatalf("silent installs sent %d reports, want 0", reports)
	}

	// And a silent region never fires afterwards, wherever the point goes.
	if s.Set(pt(1e9, -1e9)) || s.Set(pt(0, 0)) {
		t.Fatal("wide-open region reported a move")
	}
}

func TestSpatialSourceProbeRefreshesSide(t *testing.T) {
	s := stream.NewSpatial(0, pt(0, 0), func(stream.ID, filter.Point) {})
	s.Install(filter.NewDisk(pt(0, 0), 5), true)
	// Force a stale side without going through Set's report path.
	s.Install(filter.NewDisk(pt(100, 100), 5), true) // actually outside → reports, side false
	if s.Inside() {
		t.Fatal("side not corrected by install")
	}
	if got := s.Probe(); got != pt(0, 0) {
		t.Fatalf("Probe = %v, want (0,0)", got)
	}
	if s.Inside() {
		t.Fatal("probe flipped side wrongly")
	}
}

func TestSpatialSourceNaNPanics(t *testing.T) {
	cases := []func(){
		func() { stream.NewSpatial(0, pt(math.NaN(), 0), func(stream.ID, filter.Point) {}) },
		func() {
			s := stream.NewSpatial(0, pt(0, 0), func(stream.ID, filter.Point) {})
			s.Set(pt(0, math.NaN()))
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
	s := stream.NewSpatial(7, pt(3, 4), func(stream.ID, filter.Point) {})
	s.Install(filter.NewDisk(pt(0, 0), 10), true)
	s.Set(pt(20, 0)) // crossing: bumps Updates and Reports

	w := snapshot.NewWriter()
	s.ExportState(w)

	restored := stream.NewSpatial(7, pt(0, 0), func(stream.ID, filter.Point) {})
	if err := restored.ImportState(snapshot.NewReader(w.Bytes())); err != nil {
		t.Fatal(err)
	}
	if restored.Value() != s.Value() || restored.Constraint() != s.Constraint() ||
		restored.Inside() != s.Inside() || restored.Updates != s.Updates ||
		restored.Reports != s.Reports {
		t.Fatalf("round-trip mismatch: %v vs %v", restored, s)
	}

	// NaN location in the snapshot is rejected, not adopted.
	w2 := snapshot.NewWriter()
	w2.Float64(math.NaN())
	w2.Float64(0)
	filter.NoRegion().ExportState(w2)
	w2.Bool(false)
	w2.Uint64(0)
	w2.Uint64(0)
	if err := restored.ImportState(snapshot.NewReader(w2.Bytes())); err == nil {
		t.Fatal("NaN location imported without error")
	}
}
