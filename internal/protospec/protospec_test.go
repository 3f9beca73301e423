package protospec_test

import (
	"math"
	"slices"
	"strings"
	"testing"

	"adaptivefilters/internal/filter"
	"adaptivefilters/internal/oracle"
	"adaptivefilters/internal/protospec"
	"adaptivefilters/internal/server"
	"adaptivefilters/internal/snapshot"
)

// valid returns a known-good spec for each protocol over n=100 streams.
func valid() map[string]protospec.Spec {
	return map[string]protospec.Spec{
		"no-filter": {Protocol: "no-filter", Lo: 400, Hi: 600},
		"zt-nrp":    {Protocol: "zt-nrp", Lo: 400, Hi: 600},
		"ft-nrp":    {Protocol: "ft-nrp", Lo: 400, Hi: 600, EpsPlus: 0.2, EpsMinus: 0.2},
		"rtp":       {Protocol: "rtp", Q: 500, K: 20, R: 5},
		"zt-rp":     {Protocol: "zt-rp", Q: 500, K: 20},
		"ft-rp":     {Protocol: "ft-rp", Q: 500, K: 20, EpsPlus: 0.2, EpsMinus: 0.2},
		"vb-knn":    {Protocol: "vb-knn", Q: 500, K: 20, Width: 50},
	}
}

// everyProtocol is valid() plus the two planar protocols: a canonical spec
// for each of protospec.Protocols.
func everyProtocol() map[string]protospec.Spec {
	all := valid()
	all["rtp2d"] = protospec.Spec{Protocol: "rtp2d", QX: 500, QY: 500, K: 20, R: 5}
	all["ft-rp2d"] = protospec.Spec{Protocol: "ft-rp2d", QX: 500, QY: 500, K: 20, EpsPlus: 0.2, EpsMinus: 0.2}
	return all
}

// TestEveryProtocolHasAGuarantee: a protocol Validate lets in must name the
// promise it is audited against — a new name in Protocols without a
// Guarantee arm (or without a canonical spec above) fails here, not as an
// unaudited row in some matrix.
func TestEveryProtocolHasAGuarantee(t *testing.T) {
	all := everyProtocol()
	for _, name := range protospec.Protocols {
		s, ok := all[name]
		if !ok {
			t.Errorf("%s: no canonical spec in everyProtocol", name)
			continue
		}
		if err := s.Validate(100); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		g, err := s.Guarantee()
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		// The guarantee must be auditable over the kind of stream the
		// protocol serves (the constructors panic on a mismatch).
		if s.Spatial() {
			oracle.NewPlanarAuditor(make([]filter.Point, 100), g, 0)
		} else {
			oracle.NewAuditor(make([]float64, 100), g, 0)
		}
	}
	if _, err := (protospec.Spec{Protocol: "nope"}).Guarantee(); err == nil {
		t.Error("unknown protocol has a guarantee")
	}
}

// TestValidateAccepts checks every protocol's canonical spec passes.
func TestValidateAccepts(t *testing.T) {
	for name, s := range valid() {
		if err := s.Validate(100); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestValidateRejects is the table of constructor invariants Validate must
// catch before a spec reaches a protocol constructor (which would panic).
func TestValidateRejects(t *testing.T) {
	base := valid()
	cases := []struct {
		name string
		n    int
		mut  func(*protospec.Spec)
		want string // substring of the error
	}{
		{"unknown-protocol", 100, func(s *protospec.Spec) { s.Protocol = "ft-xxx" }, "unknown protocol"},
		{"zero-streams", 0, func(s *protospec.Spec) {}, "at least 1 stream"},
		{"nan-lo", 100, func(s *protospec.Spec) { s.Lo = math.NaN() }, "not finite"},
		{"inf-hi", 100, func(s *protospec.Spec) { s.Hi = math.Inf(1) }, "not finite"},
		{"empty-range", 100, func(s *protospec.Spec) { s.Lo, s.Hi = 600, 400 }, "empty range"},
		{"bad-selection", 100, func(s *protospec.Spec) { s.Selection = "rnd" }, "unknown selection"},
	}
	for _, tc := range cases {
		s := base["ft-nrp"]
		tc.mut(&s)
		err := s.Validate(tc.n)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}

	rankCases := []struct {
		name string
		spec protospec.Spec
		n    int
		want string
	}{
		{"rtp-k-zero", protospec.Spec{Protocol: "rtp", Q: 500, K: 0, R: 5}, 100, "k >= 1"},
		{"rtp-negative-r", protospec.Spec{Protocol: "rtp", Q: 500, K: 5, R: -1}, 100, "r >= 0"},
		{"rtp-k-plus-r", protospec.Spec{Protocol: "rtp", Q: 500, K: 90, R: 10}, 100, "k+r < n"},
		{"zt-rp-k-over-n", protospec.Spec{Protocol: "zt-rp", Q: 500, K: 100}, 100, "1 <= k < n"},
		{"ft-rp-k-over-n", protospec.Spec{Protocol: "ft-rp", Q: 500, K: 100, EpsPlus: 0.2, EpsMinus: 0.2}, 100, "1 <= k < n"},
		{"ft-rp-bad-tol", protospec.Spec{Protocol: "ft-rp", Q: 500, K: 10, EpsPlus: -0.5, EpsMinus: 0.2}, 100, "ft-rp"},
		{"ft-nrp-bad-tol", protospec.Spec{Protocol: "ft-nrp", Lo: 0, Hi: 1, EpsPlus: 2, EpsMinus: -3}, 100, "ft-nrp"},
		{"vb-knn-k-over-n", protospec.Spec{Protocol: "vb-knn", Q: 500, K: 101, Width: 5}, 100, "1 <= k <= n"},
		{"vb-knn-negative-width", protospec.Spec{Protocol: "vb-knn", Q: 500, K: 5, Width: -1}, 100, "width >= 0"},
	}
	for _, tc := range rankCases {
		err := tc.spec.Validate(tc.n)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

// TestValidateNamesFirstBadParameter: a spec with two non-finite
// parameters is refused under the first in Validate's fixed order, on
// every call, so error texts do not vary from run to run.
func TestValidateNamesFirstBadParameter(t *testing.T) {
	s := valid()["ft-nrp"]
	s.Lo, s.Width = math.NaN(), math.NaN()
	for i := 0; i < 100; i++ {
		err := s.Validate(100)
		if err == nil || !strings.Contains(err.Error(), "parameter lo ") {
			t.Fatalf("call %d: err = %v, want it to name lo", i, err)
		}
	}
}

// TestFactoryBuilds compiles each canonical spec, runs the protocol's t0
// phase on a real cluster and checks the protocol reports its own (name,
// parameters) label — the factory must wire parameters through, not just
// construct something.
func TestFactoryBuilds(t *testing.T) {
	wantName := map[string]string{
		"no-filter": "no-filter", "zt-nrp": "zt-nrp", "ft-nrp": "ft-nrp(",
		"rtp": "rtp(k=20,r=5,q=500)", "zt-rp": "zt-rp(k=20,q=500)",
		"ft-rp": "ft-rp(k=20,", "vb-knn": "vb-knn(k=20,εv=50)",
	}
	for name, s := range valid() {
		build, err := s.Factory()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		initial := make([]float64, 100)
		for i := range initial {
			initial[i] = float64(i * 10)
		}
		c := server.NewCluster(initial)
		p := build(c, 7)
		c.SetProtocol(p)
		c.Initialize()
		if got := p.Name(); !strings.HasPrefix(got, wantName[name]) {
			t.Errorf("%s: protocol name = %q, want prefix %q", name, got, wantName[name])
		}
		if ans := p.Answer(); name != "vb-knn" && len(ans) == 0 {
			t.Errorf("%s: empty answer after t0 over a spread population", name)
		}
	}
	if _, err := (protospec.Spec{Protocol: "nope"}).Factory(); err == nil {
		t.Error("unknown protocol compiled")
	}
}

// TestCodecRoundTrip pins the wire encoding: every field must survive, and
// a truncated payload must fail through the Reader's sticky error.
func TestCodecRoundTrip(t *testing.T) {
	in := protospec.Spec{
		Protocol: "ft-rp", Lo: -12.5, Hi: 900.25, K: 33, R: 4,
		Q: 123.75, Top: true, EpsPlus: 0.125, EpsMinus: 0.25,
		Width: 7.5, Selection: protospec.SelectRandom,
	}
	w := snapshot.NewWriter()
	in.Encode(w)
	r := snapshot.NewReader(w.Bytes())
	out := protospec.Decode(r)
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip: got %+v, want %+v", out, in)
	}

	for cut := 0; cut < w.Len(); cut++ {
		r := snapshot.NewReader(w.Bytes()[:cut])
		protospec.Decode(r)
		if r.Done() == nil {
			t.Fatalf("truncation at %d bytes decoded cleanly", cut)
		}
	}
}

// TestSpatialSpecs pins the 2-D protocols' full declarative path: Validate
// accepts canonical specs and rejects the constructor invariants,
// SpatialFactory compiles them onto a real spatial cluster with parameters
// wired through, and Factory/SpatialFactory refuse each other's specs.
func TestSpatialSpecs(t *testing.T) {
	specs := map[string]protospec.Spec{
		"rtp2d":   {Protocol: "rtp2d", QX: 500, QY: 500, K: 4, R: 3},
		"ft-rp2d": {Protocol: "ft-rp2d", QX: 500, QY: 500, K: 5, EpsPlus: 0.2, EpsMinus: 0.2},
	}
	wantName := map[string]string{
		"rtp2d": "rtp(k=4,r=3,q=(500,500))", "ft-rp2d": "ft-rp(k=5,",
	}
	for name, s := range specs {
		if !s.Spatial() {
			t.Fatalf("%s: Spatial() = false", name)
		}
		if err := s.Validate(100); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := s.Factory(); err == nil || !strings.Contains(err.Error(), "SpatialFactory") {
			t.Errorf("%s: Factory err = %v, want SpatialFactory redirect", name, err)
		}
		build, err := s.SpatialFactory()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		initial := make([]filter.Point, 100)
		for i := range initial {
			initial[i] = filter.Point{X: float64(i * 10), Y: float64(i * 7)}
		}
		c := server.NewSpatialCluster(initial)
		p := build(c, 7)
		c.SetProtocol(p)
		c.Initialize()
		if got := p.Name(); !strings.HasPrefix(got, wantName[name]) {
			t.Errorf("%s: protocol name = %q, want prefix %q", name, got, wantName[name])
		}
		if len(p.Answer()) == 0 {
			t.Errorf("%s: empty answer after t0", name)
		}
	}
	if _, err := valid()["rtp"].SpatialFactory(); err == nil {
		t.Error("SpatialFactory compiled a 1-D spec")
	}
	if valid()["rtp"].Spatial() {
		t.Error("rtp reported spatial")
	}

	bad := []struct {
		name string
		spec protospec.Spec
		want string
	}{
		{"rtp2d-k-zero", protospec.Spec{Protocol: "rtp2d", K: 0, R: 2}, "k >= 1"},
		{"rtp2d-k-plus-r", protospec.Spec{Protocol: "rtp2d", K: 90, R: 10}, "k+r < n"},
		{"rtp2d-nan-qx", protospec.Spec{Protocol: "rtp2d", QX: math.NaN(), K: 3, R: 1}, "not finite"},
		{"ft-rp2d-k-over-n", protospec.Spec{Protocol: "ft-rp2d", K: 100, EpsPlus: 0.2, EpsMinus: 0.2}, "1 <= k < n"},
		{"ft-rp2d-bad-tol", protospec.Spec{Protocol: "ft-rp2d", K: 5, EpsPlus: -1, EpsMinus: 0.2}, "ft-rp2d"},
	}
	for _, tc := range bad {
		err := tc.spec.Validate(100)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

// TestSpatialSelectionIsWired: ft-rp2d compiles like ft-rp, so
// Spec.Selection and the tenant seed reach the planar protocol — random and
// boundary-nearest selection silence different streams on the same seed.
func TestSpatialSelectionIsWired(t *testing.T) {
	silent := func(selection string) []int {
		s := protospec.Spec{Protocol: "ft-rp2d", QX: 500, QY: 500, K: 40,
			EpsPlus: 0.3, EpsMinus: 0.3, Selection: selection}
		if err := s.Validate(200); err != nil {
			t.Fatal(err)
		}
		build, err := s.SpatialFactory()
		if err != nil {
			t.Fatal(err)
		}
		initial := make([]filter.Point, 200)
		for i := range initial {
			initial[i] = filter.Point{X: float64(i*37%1000) + 0.5, Y: float64(i*91%1000) + 0.25}
		}
		c := server.NewSpatialCluster(initial)
		c.SetProtocol(build(c, 7))
		c.Initialize()
		var ids []int
		for id := range initial {
			if c.Constraint(id).Silent() {
				ids = append(ids, id)
			}
		}
		return ids
	}
	boundary, random := silent(protospec.SelectBoundary), silent(protospec.SelectRandom)
	if len(boundary) == 0 || len(random) != len(boundary) {
		t.Fatalf("silent filters: boundary %v, random %v; want equal, non-zero budgets", boundary, random)
	}
	if slices.Equal(boundary, random) {
		t.Fatalf("random and boundary selection silenced the same streams %v: Selection is ignored", boundary)
	}
}

// TestCodecCarriesSpatialPoint extends the round-trip pin to the version-3
// tail fields.
func TestCodecCarriesSpatialPoint(t *testing.T) {
	in := protospec.Spec{Protocol: "rtp2d", K: 4, R: 2, QX: -3.5, QY: 812.25}
	w := snapshot.NewWriter()
	in.Encode(w)
	out := protospec.Decode(snapshot.NewReader(w.Bytes()))
	if out != in {
		t.Fatalf("round trip: got %+v, want %+v", out, in)
	}
}
