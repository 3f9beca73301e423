package filter_test

import (
	"bytes"
	"math"
	"testing"

	"adaptivefilters/internal/filter"
	"adaptivefilters/internal/snapshot"
	"adaptivefilters/internal/stream"
)

// FuzzIntervalInvariants drives a fuzzer through the interval-constraint
// predicates and checks the §3.1 semantics stay mutually consistent for
// arbitrary (including infinite and NaN) bounds and values:
//
//   - Violates is exactly a Contains boundary crossing.
//   - Silent constraints can never be violated and never report through a
//     source (Install consistency).
//   - WideOpen/Shut classifications agree with Contains.
//   - A source holding the filter reports exactly on violations.
func FuzzIntervalInvariants(f *testing.F) {
	f.Add(400.0, 600.0, 500.0, 700.0)
	f.Add(0.0, 0.0, 0.0, 0.0)
	f.Add(math.Inf(-1), math.Inf(1), 1.0, 2.0)
	f.Add(math.Inf(1), math.Inf(1), 1.0, 2.0)
	f.Add(5.0, -5.0, 0.0, 1.0) // empty interval (lo > hi)
	f.Add(math.NaN(), 1.0, 0.5, 1.5)
	f.Fuzz(func(t *testing.T, lo, hi, prev, v float64) {
		c := filter.NewInterval(lo, hi)
		if got, want := c.Violates(prev, v), c.Contains(prev) != c.Contains(v); got != want {
			t.Fatalf("[%g,%g].Violates(%g,%g) = %v, but Contains(prev)=%v Contains(v)=%v",
				lo, hi, prev, v, got, c.Contains(prev), c.Contains(v))
		}
		if c.Silent() && c.Violates(prev, v) {
			t.Fatalf("silent constraint %v violated by (%g -> %g)", c, prev, v)
		}
		if c.IsWideOpen() {
			if !c.Silent() {
				t.Fatalf("%v IsWideOpen but not Silent", c)
			}
			if !math.IsNaN(v) && !c.Contains(v) {
				t.Fatalf("wide-open constraint does not contain %g", v)
			}
		}
		if c.IsShut() {
			if !c.Silent() {
				t.Fatalf("%v IsShut but not Silent", c)
			}
			if !math.IsInf(v, 0) && c.Contains(v) {
				t.Fatalf("shut constraint %v contains finite %g", c, v)
			}
		}
		if c.IsWideOpen() && c.IsShut() {
			t.Fatalf("%v is both wide-open and shut", c)
		}

		// Install consistency: a source at prev holding this filter, with
		// the server expecting the side the filter itself computes, reports
		// exactly when the value change violates the constraint. A NaN value
		// never reaches a source — the trust boundaries in front refuse it
		// and the source panics on one — so only the predicates above see
		// NaN.
		if math.IsNaN(prev) || math.IsNaN(v) {
			return
		}
		src := stream.New(prev)
		if src.Install(0, c, c.Contains(prev)) {
			t.Fatalf("install of %v at %g with the true side reported", c, prev)
		}
		sent := src.Set(0, v)
		if want := c.Violates(prev, v); sent != want {
			t.Fatalf("source with %v at %g: Set(%g) reported %v, Violates says %v",
				c, prev, v, sent, want)
		}
	})
}

// FuzzBandIntervalRoundTrip checks the band filter against its interval
// expansion: a band of half-width hw centered at center contains exactly
// what the closed interval [center-hw, center+hw] contains, and the
// accessors round-trip the construction parameters.
func FuzzBandIntervalRoundTrip(f *testing.F) {
	f.Add(500.0, 50.0, 540.0)
	f.Add(0.0, 0.0, 0.0)
	f.Add(-3.25, 1.5, -4.75)
	f.Add(1e300, 1e300, -1e300)
	f.Fuzz(func(t *testing.T, center, hw, v float64) {
		b := filter.NewBand(center, hw)
		if b.BandCenter() != center && !math.IsNaN(center) {
			t.Fatalf("BandCenter = %g, want %g", b.BandCenter(), center)
		}
		if b.BandHalfWidth() != hw && !math.IsNaN(hw) {
			t.Fatalf("BandHalfWidth = %g, want %g", b.BandHalfWidth(), hw)
		}
		iv := filter.NewInterval(center-hw, center+hw)
		if got, want := b.Contains(v), iv.Contains(v); got != want {
			t.Fatalf("band(%g±%g).Contains(%g) = %v, interval %v says %v",
				center, hw, v, got, iv, want)
		}
		if b.Silent() || b.IsWideOpen() || b.IsShut() {
			t.Fatalf("band classified as silent: %v", b)
		}
		// Bands report by deviation, not crossing: Violates is interval-only.
		if b.Violates(0, v) {
			t.Fatalf("band %v claims interval-style violation", b)
		}
	})
}

// FuzzConstraintCodec checks the snapshot round-trip: every constraint
// (valid kinds, arbitrary bit patterns in the bounds) decodes back to
// itself bit-exactly, and arbitrary byte prefixes never panic the decoder.
func FuzzConstraintCodec(f *testing.F) {
	f.Add(int64(1), 400.0, 600.0)
	f.Add(int64(0), 0.0, 0.0)
	f.Add(int64(2), 500.0, 25.0)
	f.Add(int64(99), 1.0, 2.0)
	f.Fuzz(func(t *testing.T, kind int64, lo, hi float64) {
		w := snapshot.NewWriter()
		w.Int64(kind)
		w.Float64(lo)
		w.Float64(hi)
		c, err := filter.ImportConstraint(snapshot.NewReader(w.Bytes()))
		if kind < int64(filter.None) || kind > int64(filter.Band) {
			if err == nil {
				t.Fatalf("invalid kind %d decoded without error", kind)
			}
			return
		}
		if err != nil {
			t.Fatalf("decoding kind %d failed: %v", kind, err)
		}
		want := filter.Constraint{Kind: filter.Kind(kind), Lo: lo, Hi: hi}
		if math.Float64bits(c.Lo) != math.Float64bits(want.Lo) ||
			math.Float64bits(c.Hi) != math.Float64bits(want.Hi) || c.Kind != want.Kind {
			t.Fatalf("round-trip %+v -> %+v", want, c)
		}
		// Re-encode: the codec must be deterministic.
		w2 := snapshot.NewWriter()
		c.ExportState(w2)
		c2, err := filter.ImportConstraint(snapshot.NewReader(w2.Bytes()))
		if err != nil || c2 != c {
			t.Fatalf("second round-trip %+v -> %+v (%v)", c, c2, err)
		}
	})
}

// FuzzConstraintVectorCodec pins the composite constraint-vector codec the
// query plane snapshots per-stream filter entries with: decoding arbitrary
// bytes must either fail with an error (never a panic, never an unbounded
// allocation) or yield a vector whose canonical re-encoding is exactly the
// consumed input prefix — i.e. every accepted input is the one encoding of
// its decoded state.
func FuzzConstraintVectorCodec(f *testing.F) {
	seed := func(cs ...filter.Constraint) []byte {
		w := snapshot.NewWriter()
		filter.ExportConstraints(w, cs)
		return w.Bytes()
	}
	f.Add(seed())
	f.Add(seed(filter.NewInterval(100, 300), filter.WideOpen(), filter.Shut()))
	f.Add(seed(filter.NoFilter(), filter.NewBand(500, 25)))
	f.Add(seed(filter.NewInterval(math.Inf(-1), math.Inf(-1))))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}) // huge length
	f.Add(seed(filter.NewInterval(1, 2))[:10])                    // truncated entry
	f.Fuzz(func(t *testing.T, data []byte) {
		r := snapshot.NewReader(data)
		cs, err := filter.ImportConstraints(r)
		if err != nil {
			return // rejected cleanly: exactly the contract
		}
		consumed := len(data) - r.Remaining()
		w := snapshot.NewWriter()
		filter.ExportConstraints(w, cs)
		if !bytes.Equal(w.Bytes(), data[:consumed]) {
			t.Fatalf("decoded vector %v re-encodes to %x, consumed input was %x",
				cs, w.Bytes(), data[:consumed])
		}
		// A second decode of the canonical bytes must agree exactly.
		cs2, err := filter.ImportConstraints(snapshot.NewReader(w.Bytes()))
		if err != nil {
			t.Fatalf("canonical bytes failed to decode: %v", err)
		}
		if len(cs2) != len(cs) {
			t.Fatalf("second decode has %d entries, want %d", len(cs2), len(cs))
		}
		for i := range cs {
			if cs[i].Kind != cs2[i].Kind ||
				math.Float64bits(cs[i].Lo) != math.Float64bits(cs2[i].Lo) ||
				math.Float64bits(cs[i].Hi) != math.Float64bits(cs2[i].Hi) {
				t.Fatalf("entry %d round-trip %+v -> %+v", i, cs[i], cs2[i])
			}
		}
	})
}

// FuzzRegionCodec checks the spatial round-trip: every region with a valid
// kind and non-NaN fields decodes back to itself bit-exactly, invalid kinds
// and NaN fields are rejected with an error (never a panic), and the
// re-encoding of any accepted region is deterministic.
func FuzzRegionCodec(f *testing.F) {
	f.Add(int64(1), 10.0, 20.0, 5.0, 0.0)
	f.Add(int64(2), 0.0, 0.0, 3.0, 4.0)
	f.Add(int64(0), 0.0, 0.0, 0.0, 0.0)
	f.Add(int64(1), 0.0, 0.0, math.Inf(1), 0.0)
	f.Add(int64(1), 0.0, 0.0, -1.0, 0.0)
	f.Add(int64(99), 1.0, 2.0, 3.0, 4.0)
	f.Add(int64(1), math.NaN(), 0.0, 5.0, 0.0)
	f.Fuzz(func(t *testing.T, kind int64, cx, cy, a, b float64) {
		w := snapshot.NewWriter()
		w.Int64(kind)
		w.Float64(cx)
		w.Float64(cy)
		w.Float64(a)
		w.Float64(b)
		reg, err := filter.ImportRegion(snapshot.NewReader(w.Bytes()))
		badKind := kind < int64(filter.RegionNone) || kind > int64(filter.RegionRect)
		hasNaN := math.IsNaN(cx) || math.IsNaN(cy) || math.IsNaN(a) || math.IsNaN(b)
		if badKind || hasNaN {
			if err == nil {
				t.Fatalf("invalid region (kind=%d nan=%v) decoded without error", kind, hasNaN)
			}
			return
		}
		if err != nil {
			t.Fatalf("decoding kind %d failed: %v", kind, err)
		}
		want := filter.Region{Kind: filter.RegionKind(kind), C: filter.Point{X: cx, Y: cy}, A: a, B: b}
		if math.Float64bits(reg.C.X) != math.Float64bits(want.C.X) ||
			math.Float64bits(reg.C.Y) != math.Float64bits(want.C.Y) ||
			math.Float64bits(reg.A) != math.Float64bits(want.A) ||
			math.Float64bits(reg.B) != math.Float64bits(want.B) || reg.Kind != want.Kind {
			t.Fatalf("round-trip %+v -> %+v", want, reg)
		}
		w2 := snapshot.NewWriter()
		reg.ExportState(w2)
		reg2, err := filter.ImportRegion(snapshot.NewReader(w2.Bytes()))
		if err != nil || reg2 != reg {
			t.Fatalf("second round-trip %+v -> %+v (%v)", reg, reg2, err)
		}
		// Silent regions must never be violated, mirroring the 1-D invariant.
		if reg.Silent() && reg.Violates(filter.Point{X: 1, Y: 1}, filter.Point{X: 1e9, Y: -1e9}) {
			t.Fatalf("silent region %v violated", reg)
		}
	})
}
