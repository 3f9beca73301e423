package rankindex

import (
	"encoding/binary"
	"math"
	"reflect"
	"sort"
	"testing"

	"adaptivefilters/internal/query"
)

// fuzzStreams is the stream count FuzzIndexOps plays over: small, so ids
// collide and every op moves a stream that is already present.
const fuzzStreams = 16

// fuzzValue maps eight fuzz bytes to a value. NaN and ±Inf pass through;
// every finite value snaps to a multiple of 1/2 within ±2^20, which keeps
// ties common and keeps the index's x±d bound arithmetic exact, so the
// brute-force distance comparisons are the whole specification.
func fuzzValue(b []byte) float64 {
	v := math.Float64frombits(binary.BigEndian.Uint64(b))
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return v
	}
	return math.Max(-1<<20, math.Min(1<<20, math.Round(v*2)/2))
}

// FuzzIndexOps decodes a sequence of 9-byte ops (an op byte, then a
// big-endian float64) and plays it against a brute-force model: op%3 is
// Set, a reload of the model's values (Load: every stream present at its
// model value) or a probe, op>>4 picks the stream, and a probe's value
// becomes the point center and an extra count bound. After every op the
// whole query surface is compared with a re-sort of the model. The
// checked-in corpus (testdata/fuzz/FuzzIndexOps) includes a NaN Set — the
// input class that once corrupted the index order silently.
func FuzzIndexOps(f *testing.F) {
	f.Add([]byte{0x00, 0x40, 0x24, 0, 0, 0, 0, 0, 0, 0x01, 0x40, 0x34, 0, 0, 0, 0, 0, 0})
	// NaN Set: panics, leaving the index as it was.
	f.Add([]byte{0x00, 0x7f, 0xf8, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		ix := New(fuzzStreams)
		vals := make([]float64, fuzzStreams)
		has := make([]bool, fuzzStreams)
		x := 0.0
		for ; len(data) >= 9; data = data[9:] {
			op, v := data[0], fuzzValue(data[1:9])
			id := int(op >> 4)
			probe := math.NaN()
			switch op % 3 {
			case 0:
				if math.IsNaN(v) {
					mustPanic(t, "Set(NaN)", func() { ix.Set(id, v) })
					break
				}
				ix.Set(id, v)
				vals[id], has[id] = v, true
			case 1:
				ix.Load(vals)
				for id := range has {
					has[id] = true
				}
			default:
				probe = v
				if !math.IsNaN(v) && !math.IsInf(v, 0) {
					x = v
				}
			}
			checkIndex(t, ix, vals, has, x, probe)
		}
	})
}

// checkIndex compares every query of ix with the brute-force answer over
// the model (vals, has). The bounds and radii tried are every present
// value and distance plus probe, which may be NaN.
func checkIndex(t *testing.T, ix *Index, vals []float64, has []bool, x, probe float64) {
	t.Helper()
	var present []int
	for id, ok := range has {
		if ok {
			present = append(present, id)
		}
		if v, got := ix.Value(id); got != ok || ok && v != vals[id] {
			t.Fatalf("Value(%d) = %v,%v, model %v,%v", id, v, got, vals[id], ok)
		}
	}
	if ix.Len() != len(present) {
		t.Fatalf("Len = %d, model %d", ix.Len(), len(present))
	}
	bounds := []float64{probe}
	for _, id := range present {
		bounds = append(bounds, vals[id])
	}
	for _, lo := range bounds {
		for _, hi := range bounds {
			want := 0
			for _, id := range present {
				if lo <= vals[id] && vals[id] <= hi {
					want++
				}
			}
			if got := ix.CountRange(lo, hi); got != want {
				t.Fatalf("CountRange(%v, %v) = %d, model %d", lo, hi, got, want)
			}
		}
	}
	for _, q := range []query.Center{query.At(x), query.Top(), query.Bottom()} {
		radii := []float64{probe}
		for _, id := range present {
			radii = append(radii, q.Dist(vals[id]))
		}
		for _, d := range radii {
			closer, within := 0, 0
			for _, id := range present {
				if q.Dist(vals[id]) < d {
					closer++
				}
				if q.Dist(vals[id]) <= d {
					within++
				}
			}
			if got := ix.CountCloser(q, d); got != closer {
				t.Fatalf("%v CountCloser(%v) = %d, model %d", q, d, got, closer)
			}
			if got := ix.CountWithin(q, d); got != within {
				t.Fatalf("%v CountWithin(%v) = %d, model %d", q, d, got, within)
			}
		}
		for id := range has {
			rank, ok := ix.RankOf(id, q)
			want := 1
			for _, o := range present {
				if q.Dist(vals[o]) < q.Dist(vals[id]) {
					want++
				}
			}
			if ok != has[id] || ok && rank != want {
				t.Fatalf("%v RankOf(%d) = %d,%v, model %d,%v", q, id, rank, ok, want, has[id])
			}
		}
		order := append([]int(nil), present...)
		sort.Slice(order, func(a, b int) bool {
			da, db := q.Dist(vals[order[a]]), q.Dist(vals[order[b]])
			return da < db || da == db && order[a] < order[b]
		})
		for k := 0; k <= len(present)+1; k++ {
			want := order[:min(k, len(order))]
			if len(want) == 0 {
				want = nil
			}
			if got := ix.KNearest(q, k); !reflect.DeepEqual(got, want) {
				t.Fatalf("%v KNearest(%d) = %v, model %v", q, k, got, want)
			}
		}
	}
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	fn()
}
