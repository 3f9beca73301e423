package rankindex

import (
	"encoding/binary"
	"math"
	"reflect"
	"sort"
	"testing"

	"adaptivefilters/internal/oracle"
	"adaptivefilters/internal/query"
)

// fuzzStreams is the stream count FuzzIndexOps plays over: small, so ids
// collide and every op moves a stream that already has a value.
const fuzzStreams = 16

// FuzzIndexOps decodes a sequence of 9-byte ops (an op byte, then a
// big-endian float64 taken as is: NaN, ±Inf, ±0 and every finite value)
// and plays it against a brute-force model of the true values: op%3 is
// Apply, a rebuild of the checker from the model's values (New) or a
// probe, op>>4 picks the stream, and a probe's value becomes the point
// center and an extra count bound. After every op the whole query surface
// is compared with the model: counts and ranks from the definitions, the
// k nearest from a re-sort. The checked-in corpus
// (testdata/fuzz/FuzzIndexOps) includes a NaN Apply, which must panic.
func FuzzIndexOps(f *testing.F) {
	f.Add([]byte{0x00, 0x40, 0x24, 0, 0, 0, 0, 0, 0, 0x01, 0x40, 0x34, 0, 0, 0, 0, 0, 0})
	// NaN Apply: panics, leaving the truth as it was.
	f.Add([]byte{0x00, 0x7f, 0xf8, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		vals := make([]float64, fuzzStreams)
		o := oracle.New(vals)
		x := 0.0
		for ; len(data) >= 9; data = data[9:] {
			op := data[0]
			v := math.Float64frombits(binary.BigEndian.Uint64(data[1:9]))
			id := int(op >> 4)
			probe := math.NaN()
			switch op % 3 {
			case 0:
				if math.IsNaN(v) {
					mustPanic(t, "Apply(NaN)", func() { o.Apply(id, v) })
					break
				}
				o.Apply(id, v)
				vals[id] = v
			case 1:
				o = oracle.New(vals)
			default:
				probe = v
				if !math.IsNaN(v) && !math.IsInf(v, 0) {
					x = v
				}
			}
			checkIndex(t, o, vals, x, probe)
		}
	})
}

// checkIndex compares every query of o, and the k nearest of a ranking
// over the same values, with the brute-force answer over the model vals.
// The bounds and radii tried are every value and distance plus probe,
// which may be NaN.
func checkIndex(t *testing.T, o *oracle.Checker, vals []float64, x, probe float64) {
	t.Helper()
	for id, v := range vals {
		if got := o.Value(id); got != v {
			t.Fatalf("Value(%d) = %v, model %v", id, got, v)
		}
	}
	bounds := append([]float64{probe}, vals...)
	for _, lo := range bounds {
		for _, hi := range bounds {
			want := 0
			for _, v := range vals {
				if lo <= v && v <= hi {
					want++
				}
			}
			if got := o.CountRange(query.Range{Lo: lo, Hi: hi}); got != want {
				t.Fatalf("CountRange(%v, %v) = %d, model %d", lo, hi, got, want)
			}
		}
	}
	for _, q := range []query.Center{query.At(x), query.Top(), query.Bottom()} {
		radii := []float64{probe}
		for _, v := range vals {
			radii = append(radii, q.Dist(v))
		}
		for _, d := range radii {
			closer, within := 0, 0
			for _, v := range vals {
				if q.Dist(v) < d {
					closer++
				}
				if q.Dist(v) <= d {
					within++
				}
			}
			if got := o.CountCloser(q, d); got != closer {
				t.Fatalf("%v CountCloser(%v) = %d, model %d", q, d, got, closer)
			}
			if got := o.CountWithin(q, d); got != within {
				t.Fatalf("%v CountWithin(%v) = %d, model %d", q, d, got, within)
			}
		}
		for id := range vals {
			want := 1
			for _, v := range vals {
				if q.Dist(v) < q.Dist(vals[id]) {
					want++
				}
			}
			if rank := o.RankOf(id, q); rank != want {
				t.Fatalf("%v RankOf(%d) = %d, model %d", q, id, rank, want)
			}
		}
		order := make([]int, len(vals))
		for id := range order {
			order[id] = id
		}
		sort.Slice(order, func(a, b int) bool {
			da, db := q.Dist(vals[order[a]]), q.Dist(vals[order[b]])
			return da < db || da == db && order[a] < order[b]
		})
		for k := 0; k <= len(vals)+1; k++ {
			want := order[:min(k, len(order))]
			if len(want) == 0 {
				want = nil
			}
			if got := nearest(vals, nil, q, k); !reflect.DeepEqual(got, want) {
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
