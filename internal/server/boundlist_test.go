package server

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// boundPalette holds the values a boundary program draws from when it does
// not spell one out: repeats (so equal values meet under different ids),
// both zeros, and the extremes with their neighbours.
var boundPalette = []float64{
	0, math.Copysign(0, -1), 1, 2, 2, 100, 150, 200,
	math.MaxFloat64, math.Nextafter(math.MaxFloat64, 0),
	-math.MaxFloat64, math.Nextafter(-math.MaxFloat64, 0),
	math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
}

// runBoundProgram interprets data as a sequence of 10-byte boundary-list
// operations — insert, remove, walk the window from the previous value to
// this one, bracket this value — and checks every result, and the list
// after every mutation, against a reference kept by append + sort.Slice.
//
//	byte 0    op (low 2 bits) and value source (next 2 bits: 0 = the
//	          float64 in bytes 1..8, otherwise palette[byte 1])
//	byte 1-8  value bits (big endian)
//	byte 9    key id: low 3 bits, or MaxInt32 minus them when bit 7 is set
func runBoundProgram(t *testing.T, data []byte) {
	t.Helper()
	var list boundList
	var ref []bkey
	find := func(k bkey) int {
		for i, r := range ref {
			if r.v == k.v && r.id == k.id {
				return i
			}
		}
		return -1
	}
	last := 0.0
	for len(data) >= 10 {
		op := data[0] & 3
		v := math.Float64frombits(binary.BigEndian.Uint64(data[1:9]))
		if data[0]>>2&3 != 0 {
			v = boundPalette[int(data[1])%len(boundPalette)]
		}
		id := int32(data[9] & 7)
		if data[9]&0x80 != 0 {
			id = math.MaxInt32 - id
		}
		data = data[10:]
		k := bkey{v: v, id: id}

		if math.IsNaN(v) {
			// The index never stores or walks a NaN (addBounds filters, NaN
			// moves take the scan); bracket must still refuse a guard.
			_, _, exact := list.bracket(v)
			if exact != (len(ref) > 0) {
				t.Fatalf("bracket(NaN) exact = %v on %d keys", exact, len(ref))
			}
			continue
		}
		switch op {
		case 0:
			if got, want := list.insert(v, id), find(k) < 0; got != want {
				t.Fatalf("insert(%v) = %v, want %v", k, got, want)
			} else if got {
				ref = append(ref, k)
				sort.Slice(ref, func(a, b int) bool { return keyLess(ref[a], ref[b]) })
			}
		case 1:
			i := find(k)
			if got, want := list.remove(v, id), i >= 0; got != want {
				t.Fatalf("remove(%v) = %v, want %v", k, got, want)
			} else if got {
				ref = append(ref[:i], ref[i+1:]...)
			}
		case 2:
			lo, hi := last, v
			if lo > hi {
				lo, hi = hi, lo
			}
			var got, want []bkey
			for i := list.from(lo); i < len(list) && list[i].v <= hi; i++ {
				got = append(got, list[i])
			}
			for _, r := range ref {
				if lo <= r.v && r.v <= hi {
					want = append(want, r)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("window [%v, %v]: %d keys %v, want %d %v", lo, hi, len(got), got, len(want), want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("window [%v, %v] key %d = %v, want %v", lo, hi, i, got[i], want[i])
				}
			}
		default:
			lo, hi, exact := list.bracket(v)
			wantLo, wantHi, wantExact := math.Inf(-1), math.Inf(1), false
			for _, r := range ref {
				switch {
				case r.v < v && r.v > wantLo:
					wantLo = r.v
				case r.v > v && r.v < wantHi:
					wantHi = r.v
				case r.v == v:
					wantExact = true
				}
			}
			if exact != wantExact {
				t.Fatalf("bracket(%v) exact = %v, want %v", v, exact, wantExact)
			}
			if !exact && (lo != wantLo || hi != wantHi) {
				t.Fatalf("bracket(%v) = (%v, %v), want (%v, %v)", v, lo, hi, wantLo, wantHi)
			}
		}
		last = v
		if len(list) != len(ref) {
			t.Fatalf("list holds %d keys, reference %d", len(list), len(ref))
		}
		for i := range list {
			if list[i] != ref[i] {
				t.Fatalf("key %d = %v, reference %v", i, list[i], ref[i])
			}
			if i > 0 && !keyLess(list[i-1], list[i]) {
				t.Fatalf("keys %d,%d out of order or duplicated: %v, %v", i-1, i, list[i-1], list[i])
			}
		}
	}
}

// FuzzBoundList drives the per-stream boundary list through arbitrary
// programs against the sort.Slice reference (see runBoundProgram). The
// checked-in corpus under testdata/fuzz/FuzzBoundList holds the hand-written
// cases — equal values under different ids, the adjacent ±MaxFloat64
// neighbours, a bracket exactly on a key and a window ending on one, NaN and
// both zeros on a near-empty list — and runs on every `go test`.
func FuzzBoundList(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) { runBoundProgram(t, data) })
}

// TestBoundListAgainstReference runs a few long seeded programs
// (palette-heavy, so collisions are the rule) that a 15-second fuzz burst
// would not reach.
func TestBoundListAgainstReference(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prog := make([]byte, 10*3000)
		rng.Read(prog)
		runBoundProgram(t, prog)
	}
}
