package server

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
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
// operations — insert, remove, seek the finger from the current value to
// this one — and checks every result, the list after every op and the
// finger against a reference kept by append + sort.Slice. The current value
// is where the last seek landed (0 before any); insert and remove are told
// it, as the index tells them the stream's value.
//
//	byte 0    op (low 2 bits: 0 insert, 1 remove, 2 and 3 seek) and value
//	          source (next 2 bits: 0 = the float64 in bytes 1..8,
//	          otherwise palette[byte 1])
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
			// The index never stores or walks a NaN: it files no interval
			// with a NaN bound, and a NaN move takes the scan and rebuilds
			// the stream.
			continue
		}
		switch op {
		case 0:
			if got, want := list.insert(v, id, last), find(k) < 0; got != want {
				t.Fatalf("insert(%v) = %v, want %v", k, got, want)
			} else if got {
				ref = append(ref, k)
				sort.Slice(ref, func(a, b int) bool { return keyLess(ref[a], ref[b]) })
			}
		case 1:
			i := find(k)
			if got, want := list.remove(v, id, last), i >= 0; got != want {
				t.Fatalf("remove(%v) = %v, want %v", k, got, want)
			} else if got {
				ref = append(ref[:i], ref[i+1:]...)
			}
		default:
			// The keys the move crosses: those with min(u, v) <= key.v <
			// max(u, v), in order.
			lo, hi := min(last, v), max(last, v)
			var want []bkey
			for _, r := range ref {
				if lo <= r.v && r.v < hi {
					want = append(want, r)
				}
			}
			at := int(list.at)
			from, to := list.seek(v)
			if from != at {
				t.Fatalf("seek %v→%v: from = %d, finger was at %d", last, v, from, at)
			}
			if got := list.keys[min(from, to):max(from, to)]; !slices.Equal(got, want) {
				t.Fatalf("seek %v→%v: keys %v, want %v", last, v, got, want)
			}
			last = v
		}
		if len(list.keys) != len(ref) {
			t.Fatalf("list holds %d keys, reference %d", len(list.keys), len(ref))
		}
		below := 0
		for i, key := range list.keys {
			if key != ref[i] {
				t.Fatalf("key %d = %v, reference %v", i, key, ref[i])
			}
			if i > 0 && !keyLess(list.keys[i-1], key) {
				t.Fatalf("keys %d,%d out of order or duplicated: %v, %v", i-1, i, list.keys[i-1], key)
			}
			if key.v < last {
				below++
			}
		}
		if int(list.at) != below {
			t.Fatalf("finger at %d, but %d keys lie below the current value %v", list.at, below, last)
		}
	}
}

// FuzzBoundList drives the per-stream boundary list through arbitrary
// programs against the sort.Slice reference (see runBoundProgram). The
// checked-in corpus under testdata/fuzz/FuzzBoundList holds the hand-written
// cases — equal values under different ids, the adjacent ±MaxFloat64
// neighbours, seeks starting and landing exactly on a key, NaN and both
// zeros on a near-empty list — and runs on every `go test`.
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
