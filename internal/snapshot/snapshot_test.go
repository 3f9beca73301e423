package snapshot

import (
	"fmt"
	"math"
	"testing"
)

// TestRoundTrip writes one of everything and reads it back.
func TestRoundTrip(t *testing.T) {
	w := NewWriter()
	w.Uint64(0xDEADBEEF)
	w.Int64(-42)
	w.Int(123456)
	w.Float64(math.Pi)
	w.Float64(math.Inf(-1))
	w.Bool(true)
	w.Bool(false)
	w.String("hello, 世界")
	w.String("")
	w.Float64s([]float64{1.5, -2.5, math.Inf(1)})
	w.Bools([]bool{true, false, true})
	w.Ints([]int{7, -9, 0})

	r := NewReader(w.Bytes())
	if got := r.Uint64(); got != 0xDEADBEEF {
		t.Fatalf("Uint64 = %x", got)
	}
	if got := r.Int64(); got != -42 {
		t.Fatalf("Int64 = %d", got)
	}
	if got := r.Int(); got != 123456 {
		t.Fatalf("Int = %d", got)
	}
	if got := r.Float64(); got != math.Pi {
		t.Fatalf("Float64 = %v", got)
	}
	if got := r.Float64(); !math.IsInf(got, -1) {
		t.Fatalf("Float64 = %v, want -Inf", got)
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("Bool round-trip failed")
	}
	if got := r.String(); got != "hello, 世界" {
		t.Fatalf("String = %q", got)
	}
	if got := r.String(); got != "" {
		t.Fatalf("String = %q, want empty", got)
	}
	fs := r.Float64s()
	if len(fs) != 3 || fs[0] != 1.5 || fs[1] != -2.5 || !math.IsInf(fs[2], 1) {
		t.Fatalf("Float64s = %v", fs)
	}
	bs := r.Bools()
	if len(bs) != 3 || !bs[0] || bs[1] || !bs[2] {
		t.Fatalf("Bools = %v", bs)
	}
	is := r.Ints()
	if len(is) != 3 || is[0] != 7 || is[1] != -9 || is[2] != 0 {
		t.Fatalf("Ints = %v", is)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

// TestNaNBitExact checks NaN payloads survive the codec bit-for-bit.
func TestNaNBitExact(t *testing.T) {
	quietNaN := math.Float64frombits(0x7FF8000000000001)
	w := NewWriter()
	w.Float64(quietNaN)
	got := NewReader(w.Bytes()).Float64()
	if math.Float64bits(got) != 0x7FF8000000000001 {
		t.Fatalf("NaN bits = %x", math.Float64bits(got))
	}
}

// TestStickyErrors checks the first failure is kept and later reads are
// inert zero values.
func TestStickyErrors(t *testing.T) {
	r := NewReader([]byte{1, 2, 3})
	if got := r.Uint64(); got != 0 {
		t.Fatalf("truncated Uint64 = %d, want 0", got)
	}
	first := r.Err()
	if first == nil {
		t.Fatal("no error after truncated read")
	}
	_ = r.String()
	_ = r.Float64s()
	_ = r.Bool()
	if r.Err() != first {
		t.Fatalf("error replaced: %v -> %v", first, r.Err())
	}
	if r.Done() != first {
		t.Fatal("Done did not surface the first error")
	}
}

// TestLengthBounds checks oversized lengths fail before allocating.
func TestLengthBounds(t *testing.T) {
	w := NewWriter()
	w.Uint64(1 << 60) // an absurd element count with no elements behind it
	for _, read := range map[string]func(*Reader){
		"string":   func(r *Reader) { _ = r.String() },
		"float64s": func(r *Reader) { r.Float64s() },
		"bools":    func(r *Reader) { r.Bools() },
		"ints":     func(r *Reader) { r.Ints() },
	} {
		r := NewReader(w.Bytes())
		read(r)
		if r.Err() == nil {
			t.Fatal("oversized length accepted")
		}
	}
}

// TestTrailingBytes checks Done rejects unconsumed input.
func TestTrailingBytes(t *testing.T) {
	w := NewWriter()
	w.Bool(true)
	w.Bool(true)
	r := NewReader(w.Bytes())
	r.Bool()
	if err := r.Done(); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

// TestInvalidBool checks bytes other than 0/1 are rejected.
func TestInvalidBool(t *testing.T) {
	r := NewReader([]byte{2})
	r.Bool()
	if r.Err() == nil {
		t.Fatal("bool byte 2 accepted")
	}
}

// TestVarintRoundTrip covers the wire-format varint primitives across the
// width boundaries and the sign extremes.
func TestVarintRoundTrip(t *testing.T) {
	uvals := []uint64{0, 1, 127, 128, 16383, 16384, 1<<32 - 1, 1 << 63, math.MaxUint64}
	svals := []int64{0, 1, -1, 63, -64, 64, -65, math.MaxInt64, math.MinInt64}
	w := NewWriter()
	for _, v := range uvals {
		w.Uvarint(v)
	}
	for _, v := range svals {
		w.Varint(v)
	}
	r := NewReader(w.Bytes())
	for _, v := range uvals {
		if got := r.Uvarint(); got != v {
			t.Fatalf("Uvarint = %d, want %d", got, v)
		}
	}
	for _, v := range svals {
		if got := r.Varint(); got != v {
			t.Fatalf("Varint = %d, want %d", got, v)
		}
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

// TestVarintTruncated checks cut-off and overlong varint encodings fail
// instead of reading past the buffer.
func TestVarintTruncated(t *testing.T) {
	for name, data := range map[string][]byte{
		"empty":     {},
		"cut":       {0x80},
		"cut-multi": {0xFF, 0xFF, 0xFF},
		// 11 continuation bytes: longer than any valid 64-bit encoding.
		"overlong": {0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80},
	} {
		r := NewReader(data)
		if got := r.Uvarint(); got != 0 {
			t.Fatalf("%s: truncated Uvarint = %d, want 0", name, got)
		}
		if r.Err() == nil {
			t.Fatalf("%s: truncated uvarint accepted", name)
		}
		r.Reset(data)
		r.Varint()
		if r.Err() == nil {
			t.Fatalf("%s: truncated varint accepted", name)
		}
	}
}

// TestWriterReset checks a Writer recycles its buffer across encodings and
// that a sticky Fail stays sticky until — and only until — Reset.
func TestWriterReset(t *testing.T) {
	w := NewWriter()
	w.String("first frame payload")
	first := len(w.Bytes())
	if first == 0 {
		t.Fatal("nothing written")
	}
	w.Fail(errTest)
	w.Uint64(7) // writes after Fail still append; the error is what sticks
	if w.Err() != errTest {
		t.Fatalf("Err = %v, want errTest", w.Err())
	}
	w.Fail(errOther)
	if w.Err() != errTest {
		t.Fatal("Fail overwrote the first error")
	}

	w.Reset()
	if w.Err() != nil {
		t.Fatalf("Err after Reset = %v, want nil", w.Err())
	}
	if w.Len() != 0 {
		t.Fatalf("Len after Reset = %d, want 0", w.Len())
	}
	w.Uint64(42)
	r := NewReader(w.Bytes())
	if got := r.Uint64(); got != 42 || r.Done() != nil {
		t.Fatalf("post-Reset round-trip = %d, err %v", got, r.Done())
	}

	// Steady-state reuse must not reallocate: the second identical encoding
	// fits the first one's capacity.
	w.Reset()
	w.String("first frame payload")
	if allocs := testing.AllocsPerRun(100, func() {
		w.Reset()
		w.String("first frame payload")
	}); allocs != 0 {
		t.Fatalf("Reset+rewrite allocates %.1f/op, want 0", allocs)
	}
}

// TestWriterGrowExtend checks that Grow appends nothing by itself, that
// Extend appends exactly the prefix written into Grow's space behind what
// the Writer held, and that a reused Writer grows without allocating.
func TestWriterGrowExtend(t *testing.T) {
	w := NewWriter()
	w.Uvarint(300)
	b := w.Grow(16)
	if len(b) != 16 || w.Len() != 2 {
		t.Fatalf("Grow(16) gave %d bytes and left Len %d, want 16 and 2", len(b), w.Len())
	}
	copy(b, "abcdef")
	w.Extend(3)
	w.Bool(true)
	r := NewReader(w.Bytes())
	if v := r.Uvarint(); v != 300 {
		t.Fatalf("prefix read back as %d", v)
	}
	var got [3]byte
	for i := range got {
		got[i] = byte(r.Uvarint())
	}
	if string(got[:]) != "abc" || !r.Bool() || r.Done() != nil {
		t.Fatalf("extended bytes read back as %q, err %v", got, r.Done())
	}
	if allocs := testing.AllocsPerRun(100, func() {
		w.Reset()
		w.Extend(len(w.Grow(64)))
	}); allocs != 0 {
		t.Fatalf("Grow on a reused Writer allocates %.1f/op, want 0", allocs)
	}
}

// TestReaderReset checks Reset re-points a failed Reader at fresh data with
// a clean error state, and that the pre-Reset failure was sticky.
func TestReaderReset(t *testing.T) {
	r := NewReader([]byte{1})
	r.Uint64() // truncated
	first := r.Err()
	if first == nil {
		t.Fatal("truncated read accepted")
	}
	r.Uint64()
	if r.Err() != first {
		t.Fatal("error not sticky before Reset")
	}

	w := NewWriter()
	w.Uvarint(300)
	r.Reset(w.Bytes())
	if r.Err() != nil {
		t.Fatalf("Err after Reset = %v, want nil", r.Err())
	}
	if got := r.Uvarint(); got != 300 {
		t.Fatalf("Uvarint after Reset = %d, want 300", got)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

var (
	errTest  = fmt.Errorf("export failed")
	errOther = fmt.Errorf("later failure")
)

// FuzzReader drives arbitrary bytes through every primitive in a fixed
// rotation: decoding must never panic, and whatever error appears must be
// sticky.
func FuzzReader(f *testing.F) {
	w := NewWriter()
	w.String("seed")
	w.Float64s([]float64{1, 2, 3})
	w.Uint64(7)
	f.Add(w.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(data)
		for r.Err() == nil && r.Remaining() > 0 {
			r.Uint64()
			r.Bool()
			_ = r.String()
			r.Float64s()
			r.Ints()
			r.Bools()
			r.Uvarint()
			r.Varint()
		}
		first := r.Err()
		r.Uint64()
		_ = r.String()
		if first != nil && r.Err() != first {
			t.Fatal("error not sticky")
		}
		_ = r.Done()
	})
}
