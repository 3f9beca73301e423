// Package snapshot implements the fixed-width binary encoding used by the
// runtime's tenant snapshots (DESIGN.md §6).
//
// The format is deliberately boring: little-endian fixed-width primitives,
// length-prefixed strings and slices, no compression, no framing. Two
// properties matter more than density:
//
//   - Determinism: the same logical state always encodes to the same bytes,
//     so CI can byte-diff snapshots taken on nodes with different shard
//     counts.
//   - Robust decoding: a Reader validates every length against the bytes
//     actually remaining before allocating, and records the first error
//     instead of panicking, so corrupted or truncated snapshots surface as
//     errors from RestoreNode — never as a crash (FuzzRestoreNode pins
//     this).
//
// Errors are sticky: after the first failure every subsequent read returns
// the zero value and Err()/Done() report the original cause, so decode code
// can read a whole section and check once.
//
// The package also carries the varint primitives (Uvarint/Varint) the
// network wire format (internal/wire) builds its frame payloads from, and
// both Writer and Reader support Reset so frame codecs can reuse one
// buffer per connection on the hot path. Node snapshots themselves stay
// fixed-width: varints are a wire-density tool, not a snapshot encoding
// change.
package snapshot

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// Writer accumulates an encoded snapshot. The zero value is ready to use.
//
// Like the Reader, the Writer carries a sticky error: exporters that
// discover their state cannot be encoded restorably (e.g. an RNG position
// beyond the replay bound) record it with Fail, and the snapshot producer
// checks Err once at the end instead of threading errors through every
// ExportState signature.
type Writer struct {
	buf []byte
	err error
}

// NewWriter returns an empty Writer.
func NewWriter() *Writer { return &Writer{} }

// Bytes returns the encoded snapshot. The slice aliases the Writer's
// buffer; the Writer must not be written to again while the slice is in
// use. After the bytes have been consumed (written to a socket, copied
// out), Reset makes the Writer safe to reuse.
func (w *Writer) Bytes() []byte { return w.buf }

// Reset truncates the buffer (keeping its capacity) and clears any sticky
// error, making the Writer ready for a fresh encoding. Frame codecs call
// it once per frame so steady-state encoding reuses one buffer.
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	w.err = nil
}

// Fail records the first export error; later calls keep the original.
func (w *Writer) Fail(err error) {
	if w.err == nil {
		w.err = err
	}
}

// Err returns the first export error, or nil.
func (w *Writer) Err() error { return w.err }

// Len returns the number of bytes written so far.
func (w *Writer) Len() int { return len(w.buf) }

// Uint64 appends a fixed-width unsigned integer.
func (w *Writer) Uint64(v uint64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
}

// Int64 appends a fixed-width signed integer.
func (w *Writer) Int64(v int64) { w.Uint64(uint64(v)) }

// Int appends an int as a fixed-width signed integer.
func (w *Writer) Int(v int) { w.Int64(int64(v)) }

// Float64 appends the IEEE-754 bit pattern of v (NaNs survive bit-exactly).
func (w *Writer) Float64(v float64) { w.Uint64(math.Float64bits(v)) }

// Uvarint appends a variable-width unsigned integer (the wire format's
// density primitive; node snapshots stay fixed-width).
func (w *Writer) Uvarint(v uint64) {
	w.buf = binary.AppendUvarint(w.buf, v)
}

// Grow returns n bytes of free space past the end of the buffer, growing
// its capacity if need be, for a codec that writes a run of fields with
// encoding/binary's Put functions in one loop. Extend then appends the
// first m ≤ n of them; nothing is appended until it does.
func (w *Writer) Grow(n int) []byte {
	w.buf = slices.Grow(w.buf, n)
	return w.buf[len(w.buf) : len(w.buf)+n]
}

// Extend appends the first n bytes of the space Grow returned.
func (w *Writer) Extend(n int) { w.buf = w.buf[:len(w.buf)+n] }

// Varint appends a zigzag variable-width signed integer.
func (w *Writer) Varint(v int64) {
	w.buf = binary.AppendVarint(w.buf, v)
}

// Bool appends one byte: 1 for true, 0 for false.
func (w *Writer) Bool(b bool) {
	if b {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}

// String appends a length-prefixed UTF-8 string.
func (w *Writer) String(s string) {
	w.Uint64(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Float64s appends a length-prefixed float64 slice.
func (w *Writer) Float64s(xs []float64) {
	w.Uint64(uint64(len(xs)))
	for _, x := range xs {
		w.Float64(x)
	}
}

// Bools appends a length-prefixed bool slice.
func (w *Writer) Bools(xs []bool) {
	w.Uint64(uint64(len(xs)))
	for _, x := range xs {
		w.Bool(x)
	}
}

// Ints appends a length-prefixed int slice.
func (w *Writer) Ints(xs []int) {
	w.Uint64(uint64(len(xs)))
	for _, x := range xs {
		w.Int(x)
	}
}

// Reader decodes a snapshot produced by Writer. The first decoding failure
// (truncation, oversized length) sticks: every later read returns the zero
// value and Err reports the original cause.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a Reader over data. The Reader does not copy data;
// callers must not mutate it while decoding.
func NewReader(data []byte) *Reader { return &Reader{buf: data} }

// Reset re-points the Reader at data from offset zero and clears any
// sticky error — the decoding analogue of Writer.Reset, so frame codecs
// can decode one payload after another through a single Reader without
// reallocating.
func (r *Reader) Reset(data []byte) {
	r.buf = data
	r.off = 0
	r.err = nil
}

// Err returns the first decoding error, or nil.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of undecoded bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// Done returns the first decoding error if any, and otherwise an error when
// undecoded bytes remain — a snapshot must be consumed exactly.
func (r *Reader) Done() error {
	if r.err != nil {
		return r.err
	}
	if rem := r.Remaining(); rem != 0 {
		return fmt.Errorf("snapshot: %d trailing bytes after decode", rem)
	}
	return nil
}

// fail records the first error.
func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("snapshot: "+format, args...)
	}
}

// take consumes n bytes, or fails on truncation.
func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.Remaining() < n {
		r.fail("truncated: need %d bytes at offset %d, have %d", n, r.off, r.Remaining())
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// Rest returns the undecoded bytes without consuming them (nil after a
// failure). With Skip it lets a hot-path codec run its own decode loop over
// the raw payload and hand the Reader back positioned where that loop
// stopped.
func (r *Reader) Rest() []byte {
	if r.err != nil {
		return nil
	}
	return r.buf[r.off:]
}

// Skip consumes n bytes without decoding them, failing on truncation.
func (r *Reader) Skip(n int) { r.take(n) }

// Uint64 decodes a fixed-width unsigned integer.
func (r *Reader) Uint64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// Int64 decodes a fixed-width signed integer.
func (r *Reader) Int64() int64 { return int64(r.Uint64()) }

// Int decodes an int, failing when the stored value does not fit the
// platform's int.
func (r *Reader) Int() int {
	v := r.Int64()
	if int64(int(v)) != v {
		r.fail("integer %d overflows int", v)
		return 0
	}
	return int(v)
}

// Float64 decodes an IEEE-754 bit pattern.
func (r *Reader) Float64() float64 { return math.Float64frombits(r.Uint64()) }

// Uvarint decodes a variable-width unsigned integer, failing on truncated
// or overlong (more than 10 byte / 64 bit) encodings.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail("invalid uvarint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

// Varint decodes a zigzag variable-width signed integer.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		r.fail("invalid varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

// Bool decodes one byte, failing on values other than 0 or 1.
func (r *Reader) Bool() bool {
	b := r.take(1)
	if b == nil {
		return false
	}
	switch b[0] {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail("invalid bool byte %d at offset %d", b[0], r.off-1)
		return false
	}
}

// length decodes a slice/string length of elemSize-byte elements, validating
// it against the bytes actually remaining so corrupted lengths cannot force
// huge allocations.
func (r *Reader) length(elemSize int) int {
	n := r.Uint64()
	if r.err != nil {
		return 0
	}
	if n > uint64(r.Remaining())/uint64(elemSize) {
		r.fail("length %d exceeds remaining input (%d bytes)", n, r.Remaining())
		return 0
	}
	return int(n)
}

// String decodes a length-prefixed string.
func (r *Reader) String() string {
	n := r.length(1)
	b := r.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

// Float64s decodes a length-prefixed float64 slice.
func (r *Reader) Float64s() []float64 {
	n := r.length(8)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = r.Float64()
	}
	return out
}

// Bools decodes a length-prefixed bool slice.
func (r *Reader) Bools() []bool {
	n := r.length(1)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]bool, n)
	for i := range out {
		out[i] = r.Bool()
	}
	return out
}

// Ints decodes a length-prefixed int slice.
func (r *Reader) Ints() []int {
	n := r.length(8)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = r.Int()
	}
	return out
}
