package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"adaptivefilters/internal/snapshot"
)

// frameHeaderSize is the fixed length prefix: a little-endian uint32.
const frameHeaderSize = 4

// ioBufSize is the buffered reader's and writer's size on both ends of a
// connection. A socket read or write costs about the same whatever it
// carries, so the buffer sets how many small frames share one: bufio's
// default 4 KiB holds 11 32-event ingest frames, 16 KiB holds 45
// (DESIGN.md §9.2).
const ioBufSize = 16 << 10

// FrameWriter frames payloads onto a stream. One FrameWriter serves one
// connection direction; it owns a payload scratch buffer (reused across
// frames, so steady-state encoding allocates nothing) and a buffered
// writer that coalesces small frames — callers decide when to Flush,
// which is what makes pipelining cheap: a client can frame many requests
// and pay one syscall.
//
// Not safe for concurrent use.
type FrameWriter struct {
	w        *bufio.Writer
	enc      snapshot.Writer
	maxFrame int
	hdr      [frameHeaderSize]byte
	inFrame  bool
}

// NewFrameWriter wraps w. maxFrame <= 0 means DefaultMaxFrame.
func NewFrameWriter(w io.Writer, maxFrame int) *FrameWriter {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	return &FrameWriter{w: bufio.NewWriterSize(w, ioBufSize), maxFrame: maxFrame}
}

// Begin starts a frame and returns the payload encoder (reset and ready).
// The caller encodes one payload and calls End.
func (fw *FrameWriter) Begin() *snapshot.Writer {
	fw.enc.Reset()
	fw.inFrame = true
	return &fw.enc
}

// End frames the payload encoded since Begin onto the underlying writer.
func (fw *FrameWriter) End() error {
	if !fw.inFrame {
		return fmt.Errorf("wire: End without Begin")
	}
	fw.inFrame = false
	if err := fw.enc.Err(); err != nil {
		return err
	}
	payload := fw.enc.Bytes()
	if len(payload) > fw.maxFrame {
		return fmt.Errorf("wire: frame payload %d bytes exceeds max %d", len(payload), fw.maxFrame)
	}
	binary.LittleEndian.PutUint32(fw.hdr[:], uint32(len(payload)))
	if _, err := fw.w.Write(fw.hdr[:]); err != nil {
		return err
	}
	_, err := fw.w.Write(payload)
	return err
}

// Flush pushes buffered frames to the underlying writer.
func (fw *FrameWriter) Flush() error { return fw.w.Flush() }

// FrameReader reads length-prefixed frames from a stream into a reused
// payload buffer. One FrameReader serves one connection direction; the
// payload (and the snapshot.Reader over it) returned by Next is valid
// only until the following Next call.
//
// Not safe for concurrent use.
type FrameReader struct {
	r        *bufio.Reader
	maxFrame int
	buf      []byte
	dec      snapshot.Reader
	hdr      [frameHeaderSize]byte
}

// NewFrameReader wraps r. maxFrame <= 0 means DefaultMaxFrame; frames
// longer than that are refused at the header, before any allocation, so a
// corrupt or hostile length cannot balloon memory.
func NewFrameReader(r io.Reader, maxFrame int) *FrameReader {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	return &FrameReader{r: bufio.NewReaderSize(r, ioBufSize), maxFrame: maxFrame}
}

// Ready reports whether the next Next will be served entirely from bytes
// already buffered, without touching the underlying reader: a whole frame
// is buffered, or a buffered header carries a length Next refuses outright.
// A server uses it to find the end of a read burst — the point where going
// on would mean blocking on the socket (DESIGN.md §9.2). A frame too large
// for the read buffer is never Ready; it is simply read on its own.
func (fr *FrameReader) Ready() bool {
	have := fr.r.Buffered()
	if have < frameHeaderSize {
		return false
	}
	hdr, _ := fr.r.Peek(frameHeaderSize)
	n := int(binary.LittleEndian.Uint32(hdr))
	return n > fr.maxFrame || have-frameHeaderSize >= n
}

// Next reads one frame and returns a decoder over its payload. A clean
// end of stream at a frame boundary returns io.EOF; a stream cut mid-
// frame returns io.ErrUnexpectedEOF. Steady-state reads allocate nothing
// once the payload buffer has grown to the working frame size.
func (fr *FrameReader) Next() (*snapshot.Reader, error) {
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("wire: stream cut inside a frame header: %w", err)
		}
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(fr.hdr[:]))
	if n > fr.maxFrame {
		return nil, fmt.Errorf("wire: frame length %d exceeds max %d", n, fr.maxFrame)
	}
	if cap(fr.buf) < n {
		fr.buf = make([]byte, n)
	}
	fr.buf = fr.buf[:n]
	if _, err := io.ReadFull(fr.r, fr.buf); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("wire: stream cut inside a %d-byte frame: %w", n, io.ErrUnexpectedEOF)
		}
		return nil, err
	}
	fr.dec.Reset(fr.buf)
	return &fr.dec, nil
}
