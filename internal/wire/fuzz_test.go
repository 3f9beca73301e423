package wire_test

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"strings"
	"testing"

	"adaptivefilters/internal/runtime"
	"adaptivefilters/internal/snapshot"
	"adaptivefilters/internal/wire"
)

// seedStream frames one payload of every op, request and reply, into one
// byte stream — the shape an honest connection puts on the wire.
func seedStream() []byte {
	var buf bytes.Buffer
	fw := wire.NewFrameWriter(&buf, 0)
	for _, c := range opCases() {
		c.encode(fw.Begin())
		fw.End()
	}
	fw.Flush()
	return buf.Bytes()
}

// decodePayload runs the dispatch the two ends run on an incoming payload:
// a reply goes to DecodeReply, as the client reads it; an ingest batch to
// DecodeIngestInto and any other request to DecodeRequest, as the server
// reads them, and a decoded spec is compiled, as netserve.Apply compiles
// it. Garbage must come back as errors, never panics.
func decodePayload(r *snapshot.Reader) {
	hdr, err := wire.DecodeHeader(r)
	switch {
	case err != nil:
	case wire.IsReply(hdr.Op):
		wire.DecodeReply(hdr, r)
	case hdr.Op == wire.OpIngest:
		wire.DecodeIngestInto(r, nil)
		r.Done()
	default:
		if req, err := wire.DecodeRequest(hdr, r); err == nil {
			req.Tenant.Runtime()
			req.Query.Runtime(64)
		}
	}
}

// FuzzFrame feeds arbitrary byte streams through the frame reader and the
// full op dispatch: no input may panic or allocate beyond the frame bound.
// A second arm replays the same bytes in chunks and holds FrameReader.Ready
// to its contract at every frame boundary.
func FuzzFrame(f *testing.F) {
	f.Add(seedStream())
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{4, 0, 0, 0, 1, 1, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		fr := wire.NewFrameReader(bytes.NewReader(data), 1<<16)
		for {
			r, err := fr.Next()
			if err != nil {
				break
			}
			decodePayload(r)
		}
		checkReady(t, data)
	})
}

// chunkReader hands out data in chunks whose sizes it draws from the data
// itself, and counts Read calls — how the Ready arm sees whether a Next
// touched the "socket".
type chunkReader struct {
	data  []byte
	off   int
	state uint32
	reads int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	c.reads++
	if c.off == len(c.data) {
		return 0, io.EOF
	}
	c.state = c.state*1664525 + 1013904223 + uint32(c.data[c.off])
	n := min(1+int(c.state>>24)%97, len(p), len(c.data)-c.off)
	copy(p, c.data[c.off:c.off+n])
	c.off += n
	return n, nil
}

// checkReady walks data through a FrameReader over arbitrary chunkings.
// Before every Next: if Ready says yes, that Next must issue no Read, and
// an oversized length must be what makes it fail; if fewer bytes are
// buffered than a header, or than the frame the header announces, Ready
// must say no. Chunked reading must also yield the frames whole reading
// yields.
func checkReady(t *testing.T, data []byte) {
	const maxFrame = 1 << 16
	whole := wire.NewFrameReader(bytes.NewReader(data), maxFrame)
	src := &chunkReader{data: data}
	fr := wire.NewFrameReader(src, maxFrame)
	for {
		ready, before := fr.Ready(), src.reads
		r, err := fr.Next()
		if ready && src.reads != before {
			t.Fatalf("Ready() was true but Next issued %d reads", src.reads-before)
		}
		wr, werr := whole.Next()
		if (err == nil) != (werr == nil) {
			t.Fatalf("chunked Next: %v, whole Next: %v", err, werr)
		}
		if err != nil {
			if ready && !strings.Contains(err.Error(), "exceeds max") {
				t.Fatalf("Ready() was true but Next failed without a refused length: %v", err)
			}
			return
		}
		if !bytes.Equal(r.Rest(), wr.Rest()) {
			t.Fatal("chunked reading changed a frame's payload")
		}
		if !ready && src.reads == before {
			t.Fatal("Ready() was false but Next was served from the buffer alone")
		}
	}
}

// FuzzDecodeIngest holds DecodeIngestInto's fused loop to the checked loop
// it falls back on: on arbitrary payload bytes both must produce the same
// events, fail or succeed together with the same message, and leave the
// Reader at the same offset.
func FuzzDecodeIngest(f *testing.F) {
	var p snapshot.Writer
	body := func(events []runtime.Event) []byte {
		p.Reset()
		wire.EncodeIngest(&p, 1, events)
		return append([]byte(nil), p.Bytes()[2:]...) // past the (op, seq) header
	}
	f.Add(body(nil))
	f.Add(body([]runtime.Event{{Tenant: 1, Stream: 3, Value: 42.5}}))
	f.Add(body([]runtime.Event{{Tenant: 127, Stream: 128, Value: 1}, {Tenant: 128, Stream: 16383, Value: 2},
		{Tenant: 16384, Stream: 5, Value: 3}, {Tenant: 2, Stream: 1 << 40, Value: 4}, {Tenant: 0, Stream: 0, Value: 5}}))
	f.Add([]byte{3, 0x80, 0x00, 0x81, 0x00, 1, 2, 3, 4, 5, 6, 7, 8, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{2, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		fast, slow := snapshot.NewReader(data), snapshot.NewReader(data)
		got, gerr := wire.DecodeIngestInto(fast, nil)
		want, werr := wire.DecodeIngestChecked(slow, nil)
		if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
			t.Fatalf("fused loop: %v, checked loop: %v", gerr, werr)
		}
		if len(got) != len(want) {
			t.Fatalf("fused loop decoded %d events, checked loop %d", len(got), len(want))
		}
		for i := range got {
			g, w := got[i], want[i]
			if g.Tenant != w.Tenant || g.Stream != w.Stream || g.Y != w.Y ||
				math.Float64bits(g.Value) != math.Float64bits(w.Value) {
				t.Fatalf("event %d: fused loop %+v, checked loop %+v", i, g, w)
			}
		}
		if fast.Remaining() != slow.Remaining() {
			t.Fatalf("fused loop left %d bytes, checked loop %d", fast.Remaining(), slow.Remaining())
		}
	})
}

// fuzzEvents reads a batch from arbitrary bytes, 26 a event: a shift for
// the tenant id and one for the stream id, then their raw 64-bit patterns
// and the value's. The shifts spread the ids over every varint width,
// negative ids (full-width varints) included.
func fuzzEvents(data []byte) []runtime.Event {
	var events []runtime.Event
	for len(data) > 0 {
		var rec [26]byte
		data = data[copy(rec[:], data):]
		events = append(events, runtime.Event{
			Tenant: int(int64(binary.LittleEndian.Uint64(rec[2:])) >> (rec[0] & 63)),
			Stream: int(int64(binary.LittleEndian.Uint64(rec[10:])) >> (rec[1] & 63)),
			Value:  math.Float64frombits(binary.LittleEndian.Uint64(rec[18:])),
		})
	}
	return events
}

// FuzzEncodeIngest holds EncodeIngest's fused loop to the field-at-a-time
// encoding: the same bytes, appended behind whatever the Writer already
// holds, from a Writer reused across batches as a FrameWriter's is. A batch
// of non-negative ids decodes back to its own events.
func FuzzEncodeIngest(f *testing.F) {
	f.Add(uint64(1), uint8(0), []byte{})
	f.Add(uint64(300), uint8(2), bytes.Repeat([]byte{60, 50, 1, 2, 3, 4, 5, 6, 7, 8}, 8))
	f.Add(uint64(1<<40), uint8(0), bytes.Repeat([]byte{0, 0, 0xFF}, 40))
	f.Add(uint64(7), uint8(5), bytes.Repeat([]byte{63, 57, 0x80, 0x7F}, 30))
	var fused, perField snapshot.Writer
	f.Fuzz(func(t *testing.T, seq uint64, prefix uint8, data []byte) {
		events := fuzzEvents(data)
		fused.Reset()
		perField.Reset()
		for i := 0; i < int(prefix%8); i++ {
			fused.Uvarint(uint64(i) << 7)
			perField.Uvarint(uint64(i) << 7)
		}
		wire.EncodeIngest(&fused, seq, events)
		wire.EncodeIngestPerField(&perField, seq, events)
		if !bytes.Equal(fused.Bytes(), perField.Bytes()) {
			t.Fatalf("%d events: fused loop wrote\n%x\nfield at a time\n%x", len(events), fused.Bytes(), perField.Bytes())
		}
		for _, ev := range events {
			if ev.Tenant < 0 || ev.Stream < 0 {
				return
			}
		}
		r := snapshot.NewReader(fused.Bytes())
		for i := 0; i < int(prefix%8); i++ {
			r.Uvarint()
		}
		hdr, err := wire.DecodeHeader(r)
		if err != nil || hdr.Op != wire.OpIngest || hdr.Seq != seq {
			t.Fatalf("header %+v, %v; want ingest seq %d", hdr, err, seq)
		}
		got, err := wire.DecodeIngestInto(r, nil)
		if err != nil || r.Done() != nil || len(got) != len(events) {
			t.Fatalf("decoded %d of %d events: %v, %v", len(got), len(events), err, r.Done())
		}
		for i := range got {
			if got[i].Tenant != events[i].Tenant || got[i].Stream != events[i].Stream ||
				math.Float64bits(got[i].Value) != math.Float64bits(events[i].Value) {
				t.Fatalf("event %d: decoded %+v, encoded %+v", i, got[i], events[i])
			}
		}
	})
}

// FuzzWireReader aims the payload decoders directly at arbitrary bytes,
// bypassing the frame layer, so corruption inside an intact frame is
// covered too. Every op, request and reply, seeds it.
func FuzzWireReader(f *testing.F) {
	var payload snapshot.Writer
	for _, c := range opCases() {
		payload.Reset()
		c.encode(&payload)
		f.Add(append([]byte(nil), payload.Bytes()...))
	}
	f.Add([]byte{})
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		decodePayload(snapshot.NewReader(data))
	})
}
