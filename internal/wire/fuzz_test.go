package wire_test

import (
	"bytes"
	"io"
	"math"
	"strings"
	"testing"

	"adaptivefilters/internal/protospec"
	"adaptivefilters/internal/runtime"
	"adaptivefilters/internal/snapshot"
	"adaptivefilters/internal/wire"
)

// seedStream frames a sequence of representative payloads into one byte
// stream — the shape an honest connection puts on the wire.
func seedStream() []byte {
	var buf bytes.Buffer
	fw := wire.NewFrameWriter(&buf, 0)
	wire.EncodeHello(fw.Begin(), 1)
	fw.End()
	wire.EncodeIngest(fw.Begin(), 2, []runtime.Event{{Tenant: 1, Stream: 3, Value: 42.5}})
	fw.End()
	wire.EncodeAddTenant(fw.Begin(), 3, wire.TenantSpec{
		Name: "t", Initial: []float64{1, 2},
		Spec: protospec.Spec{Protocol: "zt-nrp", Lo: 0, Hi: 2},
	})
	fw.End()
	wire.EncodeReportReply(fw.Begin(), 4, wire.StatusOK, "", sampleReport())
	fw.End()
	wire.EncodeAck(fw.Begin(), wire.OpIngest, 2, wire.StatusOK, 0, "")
	fw.End()
	wire.EncodeAddTenantLabeled(fw.Begin(), 5, 3, wire.TenantSpec{
		Name: "m", Initial: []float64{3, 4},
		Spec: protospec.Spec{Protocol: "zt-nrp", Lo: 0, Hi: 4},
	})
	fw.End()
	wire.EncodeExportTenant(fw.Begin(), 6, 1)
	fw.End()
	wire.EncodeExportTenantReply(fw.Begin(), 6, wire.StatusOK, "", []byte{1, 2, 3, 4})
	fw.End()
	wire.EncodeImportTenant(fw.Begin(), 7, wire.TenantSpec{
		Name: "m", Initial: []float64{3, 4},
		Spec: protospec.Spec{Protocol: "zt-nrp", Lo: 0, Hi: 4},
	}, []byte{9, 8, 7})
	fw.End()
	wire.EncodeStatsReply(fw.Begin(), 8, wire.Stats{Pending: 1, QueueCap: 8, TotalEvents: 99, Tenants: 2})
	fw.End()
	fw.Flush()
	return buf.Bytes()
}

// decodeAny drives every body decoder the header's op selects — the exact
// dispatch a server or client performs on an incoming frame. Decoders must
// return errors on garbage, never panic.
func decodeAny(r *snapshot.Reader) {
	hdr, err := wire.DecodeHeader(r)
	if err != nil {
		return
	}
	switch hdr.Op {
	case wire.OpHello:
		wire.DecodeHello(r)
	case wire.ReplyTo(wire.OpHello):
		wire.DecodeHelloAck(r)
	case wire.OpIngest:
		wire.DecodeIngestInto(r, nil)
	case wire.OpAddTenant:
		if spec, err := wire.DecodeAddTenant(r); err == nil {
			spec.Runtime()
		}
	case wire.OpAddQuery:
		if _, q, err := wire.DecodeAddQuery(r); err == nil {
			_ = q
		}
	case wire.OpRemoveTenant:
		wire.DecodeRemoveTenant(r)
	case wire.OpRemoveQuery:
		wire.DecodeRemoveQuery(r)
	case wire.ReplyTo(wire.OpReport):
		wire.DecodeReportReply(r)
	case wire.OpAddTenantLabeled:
		if _, spec, err := wire.DecodeAddTenantLabeled(r); err == nil {
			spec.Runtime()
		}
	case wire.OpExportTenant:
		wire.DecodeExportTenant(r)
	case wire.ReplyTo(wire.OpExportTenant):
		wire.DecodeExportTenantReply(r)
	case wire.OpImportTenant:
		if spec, _, err := wire.DecodeImportTenant(r); err == nil {
			spec.Runtime()
		}
	case wire.ReplyTo(wire.OpStats):
		wire.DecodeStatsReply(r)
	default:
		if wire.IsReply(hdr.Op) {
			wire.DecodeAck(r)
		}
	}
	r.Done()
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
			decodeAny(r)
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

// FuzzWireReader aims the payload decoders directly at arbitrary bytes,
// bypassing the frame layer, so corruption inside an intact frame is
// covered too.
func FuzzWireReader(f *testing.F) {
	var payload snapshot.Writer
	wire.EncodeIngest(&payload, 1, []runtime.Event{{Tenant: 1, Stream: 3, Value: 42.5}})
	f.Add(payload.Bytes())
	payload.Reset()
	wire.EncodeReportReply(&payload, 2, wire.StatusOK, "", sampleReport())
	f.Add(payload.Bytes())
	payload.Reset()
	wire.EncodeAddTenant(&payload, 3, wire.TenantSpec{
		Name: "t", Initial: []float64{1, 2},
		Spec: protospec.Spec{Protocol: "zt-nrp", Lo: 0, Hi: 2},
	})
	f.Add(payload.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		decodeAny(snapshot.NewReader(data))
	})
}
