package wire_test

import (
	"bytes"
	"errors"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"

	"adaptivefilters/internal/comm"
	"adaptivefilters/internal/protospec"
	"adaptivefilters/internal/runtime"
	"adaptivefilters/internal/snapshot"
	"adaptivefilters/internal/stream"
	"adaptivefilters/internal/wire"
)

// frame pushes one encoded payload through a FrameWriter/FrameReader pair
// and returns the decoder positioned past the header.
func frame(t *testing.T, encode func(p *snapshot.Writer)) (*snapshot.Reader, wire.Header) {
	t.Helper()
	var buf bytes.Buffer
	fw := wire.NewFrameWriter(&buf, 0)
	encode(fw.Begin())
	if err := fw.End(); err != nil {
		t.Fatal(err)
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	fr := wire.NewFrameReader(&buf, 0)
	r, err := fr.Next()
	if err != nil {
		t.Fatal(err)
	}
	hdr, err := wire.DecodeHeader(r)
	if err != nil {
		t.Fatal(err)
	}
	return r, hdr
}

func TestOpReplyBits(t *testing.T) {
	for _, op := range []byte{wire.OpHello, wire.OpIngest, wire.OpShutdown} {
		if wire.IsReply(op) {
			t.Fatalf("request op %d reads as reply", op)
		}
		rep := wire.ReplyTo(op)
		if !wire.IsReply(rep) || wire.RequestOf(rep) != op {
			t.Fatalf("reply round trip broken for op %d", op)
		}
	}
}

// request frames req and decodes it back.
func request(t *testing.T, req wire.Request) (wire.Request, wire.Header, error) {
	t.Helper()
	r, hdr := frame(t, func(p *snapshot.Writer) { wire.EncodeRequest(p, req) })
	got, err := wire.DecodeRequest(hdr, r)
	return got, hdr, err
}

// reply frames rep and decodes it back.
func reply(t *testing.T, rep wire.Reply) (wire.Reply, wire.Header, error) {
	t.Helper()
	r, hdr := frame(t, func(p *snapshot.Writer) { wire.EncodeReply(p, rep) })
	got, err := wire.DecodeReply(hdr, r)
	return got, hdr, err
}

func TestHelloRoundTrip(t *testing.T) {
	got, hdr, err := request(t, wire.Request{Op: wire.OpHello, Seq: 7})
	if hdr.Op != wire.OpHello || hdr.Seq != 7 {
		t.Fatalf("header = %+v", hdr)
	}
	if err != nil || got.Op != wire.OpHello || got.Seq != 7 {
		t.Fatalf("DecodeRequest = %+v, %v", got, err)
	}

	// Wrong magic and wrong version must be refused.
	hello := wire.Header{Op: wire.OpHello, Seq: 1}
	w := snapshot.NewWriter()
	w.String("not/the/magic")
	w.Uvarint(wire.Version)
	if _, err := wire.DecodeRequest(hello, snapshot.NewReader(w.Bytes())); err == nil {
		t.Fatal("bad magic accepted")
	}
	w.Reset()
	w.String(wire.Magic)
	w.Uvarint(wire.Version + 1)
	if _, err := wire.DecodeRequest(hello, snapshot.NewReader(w.Bytes())); err == nil {
		t.Fatal("future version accepted")
	}
}

func TestHelloAckRoundTrip(t *testing.T) {
	h, hdr, err := reply(t, wire.Reply{Op: wire.OpHello, Seq: 7, Shards: 4, Tenants: 12})
	if hdr.Op != wire.ReplyTo(wire.OpHello) || hdr.Seq != 7 {
		t.Fatalf("header = %+v", hdr)
	}
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != wire.StatusOK || h.Shards != 4 || h.Tenants != 12 {
		t.Fatalf("hello ack = %+v", h)
	}
}

// TestHelloReplyVersionChecked hand-builds a server greeting that speaks
// the next wire version: the client side must refuse it, not read on.
func TestHelloReplyVersionChecked(t *testing.T) {
	greeting := func(version uint64) *snapshot.Reader {
		w := snapshot.NewWriter()
		wire.EncodeAck(w, wire.OpHello, 1, wire.StatusOK, 0, "")
		w.Uvarint(version)
		w.Uvarint(4)
		w.Uvarint(12)
		return snapshot.NewReader(w.Bytes())
	}
	for _, version := range []uint64{wire.Version, wire.Version + 1} {
		r := greeting(version)
		hdr, err := wire.DecodeHeader(r)
		if err != nil {
			t.Fatal(err)
		}
		_, err = wire.DecodeReply(hdr, r)
		if version == wire.Version && err != nil {
			t.Fatalf("version %d greeting refused: %v", version, err)
		}
		if version != wire.Version && (err == nil || !strings.Contains(err.Error(), "version")) {
			t.Fatalf("version %d greeting: err = %v, want a version refusal", version, err)
		}
	}
}

// TestRequestReplyRefusals pins what the two decoders refuse outright: an
// ingest or reply op offered as a request, a request op offered as a reply,
// unknown ops, and trailing bytes after a well-formed body.
func TestRequestReplyRefusals(t *testing.T) {
	empty := snapshot.NewReader(nil)
	for _, op := range []byte{wire.OpIngest, wire.ReplyTo(wire.OpDrain), wire.OpStats + 1, 0x7F} {
		if _, err := wire.DecodeRequest(wire.Header{Op: op}, empty); err == nil {
			t.Errorf("op %d decoded as a request", op)
		}
	}
	for _, op := range []byte{wire.OpDrain, wire.ReplyTo(0), wire.ReplyTo(wire.OpStats + 1)} {
		if _, err := wire.DecodeReply(wire.Header{Op: op}, empty); err == nil {
			t.Errorf("op %d decoded as a reply", op)
		}
	}
	w := snapshot.NewWriter()
	wire.EncodeRequest(w, wire.Request{Op: wire.OpRemoveTenant, Seq: 1, TI: 3})
	w.Uvarint(9)
	r := snapshot.NewReader(w.Bytes())
	hdr, _ := wire.DecodeHeader(r)
	if _, err := wire.DecodeRequest(hdr, r); err == nil {
		t.Error("request with trailing bytes accepted")
	}
	w.Reset()
	wire.EncodeReply(w, wire.Reply{Op: wire.OpDrain, Seq: 1})
	w.Uvarint(9)
	r = snapshot.NewReader(w.Bytes())
	hdr, _ = wire.DecodeHeader(r)
	if _, err := wire.DecodeReply(hdr, r); err == nil {
		t.Error("reply with trailing bytes accepted")
	}
}

func TestIngestRoundTrip(t *testing.T) {
	events := []runtime.Event{
		{Tenant: 0, Stream: 0, Value: 0},
		{Tenant: 3, Stream: 16384, Value: -12.75},
		{Tenant: 250, Stream: 1, Value: math.Inf(1)},
		{Tenant: 1, Stream: 99, Value: math.Copysign(0, -1)},
	}
	r, hdr := frame(t, func(p *snapshot.Writer) { wire.EncodeIngest(p, 42, events) })
	if hdr.Op != wire.OpIngest || hdr.Seq != 42 {
		t.Fatalf("header = %+v", hdr)
	}
	got, err := wire.DecodeIngestInto(r, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, events) {
		t.Fatalf("round trip: got %+v, want %+v", got, events)
	}
}

// TestIngestCountBound checks a forged count larger than the payload could
// hold is refused before any element decode.
func TestIngestCountBound(t *testing.T) {
	w := snapshot.NewWriter()
	w.Uvarint(1 << 40)
	if _, err := wire.DecodeIngestInto(snapshot.NewReader(w.Bytes()), nil); err == nil ||
		!strings.Contains(err.Error(), "exceeds payload") {
		t.Fatalf("forged count: err = %v", err)
	}
}

func TestLifecycleRoundTrips(t *testing.T) {
	single := wire.TenantSpec{
		Name:    "t-single",
		Initial: []float64{1, 2, 3},
		Spec:    protospec.Spec{Protocol: "ft-nrp", Lo: 1, Hi: 3, EpsPlus: 0.2, EpsMinus: 0.2},
	}
	multi := wire.TenantSpec{
		Name:    "t-multi",
		Initial: []float64{5, 6, 7, 8},
		Queries: []wire.QuerySpec{
			{Name: "qa", Spec: protospec.Spec{Protocol: "zt-nrp", Lo: 5, Hi: 7}},
			{Name: "qb", Spec: protospec.Spec{Protocol: "rtp", Q: 6, K: 1, R: 1}},
		},
	}
	for _, spec := range []wire.TenantSpec{single, multi} {
		req, hdr, err := request(t, wire.Request{Op: wire.OpAddTenant, Seq: 9, Tenant: spec})
		if hdr.Op != wire.OpAddTenant || hdr.Seq != 9 {
			t.Fatalf("header = %+v", hdr)
		}
		if err != nil {
			t.Fatal(err)
		}
		got := req.Tenant
		if !reflect.DeepEqual(got, spec) {
			t.Fatalf("round trip: got %+v, want %+v", got, spec)
		}
		if _, err := got.Runtime(); err != nil {
			t.Fatalf("%s: Runtime() = %v", spec.Name, err)
		}
	}

	q := wire.QuerySpec{Name: "late", Spec: protospec.Spec{Protocol: "zt-rp", Q: 6, K: 2}}
	req, hdr, err := request(t, wire.Request{Op: wire.OpAddQuery, Seq: 10, TI: 3, Query: q})
	if hdr.Op != wire.OpAddQuery {
		t.Fatalf("header = %+v", hdr)
	}
	if err != nil || req.TI != 3 || !reflect.DeepEqual(req.Query, q) {
		t.Fatalf("AddQuery round trip: ti=%d q=%+v err=%v", req.TI, req.Query, err)
	}

	if req, _, err := request(t, wire.Request{Op: wire.OpRemoveTenant, Seq: 11, TI: 5}); err != nil || req.TI != 5 {
		t.Fatalf("RemoveTenant round trip: ti=%d err=%v", req.TI, err)
	}
	if req, _, err := request(t, wire.Request{Op: wire.OpRemoveQuery, Seq: 12, TI: 5, QI: 2}); err != nil || req.TI != 5 || req.QI != 2 {
		t.Fatalf("RemoveQuery round trip: ti=%d qi=%d err=%v", req.TI, req.QI, err)
	}
}

// TestTenantSpecRuntimeRejects pins the validation wall between the wire and
// the shard loops: bad specs must come back as errors, never reach a
// constructor panic.
func TestTenantSpecRuntimeRejects(t *testing.T) {
	cases := []struct {
		name string
		spec wire.TenantSpec
		want string
	}{
		{"empty-partition", wire.TenantSpec{Name: "t", Spec: protospec.Spec{Protocol: "zt-nrp", Lo: 0, Hi: 1}}, "empty stream partition"},
		{"nan-initial", wire.TenantSpec{Name: "t", Initial: []float64{1, math.NaN()},
			Spec: protospec.Spec{Protocol: "zt-nrp", Lo: 0, Hi: 1}}, "NaN"},
		{"bad-protocol", wire.TenantSpec{Name: "t", Initial: []float64{1},
			Spec: protospec.Spec{Protocol: "nope"}}, "unknown protocol"},
		{"bad-query", wire.TenantSpec{Name: "t", Initial: []float64{1, 2},
			Queries: []wire.QuerySpec{{Name: "q", Spec: protospec.Spec{Protocol: "rtp", Q: 1, K: 5, R: 5}}}}, "query 0"},
	}
	for _, tc := range cases {
		_, err := tc.spec.Runtime()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

func TestAckRoundTrip(t *testing.T) {
	r, hdr := frame(t, func(p *snapshot.Writer) {
		wire.EncodeAck(p, wire.OpIngest, 13, wire.StatusShed, 4, "")
	})
	if hdr.Op != wire.ReplyTo(wire.OpIngest) || hdr.Seq != 13 {
		t.Fatalf("header = %+v", hdr)
	}
	ack, err := wire.DecodeAck(r)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Status != wire.StatusShed || ack.Value != 4 || ack.Msg != "" {
		t.Fatalf("ack = %+v", ack)
	}
	if ack.Err() != nil {
		t.Fatal("shed ack converted to error")
	}

	r, _ = frame(t, func(p *snapshot.Writer) {
		wire.EncodeAck(p, wire.OpAddTenant, 14, wire.StatusError, 0, "no free slot")
	})
	ack, err = wire.DecodeAck(r)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Err() == nil || !strings.Contains(ack.Err().Error(), "no free slot") {
		t.Fatalf("error ack: %v", ack.Err())
	}

	w := snapshot.NewWriter()
	w.Uvarint(99)
	w.Uvarint(0)
	w.String("")
	if _, err := wire.DecodeAck(snapshot.NewReader(w.Bytes())); err == nil {
		t.Fatal("unknown status accepted")
	}
}

// sampleReport builds a report with every structural case: an alive
// single-query tenant, a removed slot, a multi-query tenant with a removed
// query slot, and a quarantined multi-query tenant (no answers).
func sampleReport() *runtime.Report {
	var c1, c2, tot comm.Counter
	c1.SetPhase(comm.Init)
	c1.Add(comm.Update, 3)
	c1.SetPhase(comm.Maintenance)
	c1.Add(comm.Probe, 2)
	c1.AddServerOps(17)
	c2.SetPhase(comm.Maintenance)
	c2.Add(comm.Install, 5)
	tot.Merge(&c1)
	tot.Merge(&c2)
	return &runtime.Report{
		Tenants: []runtime.TenantReport{
			{Alive: true, Name: "alpha", Events: 120, Counter: c1, Answer: []stream.ID{0, 7, 31}},
			{},
			{Alive: true, Name: "beta", Events: 55, Counter: c2, MultiQuery: true, Queries: []runtime.QueryReport{
				{Alive: true, Name: "qa", Answer: []stream.ID{2}},
				{},
				{Alive: true, Name: "qc", Answer: nil},
			}},
			{Alive: true, Name: "gamma", Events: 9, Counter: c1, MultiQuery: true, Quarantined: true},
		},
		Totals: tot,
	}
}

func TestReportRoundTrip(t *testing.T) {
	want := sampleReport()
	rep, hdr, err := reply(t, wire.Reply{Op: wire.OpReport, Seq: 21, Report: want})
	if hdr.Op != wire.ReplyTo(wire.OpReport) || hdr.Seq != 21 {
		t.Fatalf("header = %+v", hdr)
	}
	if err != nil {
		t.Fatal(err)
	}
	if rep.Status != wire.StatusOK {
		t.Fatalf("ack = %+v", rep.Ack)
	}
	got := rep.Report
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, want)
	}
	// The decisive equivalence: the decoded report renders byte-identically.
	if got.Text() != want.Text() {
		t.Fatalf("rendered text diverges:\n got %q\nwant %q", got.Text(), want.Text())
	}

	// Error replies carry no report body.
	rep, _, err = reply(t, wire.Reply{Op: wire.OpReport, Seq: 22,
		Ack: wire.Ack{Status: wire.StatusError, Msg: "draining failed"}})
	if err != nil || rep.Report != nil || rep.Status != wire.StatusError || rep.Msg != "draining failed" {
		t.Fatalf("error reply: report=%v ack=%+v err=%v", rep.Report, rep.Ack, err)
	}
}

// TestReportTruncation cuts the encoded report at every byte: each prefix
// must decode to an error, never panic, never succeed.
func TestReportTruncation(t *testing.T) {
	w := snapshot.NewWriter()
	wire.EncodeReply(w, wire.Reply{Op: wire.OpReport, Seq: 21, Report: sampleReport()})
	data := w.Bytes()
	full := snapshot.NewReader(data)
	hdr, err := wire.DecodeHeader(full)
	if err != nil {
		t.Fatal(err)
	}
	body := data[len(data)-full.Remaining():]
	for cut := 0; cut < len(body); cut++ {
		r := snapshot.NewReader(body[:cut])
		rep, err := wire.DecodeReply(hdr, r)
		if err == nil && r.Done() == nil {
			t.Fatalf("truncation at %d bytes decoded cleanly: %+v", cut, rep)
		}
	}
}

func TestFrameBoundaries(t *testing.T) {
	// A clean stream end is io.EOF; a cut inside a frame is ErrUnexpectedEOF.
	var buf bytes.Buffer
	fw := wire.NewFrameWriter(&buf, 0)
	wire.EncodeRequest(fw.Begin(), wire.Request{Op: wire.OpDrain, Seq: 1})
	if err := fw.End(); err != nil {
		t.Fatal(err)
	}
	wire.EncodeRequest(fw.Begin(), wire.Request{Op: wire.OpShutdown, Seq: 2})
	if err := fw.End(); err != nil {
		t.Fatal(err)
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	stream := buf.Bytes()

	fr := wire.NewFrameReader(bytes.NewReader(stream), 0)
	for i := 0; i < 2; i++ {
		if _, err := fr.Next(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := fr.Next(); err != io.EOF {
		t.Fatalf("clean end: err = %v, want io.EOF", err)
	}

	// Both frames encode to the same length, so the only clean boundary
	// inside the stream is its midpoint; any other cut must surface as an
	// unexpected EOF.
	for cut := 1; cut < len(stream); cut++ {
		fr := wire.NewFrameReader(bytes.NewReader(stream[:cut]), 0)
		var err error
		for err == nil {
			_, err = fr.Next()
		}
		if err == io.EOF && cut != len(stream)/2 {
			t.Fatalf("cut at %d read as clean EOF", cut)
		}
		if err != io.EOF && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut at %d: err = %v", cut, err)
		}
	}

	// Oversized frames are refused on both sides.
	small := wire.NewFrameWriter(io.Discard, 8)
	p := small.Begin()
	wire.EncodeRequest(p, wire.Request{Op: wire.OpHello, Seq: 1})
	if err := small.End(); err == nil || !strings.Contains(err.Error(), "exceeds max") {
		t.Fatalf("oversized write: err = %v", err)
	}
	var big bytes.Buffer
	fw2 := wire.NewFrameWriter(&big, 0)
	wire.EncodeRequest(fw2.Begin(), wire.Request{Op: wire.OpHello, Seq: 1})
	if err := fw2.End(); err != nil {
		t.Fatal(err)
	}
	if err := fw2.Flush(); err != nil {
		t.Fatal(err)
	}
	fr2 := wire.NewFrameReader(&big, 4)
	if _, err := fr2.Next(); err == nil || !strings.Contains(err.Error(), "exceeds max") {
		t.Fatalf("oversized read: err = %v", err)
	}

	// End without Begin is a caller bug, reported as an error.
	if err := wire.NewFrameWriter(io.Discard, 0).End(); err == nil {
		t.Fatal("End without Begin accepted")
	}
}

// loopReader replays one framed byte stream forever, so a steady-state
// FrameReader alloc measurement sees an endless connection.
type loopReader struct {
	data []byte
	off  int
}

func (l *loopReader) Read(p []byte) (int, error) {
	if l.off == len(l.data) {
		l.off = 0
	}
	n := copy(p, l.data[l.off:])
	l.off += n
	return n, nil
}

// TestIngestCodecAllocs pins the tentpole perf claim: framing and parsing a
// steady-state ingest batch allocates nothing on either side once buffers
// have warmed up.
func TestIngestCodecAllocs(t *testing.T) {
	events := make([]runtime.Event, 256)
	for i := range events {
		events[i] = runtime.Event{Tenant: i % 8, Stream: stream.ID(i % 64), Value: float64(i) * 1.5}
	}

	fw := wire.NewFrameWriter(io.Discard, 0)
	encAllocs := testing.AllocsPerRun(200, func() {
		wire.EncodeIngest(fw.Begin(), 1, events)
		if err := fw.End(); err != nil {
			t.Fatal(err)
		}
	})
	if encAllocs != 0 {
		t.Errorf("encode side: %v allocs/op, want 0", encAllocs)
	}

	var buf bytes.Buffer
	srcW := wire.NewFrameWriter(&buf, 0)
	wire.EncodeIngest(srcW.Begin(), 1, events)
	if err := srcW.End(); err != nil {
		t.Fatal(err)
	}
	if err := srcW.Flush(); err != nil {
		t.Fatal(err)
	}
	fr := wire.NewFrameReader(&loopReader{data: buf.Bytes()}, 0)
	dst := make([]runtime.Event, 0, len(events))
	decAllocs := testing.AllocsPerRun(200, func() {
		r, err := fr.Next()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := wire.DecodeHeader(r); err != nil {
			t.Fatal(err)
		}
		dst = dst[:0]
		if dst, err = wire.DecodeIngestInto(r, dst); err != nil {
			t.Fatal(err)
		}
		if len(dst) != len(events) {
			t.Fatal("short batch")
		}
	})
	if decAllocs != 0 {
		t.Errorf("decode side: %v allocs/op, want 0", decAllocs)
	}
}
