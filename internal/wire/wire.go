// Package wire is the network serving plane's binary protocol: the frame
// format internal/netserve speaks on the server side and package client on
// the client side (DESIGN.md §9).
//
// A frame is a 4-byte little-endian payload length followed by the
// payload; a payload is an op code, a pipelining sequence number, and an
// op-specific body, all encoded with internal/snapshot's primitives
// (varints where density matters — stream ids, counts — and fixed64 for
// float payloads, which must survive bit-exactly). Replies echo the
// request's sequence number and set the high bit of its op code, so a
// client may keep many requests in flight per connection and match acks
// as they return.
//
// The op table lives here and nowhere else: a control op is one Request
// (EncodeRequest, DecodeRequest) answered by one Reply (EncodeReply,
// DecodeReply), and the server applies it in one place,
// netserve.Apply. Ingest batches keep their own codec (EncodeIngest,
// DecodeIngestInto, EncodeAck), the hot path.
//
// The codec is engineered as a hot path:
//
//   - FrameWriter and FrameReader own reusable payload buffers; encoding
//     or decoding a steady-state ingest batch is 0 allocs/op (pinned by
//     TestIngestCodecAllocs).
//   - Decoding never trusts input: lengths are validated against the
//     bytes actually present before anything is allocated, oversized
//     frames are refused at the header, and corrupt payloads surface as
//     errors, never panics (FuzzFrame, FuzzWireReader).
//
// The correctness story is inherited from the runtime: everything a
// client observes — answers, counters, event counts — travels as a
// runtime.Report, and the report decoded off the wire must render
// byte-identically to one built in-process (the byte-identity invariant
// CI's wire job diffs at shards 1 and 4).
package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"adaptivefilters/internal/protospec"
	"adaptivefilters/internal/runtime"
	"adaptivefilters/internal/snapshot"
	"adaptivefilters/internal/stream"
)

// Magic and Version open every connection: the client's Hello carries
// both, and the server refuses mismatches before reading anything else.
// Version covers the whole frame grammar, op set and body layouts.
const (
	Magic = "adaptivefilters/wire"
	// Version 2 added the cluster-migration ops: labeled tenant admission,
	// per-tenant snapshot export/import, and load stats. Version 3 appended
	// the spatial query point (QX, QY) to the protospec encoding; spatial
	// tenants themselves remain in-process only and are rejected at
	// admission validation.
	Version = 3
)

// DefaultMaxFrame bounds a frame payload (8 MiB ≈ 500k-event batches):
// large enough for any sane ingest batch or report, small enough that a
// corrupt or hostile length prefix cannot make a peer allocate without
// bound.
const DefaultMaxFrame = 8 << 20

// Op codes. Replies set replyBit on the request's op.
const (
	// OpHello opens a connection: magic, version.
	OpHello byte = 1
	// OpIngest carries one event batch.
	OpIngest byte = 2
	// OpDrain asks the node to apply everything ingested so far.
	OpDrain byte = 3
	// OpReport asks for the node's runtime.Report.
	OpReport byte = 4
	// OpAddTenant admits a tenant described by a wire TenantSpec.
	OpAddTenant byte = 5
	// OpRemoveTenant evicts a tenant slot.
	OpRemoveTenant byte = 6
	// OpAddQuery admits a standing query onto a multi-query tenant.
	OpAddQuery byte = 7
	// OpRemoveQuery evicts a query slot.
	OpRemoveQuery byte = 8
	// OpShutdown asks the server to stop serving (acked first).
	OpShutdown byte = 9
	// OpAddTenantLabeled admits a tenant under an explicit seed label — the
	// cluster placement layer's admission, which must pin a tenant's
	// randomness to its global id rather than the member's local counter.
	OpAddTenantLabeled byte = 10
	// OpExportTenant captures one tenant's migration snapshot (the reply
	// carries runtime.ExportTenant bytes).
	OpExportTenant byte = 11
	// OpImportTenant restores a tenant from a migration snapshot; the ack
	// value is the new local slot id.
	OpImportTenant byte = 12
	// OpStats asks for the node's load figures (the rebalancer's signal).
	OpStats byte = 13

	replyBit byte = 0x80
)

// Reply statuses.
const (
	// StatusOK acknowledges an applied request.
	StatusOK byte = 0
	// StatusShed rejects an ingest batch under backpressure: the node's
	// deepest shard backlog crossed the server's watermark and the batch
	// was dropped on admission. The events were NOT applied; an open-loop
	// client records the shed and moves on, a closed-loop client may
	// retry after backing off.
	StatusShed byte = 1
	// StatusError reports a failed request; the ack's Msg says why.
	StatusError byte = 2
)

// ReplyTo returns the reply op for a request op.
func ReplyTo(op byte) byte { return op | replyBit }

// IsReply reports whether op is a reply code.
func IsReply(op byte) bool { return op&replyBit != 0 }

// RequestOf strips the reply bit.
func RequestOf(op byte) byte { return op &^ replyBit }

// Header is the (op, seq) pair opening every payload.
type Header struct {
	Op  byte
	Seq uint64
}

// EncodeHeader begins a payload.
func EncodeHeader(p *snapshot.Writer, op byte, seq uint64) {
	p.Uvarint(uint64(op))
	p.Uvarint(seq)
}

// DecodeHeader reads a payload's (op, seq).
func DecodeHeader(r *snapshot.Reader) (Header, error) {
	op := r.Uvarint()
	seq := r.Uvarint()
	if err := r.Err(); err != nil {
		return Header{}, err
	}
	if op == 0 || op > 0xFF {
		return Header{}, fmt.Errorf("wire: invalid op code %d", op)
	}
	return Header{Op: byte(op), Seq: seq}, nil
}

// wireInt decodes a non-negative int, failing on values that overflow the
// platform's int instead of wrapping negative.
func wireInt(r *snapshot.Reader, what string) (int, error) {
	v := r.Uvarint()
	if r.Err() != nil {
		return 0, r.Err()
	}
	if v > math.MaxInt64 || int64(int(int64(v))) != int64(v) {
		return 0, fmt.Errorf("wire: %s %d overflows int", what, v)
	}
	return int(v), nil
}

// --- Ingest ---

// eventWireMin is the smallest encoded event (1-byte tenant, 1-byte
// stream, 8-byte value); decode bounds counts with it.
const eventWireMin = 10

// eventWireMax is the longest encoded event: two ten-byte varints (a
// negative id wraps to a full-width uint64) and the fixed64.
const eventWireMax = 2*binary.MaxVarintLen64 + 8

// EncodeIngest writes one event batch. Tenant and stream ids ride as
// varints (tenant ids are small; stream ids fit 2 bytes for n < 16384),
// values as fixed64 bit patterns. The events are written in one loop into
// space grown once for the whole batch, the encoding twin of
// DecodeIngestInto's fused loop; FuzzEncodeIngest holds its bytes to the
// field-at-a-time encoding. Steady-state cost: 0 allocs.
func EncodeIngest(p *snapshot.Writer, seq uint64, events []runtime.Event) {
	EncodeHeader(p, OpIngest, seq)
	p.Uvarint(uint64(len(events)))
	b := p.Grow(len(events) * eventWireMax)
	n := 0
	for i := range events {
		ev := &events[i]
		n += binary.PutUvarint(b[n:], uint64(ev.Tenant))
		n += binary.PutUvarint(b[n:], uint64(ev.Stream))
		binary.LittleEndian.PutUint64(b[n:], math.Float64bits(ev.Value))
		n += 8
	}
	p.Extend(n)
}

// DecodeIngestInto appends a batch's events to dst (pass a reused slice
// sliced to zero length; steady-state decoding allocates nothing once the
// slice has grown to the working batch size). The event count is bounds-
// checked against the payload before anything is appended.
//
// Decoding is the server's largest per-event cost, so the events go through
// two loops. The fused loop handles the shape honest traffic has — tenant
// and stream ids of one or two varint bytes, then the fixed64 — reading the
// raw payload directly while ingestFastMin bytes remain, so none of its
// reads can run off the end. The first event it does not recognise (a
// longer varint, the tail of the payload) falls through, at that event's
// first byte, to the checked loop, which decodes anything and reports every
// error. FuzzDecodeIngest holds the two to the same events, the same error
// and the same bytes consumed on arbitrary input.
func DecodeIngestInto(r *snapshot.Reader, dst []runtime.Event) ([]runtime.Event, error) {
	count, err := decodeIngestCount(r)
	if err != nil {
		return dst, err
	}
	b := r.Rest()
	rest := count
	for ; rest > 0 && len(b) >= ingestFastMin; rest-- {
		n := 1
		tenant := uint64(b[0])
		if tenant >= 0x80 {
			if b[1] >= 0x80 {
				break
			}
			tenant, n = tenant&0x7f|uint64(b[1])<<7, 2
		}
		strm := uint64(b[n])
		n++
		if strm >= 0x80 {
			if b[n] >= 0x80 {
				break
			}
			strm = strm&0x7f | uint64(b[n])<<7
			n++
		}
		v := math.Float64frombits(binary.LittleEndian.Uint64(b[n:]))
		dst = append(dst, runtime.Event{Tenant: int(tenant), Stream: stream.ID(strm), Value: v})
		b = b[n+8:]
	}
	r.Skip(r.Remaining() - len(b))
	return decodeEventsChecked(r, dst, rest)
}

// ingestFastMin is the longest event the fused loop decodes: two two-byte
// varints and a fixed64.
const ingestFastMin = 2 + 2 + 8

// decodeIngestCount reads a batch's event count and bounds it by the
// payload actually present.
func decodeIngestCount(r *snapshot.Reader) (uint64, error) {
	count := r.Uvarint()
	if err := r.Err(); err != nil {
		return 0, err
	}
	if count > uint64(r.Remaining())/eventWireMin {
		return 0, fmt.Errorf("wire: ingest count %d exceeds payload (%d bytes left)",
			count, r.Remaining())
	}
	return count, nil
}

// decodeEventsChecked appends count events through the Reader's checked
// primitives: DecodeIngestInto's slow path and its oracle.
func decodeEventsChecked(r *snapshot.Reader, dst []runtime.Event, count uint64) ([]runtime.Event, error) {
	for i := uint64(0); i < count; i++ {
		tenant, err := wireInt(r, "tenant id")
		if err != nil {
			return dst, err
		}
		strm, err := wireInt(r, "stream id")
		if err != nil {
			return dst, err
		}
		v := r.Float64()
		if err := r.Err(); err != nil {
			return dst, err
		}
		dst = append(dst, runtime.Event{Tenant: tenant, Stream: stream.ID(strm), Value: v})
	}
	return dst, nil
}

// --- Lifecycle specs ---

// QuerySpec is one standing query of a wire tenant spec.
type QuerySpec struct {
	Name string
	Spec protospec.Spec
}

// Runtime validates the query against a partition of n streams and
// compiles it to the factory form runtime.Node admits.
func (q QuerySpec) Runtime(n int) (runtime.QuerySpec, error) {
	if err := q.Spec.Validate(n); err != nil {
		return runtime.QuerySpec{}, err
	}
	build, err := q.Spec.Factory()
	if err != nil {
		return runtime.QuerySpec{}, err
	}
	return runtime.QuerySpec{Name: q.Name, NewProtocol: build}, nil
}

// TenantSpec is the wire form of runtime.TenantSpec: declarative protocol
// specs instead of factories, so it can cross the process boundary. A
// single-query tenant sets Spec; a multi-query tenant sets Queries.
type TenantSpec struct {
	Name    string
	Initial []float64
	Spec    protospec.Spec
	Queries []QuerySpec
}

// Runtime validates the spec and compiles it to the factory form
// runtime.Node admits. Untrusted input stops here: protocol parameters
// the constructors would panic on come back as errors.
func (t TenantSpec) Runtime() (runtime.TenantSpec, error) {
	if len(t.Initial) == 0 {
		return runtime.TenantSpec{}, fmt.Errorf("wire: tenant %q has an empty stream partition", t.Name)
	}
	for s, v := range t.Initial {
		if math.IsNaN(v) {
			return runtime.TenantSpec{}, fmt.Errorf("wire: tenant %q initial value for stream %d is NaN", t.Name, s)
		}
	}
	spec := runtime.TenantSpec{Name: t.Name, Initial: t.Initial}
	if len(t.Queries) == 0 {
		q, err := QuerySpec{Spec: t.Spec}.Runtime(len(t.Initial))
		if err != nil {
			return runtime.TenantSpec{}, err
		}
		spec.NewProtocol = q.NewProtocol
		return spec, nil
	}
	spec.Queries = make([]runtime.QuerySpec, len(t.Queries))
	for qi, qs := range t.Queries {
		q, err := qs.Runtime(len(t.Initial))
		if err != nil {
			return runtime.TenantSpec{}, fmt.Errorf("query %d: %w", qi, err)
		}
		spec.Queries[qi] = q
	}
	return spec, nil
}

// encodeTenantSpec writes a TenantSpec body (shared by OpAddTenant,
// OpAddTenantLabeled and OpImportTenant).
func encodeTenantSpec(p *snapshot.Writer, t TenantSpec) {
	p.String(t.Name)
	p.Float64s(t.Initial)
	p.Bool(len(t.Queries) > 0)
	if len(t.Queries) == 0 {
		t.Spec.Encode(p)
		return
	}
	p.Uvarint(uint64(len(t.Queries)))
	for _, q := range t.Queries {
		p.String(q.Name)
		q.Spec.Encode(p)
	}
}

// decodeTenantSpec reads a TenantSpec body. Structural decode only;
// Runtime() performs the semantic validation.
func decodeTenantSpec(r *snapshot.Reader) (TenantSpec, error) {
	var t TenantSpec
	t.Name = r.String()
	t.Initial = r.Float64s()
	multi := r.Bool()
	if err := r.Err(); err != nil {
		return TenantSpec{}, err
	}
	if !multi {
		t.Spec = protospec.Decode(r)
		return t, r.Err()
	}
	count := r.Uvarint()
	if err := r.Err(); err != nil {
		return TenantSpec{}, err
	}
	// A query spec encodes to well over 8 bytes; 8 is a safe per-element
	// floor for bounding the count against the payload.
	if count > uint64(r.Remaining())/8 {
		return TenantSpec{}, fmt.Errorf("wire: query count %d exceeds payload", count)
	}
	t.Queries = make([]QuerySpec, count)
	for qi := range t.Queries {
		t.Queries[qi].Name = r.String()
		t.Queries[qi].Spec = protospec.Decode(r)
		if err := r.Err(); err != nil {
			return TenantSpec{}, err
		}
	}
	return t, nil
}

// --- Requests ---

// Request is one control op travelling client to server: every op but
// OpIngest, whose batches take the EncodeIngest/DecodeIngestInto hot path.
// Each op carries only its own body fields:
//
//	OpHello                                  magic and Version (implicit)
//	OpDrain, OpReport, OpShutdown, OpStats   none
//	OpAddTenant                              Tenant
//	OpAddTenantLabeled                       Label, Tenant
//	OpImportTenant                           Tenant, Snap (ExportTenant bytes)
//	OpAddQuery                               TI, Query
//	OpRemoveTenant, OpExportTenant           TI
//	OpRemoveQuery                            TI, QI
type Request struct {
	Op  byte
	Seq uint64
	// Tenant is a declarative spec; the server compiles it (Runtime).
	Tenant TenantSpec
	Query  QuerySpec
	// TI is a member-local tenant slot, QI a query slot of it.
	TI, QI int
	// Label is the seed label of a labeled admission — the cluster placement
	// layer's, which pins a tenant's randomness to its global id rather than
	// the member's local counter.
	Label int64
	Snap  []byte
}

// EncodeRequest writes a control request.
func EncodeRequest(p *snapshot.Writer, req Request) {
	EncodeHeader(p, req.Op, req.Seq)
	switch req.Op {
	case OpHello:
		p.String(Magic)
		p.Uvarint(Version)
	case OpAddTenant:
		encodeTenantSpec(p, req.Tenant)
	case OpAddTenantLabeled:
		p.Uvarint(uint64(req.Label))
		encodeTenantSpec(p, req.Tenant)
	case OpImportTenant:
		encodeTenantSpec(p, req.Tenant)
		p.String(string(req.Snap))
	case OpAddQuery:
		p.Uvarint(uint64(req.TI))
		p.String(req.Query.Name)
		req.Query.Spec.Encode(p)
	case OpRemoveTenant, OpExportTenant:
		p.Uvarint(uint64(req.TI))
	case OpRemoveQuery:
		p.Uvarint(uint64(req.TI))
		p.Uvarint(uint64(req.QI))
	}
}

// DecodeRequest reads the body of the control request hdr opens. It
// refuses OpIngest, replies and unknown ops, a Hello with the wrong magic
// or version, a malformed body and trailing bytes. The decode is
// structural: the server compiles specs (TenantSpec.Runtime) when it
// applies the request.
func DecodeRequest(hdr Header, r *snapshot.Reader) (Request, error) {
	req := Request{Op: hdr.Op, Seq: hdr.Seq}
	var err error
	switch hdr.Op {
	case OpHello:
		err = decodeHello(r)
	case OpDrain, OpReport, OpShutdown, OpStats:
	case OpAddTenant:
		req.Tenant, err = decodeTenantSpec(r)
	case OpAddTenantLabeled:
		// The label is checked non-negative here so a hostile varint cannot
		// smuggle a negative seed label past the structural decode.
		v := r.Uvarint()
		if v > math.MaxInt64 {
			err = fmt.Errorf("wire: seed label %d overflows int64", v)
			break
		}
		req.Label = int64(v)
		req.Tenant, err = decodeTenantSpec(r)
	case OpImportTenant:
		if req.Tenant, err = decodeTenantSpec(r); err == nil {
			req.Snap = []byte(r.String())
		}
	case OpAddQuery:
		if req.TI, err = wireInt(r, "tenant id"); err == nil {
			req.Query.Name = r.String()
			req.Query.Spec = protospec.Decode(r)
		}
	case OpRemoveTenant, OpExportTenant:
		req.TI, err = wireInt(r, "tenant id")
	case OpRemoveQuery:
		if req.TI, err = wireInt(r, "tenant id"); err == nil {
			req.QI, err = wireInt(r, "query slot")
		}
	default:
		return Request{}, fmt.Errorf("wire: op %d is not a control request", hdr.Op)
	}
	if err == nil {
		err = r.Done()
	}
	if err != nil {
		return Request{}, err
	}
	return req, nil
}

// decodeHello validates a Hello body: this protocol's magic and version.
func decodeHello(r *snapshot.Reader) error {
	magic := r.String()
	version := r.Uvarint()
	if err := r.Err(); err != nil {
		return err
	}
	if magic != Magic {
		return fmt.Errorf("wire: bad magic %q", magic)
	}
	return checkVersion("peer", version)
}

func checkVersion(who string, version uint64) error {
	if version != Version {
		return fmt.Errorf("wire: %s speaks version %d, this build speaks %d", who, version, Version)
	}
	return nil
}

// --- Replies ---

// Ack is the reply body every reply opens with: a status, an op-specific
// value (the slot id for admissions, 0 elsewhere) and an error message
// when Status is StatusError.
type Ack struct {
	Status byte
	Value  uint64
	Msg    string
}

func encodeAckBody(p *snapshot.Writer, status byte, value uint64, msg string) {
	p.Uvarint(uint64(status))
	p.Uvarint(value)
	p.String(msg)
}

// EncodeAck writes the reply to request (op, seq). Steady-state ingest
// acks (StatusOK, empty msg) cost 0 allocs.
func EncodeAck(p *snapshot.Writer, op byte, seq uint64, status byte, value uint64, msg string) {
	EncodeHeader(p, ReplyTo(op), seq)
	encodeAckBody(p, status, value, msg)
}

// DecodeAck reads an ack body.
func DecodeAck(r *snapshot.Reader) (Ack, error) {
	status := r.Uvarint()
	value := r.Uvarint()
	msg := r.String()
	if err := r.Err(); err != nil {
		return Ack{}, err
	}
	if status > uint64(StatusError) {
		return Ack{}, fmt.Errorf("wire: unknown ack status %d", status)
	}
	return Ack{Status: byte(status), Value: value, Msg: msg}, nil
}

// Err converts an error ack into a Go error (nil for OK/shed acks).
func (a Ack) Err() error {
	if a.Status == StatusError {
		return fmt.Errorf("wire: remote error: %s", a.Msg)
	}
	return nil
}

// Stats is a node's load figures — the rebalancer's placement signal.
type Stats struct {
	// Pending is the deepest per-shard backlog in events (instantaneous).
	Pending int
	// QueueCap is the per-shard mailbox capacity in events that Pending is
	// judged against; consumers use only the ratio.
	QueueCap int
	// TotalEvents counts every event the node accepted over its life.
	TotalEvents uint64
	// Tenants is the node's tenant slot count (including evicted slots).
	Tenants int
}

// Reply answers one request: the ack, then — on StatusOK only — the
// payload of the op answered:
//
//	OpHello          Version (implicit), Shards, Tenants
//	OpReport         Report
//	OpExportTenant   Snap (runtime.ExportTenant bytes)
//	OpStats          Stats
//
// Every other op, OpIngest included, replies with the ack alone.
type Reply struct {
	// Op is the request op answered; the frame carries ReplyTo(Op).
	Op  byte
	Seq uint64
	Ack
	// Shards and Tenants describe the node behind the server.
	Shards, Tenants int
	Report          *runtime.Report
	Snap            []byte
	Stats           Stats
}

// EncodeReply writes a reply.
func EncodeReply(p *snapshot.Writer, rep Reply) {
	EncodeAck(p, rep.Op, rep.Seq, rep.Status, rep.Value, rep.Msg)
	if rep.Status != StatusOK {
		return
	}
	switch rep.Op {
	case OpHello:
		p.Uvarint(Version)
		p.Uvarint(uint64(rep.Shards))
		p.Uvarint(uint64(rep.Tenants))
	case OpReport:
		encodeReport(p, rep.Report)
	case OpExportTenant:
		p.String(string(rep.Snap))
	case OpStats:
		p.Uvarint(uint64(rep.Stats.Pending))
		p.Uvarint(uint64(rep.Stats.QueueCap))
		p.Uvarint(rep.Stats.TotalEvents)
		p.Uvarint(uint64(rep.Stats.Tenants))
	}
}

// DecodeReply reads the body of the reply hdr opens. It refuses request
// and unknown ops, a Hello reply from a server of another Version, a
// malformed body and trailing bytes.
func DecodeReply(hdr Header, r *snapshot.Reader) (Reply, error) {
	rep := Reply{Op: RequestOf(hdr.Op), Seq: hdr.Seq}
	if !IsReply(hdr.Op) || rep.Op == 0 || rep.Op > OpStats {
		return Reply{}, fmt.Errorf("wire: op %d is not a reply", hdr.Op)
	}
	var err error
	if rep.Ack, err = DecodeAck(r); err == nil && rep.Status == StatusOK {
		switch rep.Op {
		case OpHello:
			version := r.Uvarint()
			if rep.Shards, err = wireInt(r, "shard count"); err == nil {
				rep.Tenants, err = wireInt(r, "tenant count")
			}
			if err == nil {
				err = checkVersion("server", version)
			}
		case OpReport:
			rep.Report, err = decodeReport(r)
		case OpExportTenant:
			rep.Snap = []byte(r.String())
		case OpStats:
			rep.Stats, err = decodeStats(r)
		}
	}
	if err == nil {
		err = r.Done()
	}
	if err != nil {
		return Reply{}, err
	}
	return rep, nil
}

func decodeStats(r *snapshot.Reader) (Stats, error) {
	var s Stats
	var err error
	if s.Pending, err = wireInt(r, "pending events"); err != nil {
		return Stats{}, err
	}
	if s.QueueCap, err = wireInt(r, "queue capacity"); err != nil {
		return Stats{}, err
	}
	s.TotalEvents = r.Uvarint()
	if s.Tenants, err = wireInt(r, "tenant count"); err != nil {
		return Stats{}, err
	}
	return s, nil
}

// --- Report ---

const (
	tenantAlive       byte = 1 << 0
	tenantMulti       byte = 1 << 1
	tenantQuarantined byte = 1 << 2
)

func encodeReport(p *snapshot.Writer, rep *runtime.Report) {
	p.Uvarint(uint64(len(rep.Tenants)))
	for i := range rep.Tenants {
		t := &rep.Tenants[i]
		var flags byte
		if t.Alive {
			flags |= tenantAlive
		}
		if t.MultiQuery {
			flags |= tenantMulti
		}
		if t.Quarantined {
			flags |= tenantQuarantined
		}
		p.Uvarint(uint64(flags))
		if !t.Alive {
			continue
		}
		p.String(t.Name)
		p.Uvarint(t.Events)
		t.Counter.ExportState(p)
		if t.Quarantined {
			continue // a quarantined tenant's answers are not read
		}
		if !t.MultiQuery {
			encodeAnswer(p, t.Answer)
			continue
		}
		p.Uvarint(uint64(len(t.Queries)))
		for qi := range t.Queries {
			q := &t.Queries[qi]
			p.Bool(q.Alive)
			if !q.Alive {
				continue
			}
			p.String(q.Name)
			encodeAnswer(p, q.Answer)
		}
	}
	rep.Totals.ExportState(p)
}

func encodeAnswer(p *snapshot.Writer, ids []stream.ID) {
	p.Uvarint(uint64(len(ids)))
	for _, id := range ids {
		p.Uvarint(uint64(id))
	}
}

func decodeAnswer(r *snapshot.Reader) ([]stream.ID, error) {
	count := r.Uvarint()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if count > uint64(r.Remaining()) {
		return nil, fmt.Errorf("wire: answer length %d exceeds payload", count)
	}
	if count == 0 {
		return nil, nil
	}
	ids := make([]stream.ID, count)
	for i := range ids {
		id, err := wireInt(r, "stream id")
		if err != nil {
			return nil, err
		}
		ids[i] = stream.ID(id)
	}
	return ids, nil
}

func decodeReport(r *snapshot.Reader) (*runtime.Report, error) {
	count := r.Uvarint()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if count > uint64(r.Remaining()) {
		return nil, fmt.Errorf("wire: tenant count %d exceeds payload", count)
	}
	rep := &runtime.Report{Tenants: make([]runtime.TenantReport, count)}
	var err error
	for i := range rep.Tenants {
		t := &rep.Tenants[i]
		flags := r.Uvarint()
		if err := r.Err(); err != nil {
			return nil, err
		}
		if flags&^uint64(tenantAlive|tenantMulti|tenantQuarantined) != 0 {
			return nil, fmt.Errorf("wire: unknown tenant flags %#x", flags)
		}
		if flags&uint64(tenantAlive) == 0 {
			if flags != 0 {
				return nil, fmt.Errorf("wire: removed tenant %d carries flags %#x", i, flags)
			}
			continue
		}
		t.Alive = true
		t.Quarantined = flags&uint64(tenantQuarantined) != 0
		t.Name = r.String()
		t.Events = r.Uvarint()
		if err := t.Counter.ImportState(r); err != nil {
			return nil, err
		}
		t.MultiQuery = flags&uint64(tenantMulti) != 0
		if t.Quarantined {
			continue
		}
		if !t.MultiQuery {
			if t.Answer, err = decodeAnswer(r); err != nil {
				return nil, err
			}
			continue
		}
		qcount := r.Uvarint()
		if err := r.Err(); err != nil {
			return nil, err
		}
		if qcount > uint64(r.Remaining()) {
			return nil, fmt.Errorf("wire: query count %d exceeds payload", qcount)
		}
		t.Queries = make([]runtime.QueryReport, qcount)
		for qi := range t.Queries {
			q := &t.Queries[qi]
			q.Alive = r.Bool()
			if r.Err() != nil {
				return nil, r.Err()
			}
			if !q.Alive {
				continue
			}
			q.Name = r.String()
			if q.Answer, err = decodeAnswer(r); err != nil {
				return nil, err
			}
		}
	}
	if err := rep.Totals.ImportState(r); err != nil {
		return nil, err
	}
	return rep, nil
}
