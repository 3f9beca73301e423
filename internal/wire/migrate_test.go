package wire_test

import (
	"bytes"
	"reflect"
	"testing"

	"adaptivefilters/internal/protospec"
	"adaptivefilters/internal/wire"
)

// The version-2 ops carry the cluster migration plane: labeled admission,
// tenant snapshot export/import, and the load-stats probe. These tests pin
// their codecs the same way wire_test.go pins the version-1 lifecycle.

func migrateSpec() wire.TenantSpec {
	return wire.TenantSpec{
		Name:    "moving",
		Initial: []float64{10, 20, 30},
		Spec:    protospec.Spec{Protocol: "rtp", Q: 25, K: 2, R: 1},
	}
}

func TestAddTenantLabeledRoundTrip(t *testing.T) {
	spec := migrateSpec()
	req, hdr, err := request(t, wire.Request{Op: wire.OpAddTenantLabeled, Seq: 21, Label: 7, Tenant: spec})
	if hdr.Op != wire.OpAddTenantLabeled || hdr.Seq != 21 {
		t.Fatalf("header = %+v", hdr)
	}
	if err != nil {
		t.Fatal(err)
	}
	if label, got := req.Label, req.Tenant; label != 7 || !reflect.DeepEqual(got, spec) {
		t.Fatalf("round trip: label=%d got=%+v", label, got)
	}

	// A label past int64 range must be rejected, not wrapped negative.
	var buf bytes.Buffer
	fw := wire.NewFrameWriter(&buf, 0)
	p := fw.Begin()
	wire.EncodeHeader(p, wire.OpAddTenantLabeled, 22)
	p.Uvarint(1 << 63)
	if err := fw.End(); err != nil {
		t.Fatal(err)
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	fr := wire.NewFrameReader(&buf, 0)
	rr, err := fr.Next()
	if err != nil {
		t.Fatal(err)
	}
	hdr, err = wire.DecodeHeader(rr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wire.DecodeRequest(hdr, rr); err == nil {
		t.Fatal("label 1<<63 decoded without error")
	}
}

func TestExportTenantRoundTrip(t *testing.T) {
	req, hdr, err := request(t, wire.Request{Op: wire.OpExportTenant, Seq: 31, TI: 4})
	if hdr.Op != wire.OpExportTenant || hdr.Seq != 31 {
		t.Fatalf("header = %+v", hdr)
	}
	if err != nil || req.TI != 4 {
		t.Fatalf("round trip: ti=%d err=%v", req.TI, err)
	}

	snap := []byte{0x00, 0xff, 0x7e, 0x01, 0x80}
	rep, hdr, err := reply(t, wire.Reply{Op: wire.OpExportTenant, Seq: 31, Snap: snap})
	if hdr.Op != wire.ReplyTo(wire.OpExportTenant) {
		t.Fatalf("reply header = %+v", hdr)
	}
	if err != nil || rep.Status != wire.StatusOK {
		t.Fatalf("reply: ack=%+v err=%v", rep.Ack, err)
	}
	if !bytes.Equal(rep.Snap, snap) {
		t.Fatalf("snapshot bytes: got %x, want %x", rep.Snap, snap)
	}

	// An error reply carries no snapshot payload.
	rep, _, err = reply(t, wire.Reply{Op: wire.OpExportTenant, Seq: 32,
		Ack: wire.Ack{Status: wire.StatusError, Msg: "no such tenant"}, Snap: snap})
	if err != nil || rep.Status != wire.StatusError || rep.Msg != "no such tenant" || rep.Snap != nil {
		t.Fatalf("error reply: snap=%x ack=%+v err=%v", rep.Snap, rep.Ack, err)
	}
}

func TestImportTenantRoundTrip(t *testing.T) {
	spec := migrateSpec()
	snap := bytes.Repeat([]byte{0xa5, 0x00, 0x5a}, 40)
	req, hdr, err := request(t, wire.Request{Op: wire.OpImportTenant, Seq: 41, Tenant: spec, Snap: snap})
	if hdr.Op != wire.OpImportTenant || hdr.Seq != 41 {
		t.Fatalf("header = %+v", hdr)
	}
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(req.Tenant, spec) || !bytes.Equal(req.Snap, snap) {
		t.Fatalf("round trip: spec=%+v snap=%x", req.Tenant, req.Snap)
	}
}

func TestStatsRoundTrip(t *testing.T) {
	_, hdr, err := request(t, wire.Request{Op: wire.OpStats, Seq: 51})
	if hdr.Op != wire.OpStats || hdr.Seq != 51 {
		t.Fatalf("header = %+v", hdr)
	}
	if err != nil {
		t.Fatal(err)
	}

	want := wire.Stats{Pending: 3, QueueCap: 64, TotalEvents: 123456, Tenants: 9}
	rep, hdr, err := reply(t, wire.Reply{Op: wire.OpStats, Seq: 51, Stats: want})
	if hdr.Op != wire.ReplyTo(wire.OpStats) {
		t.Fatalf("reply header = %+v", hdr)
	}
	if err != nil || rep.Status != wire.StatusOK {
		t.Fatalf("reply: ack=%+v err=%v", rep.Ack, err)
	}
	if got := rep.Stats; got != want {
		t.Fatalf("stats: got %+v, want %+v", got, want)
	}
}
