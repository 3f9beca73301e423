package wire_test

import (
	"bufio"
	"encoding/hex"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"adaptivefilters/internal/protospec"
	"adaptivefilters/internal/runtime"
	"adaptivefilters/internal/snapshot"
	"adaptivefilters/internal/wire"
)

// opCase is one fixed payload: a request, a reply, or an ingest batch.
type opCase struct {
	name   string
	req    *wire.Request
	rep    *wire.Reply
	events []runtime.Event
}

func (c opCase) encode(p *snapshot.Writer) {
	switch {
	case c.req != nil:
		wire.EncodeRequest(p, *c.req)
	case c.rep != nil:
		wire.EncodeReply(p, *c.rep)
	default:
		wire.EncodeIngest(p, 2, c.events)
	}
}

// opCases covers every request op and every reply shape — hello, report,
// export, stats and the plain ack, each as OK and as error — with fixed
// inputs: the rows of testdata/ops.golden, and the fuzzers' seeds.
func opCases() []opCase {
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
	q := wire.QuerySpec{Name: "late", Spec: protospec.Spec{Protocol: "zt-rp", Q: 6, K: 2}}
	snap := []byte{0x00, 0xff, 0x7e, 0x01, 0x80}
	fail := func(msg string) wire.Ack { return wire.Ack{Status: wire.StatusError, Msg: msg} }
	req := func(name string, r wire.Request) opCase { return opCase{name: name, req: &r} }
	rep := func(name string, r wire.Reply) opCase { return opCase{name: name, rep: &r} }
	return []opCase{
		req("req-hello", wire.Request{Op: wire.OpHello, Seq: 1}),
		{name: "req-ingest", events: []runtime.Event{
			{Tenant: 0, Stream: 0, Value: 0},
			{Tenant: 3, Stream: 16384, Value: -12.75},
			{Tenant: 250, Stream: 1, Value: math.Inf(1)},
			{Tenant: 1, Stream: 99, Value: math.Copysign(0, -1)},
		}},
		req("req-drain", wire.Request{Op: wire.OpDrain, Seq: 3}),
		req("req-report", wire.Request{Op: wire.OpReport, Seq: 4}),
		req("req-add-tenant", wire.Request{Op: wire.OpAddTenant, Seq: 5, Tenant: single}),
		req("req-add-tenant-multi", wire.Request{Op: wire.OpAddTenant, Seq: 6, Tenant: multi}),
		req("req-remove-tenant", wire.Request{Op: wire.OpRemoveTenant, Seq: 7, TI: 5}),
		req("req-add-query", wire.Request{Op: wire.OpAddQuery, Seq: 8, TI: 3, Query: q}),
		req("req-remove-query", wire.Request{Op: wire.OpRemoveQuery, Seq: 9, TI: 5, QI: 2}),
		req("req-shutdown", wire.Request{Op: wire.OpShutdown, Seq: 10}),
		req("req-add-tenant-labeled", wire.Request{Op: wire.OpAddTenantLabeled, Seq: 11, Label: 7, Tenant: migrateSpec()}),
		req("req-export-tenant", wire.Request{Op: wire.OpExportTenant, Seq: 12, TI: 4}),
		req("req-import-tenant", wire.Request{Op: wire.OpImportTenant, Seq: 13, Tenant: migrateSpec(), Snap: snap}),
		req("req-stats", wire.Request{Op: wire.OpStats, Seq: 14}),

		rep("rep-hello-ok", wire.Reply{Op: wire.OpHello, Seq: 1, Shards: 4, Tenants: 12}),
		rep("rep-hello-err", wire.Reply{Op: wire.OpHello, Seq: 1, Ack: fail("hello refused")}),
		rep("rep-report-ok", wire.Reply{Op: wire.OpReport, Seq: 4, Report: sampleReport()}),
		rep("rep-report-err", wire.Reply{Op: wire.OpReport, Seq: 4, Ack: fail("draining failed")}),
		rep("rep-export-ok", wire.Reply{Op: wire.OpExportTenant, Seq: 12, Snap: snap}),
		rep("rep-export-err", wire.Reply{Op: wire.OpExportTenant, Seq: 12, Ack: fail("no such tenant")}),
		rep("rep-stats-ok", wire.Reply{Op: wire.OpStats, Seq: 14,
			Stats: wire.Stats{Pending: 3, QueueCap: 64, TotalEvents: 123456, Tenants: 9}}),
		rep("rep-stats-err", wire.Reply{Op: wire.OpStats, Seq: 14, Ack: fail("stats failed")}),
		rep("rep-ack-ok", wire.Reply{Op: wire.OpAddTenant, Seq: 5, Ack: wire.Ack{Value: 3}}),
		rep("rep-ack-err", wire.Reply{Op: wire.OpAddTenant, Seq: 5, Ack: fail("no free slot")}),
		rep("rep-drain-ok", wire.Reply{Op: wire.OpDrain, Seq: 3}),
		rep("rep-labeled-ok", wire.Reply{Op: wire.OpAddTenantLabeled, Seq: 11, Ack: wire.Ack{Value: 2}}),
		rep("rep-import-ok", wire.Reply{Op: wire.OpImportTenant, Seq: 13, Ack: wire.Ack{Value: 6}}),
		rep("rep-add-query-ok", wire.Reply{Op: wire.OpAddQuery, Seq: 8, Ack: wire.Ack{Value: 1}}),
		rep("rep-ingest-ok", wire.Reply{Op: wire.OpIngest, Seq: 2}),
		rep("rep-ingest-shed", wire.Reply{Op: wire.OpIngest, Seq: 2, Ack: wire.Ack{Status: wire.StatusShed}}),
		rep("rep-ingest-err", wire.Reply{Op: wire.OpIngest, Seq: 2, Ack: fail("no tenant 99")}),
	}
}

// TestOpsGolden pins the bytes of every control op: each case must encode
// to its recorded hex in testdata/ops.golden (written by the per-op
// encoders that EncodeRequest and EncodeReply replaced, so the wire did not
// move) and decode back to its input.
func TestOpsGolden(t *testing.T) {
	f, err := os.Open("testdata/ops.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	golden := map[string]string{}
	for sc := bufio.NewScanner(f); sc.Scan(); {
		name, hexBytes, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		golden[name] = hexBytes
	}
	cases := opCases()
	if len(golden) != len(cases) {
		t.Fatalf("golden file has %d cases, the table %d", len(golden), len(cases))
	}
	for _, c := range cases {
		w := snapshot.NewWriter()
		c.encode(w)
		if got := hex.EncodeToString(w.Bytes()); got != golden[c.name] {
			t.Errorf("%s: encodes to\n%s\nwant\n%s", c.name, got, golden[c.name])
			continue
		}
		r := snapshot.NewReader(w.Bytes())
		hdr, err := wire.DecodeHeader(r)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var got, want any
		switch {
		case c.req != nil:
			got, err = wire.DecodeRequest(hdr, r)
			want = *c.req
		case c.rep != nil:
			got, err = wire.DecodeReply(hdr, r)
			want = *c.rep
		default:
			got, err = wire.DecodeIngestInto(r, nil)
			want = c.events
		}
		if err != nil {
			t.Errorf("%s: decode: %v", c.name, err)
		} else if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: round trip:\n got %+v\nwant %+v", c.name, got, want)
		}
	}
}
