package server_test

import (
	"runtime"
	"testing"

	"adaptivefilters/internal/core"
	"adaptivefilters/internal/query"
	"adaptivefilters/internal/server"
	"adaptivefilters/internal/sim"
	"adaptivefilters/internal/snapshot"
)

// TestSingleQueryHostHeapCarriesNoConstraintColumn: a single-query host
// whose protocol deploys one bound to every stream — RTP's region R,
// ZT-NRP's query interval — stores that bound once, not once per stream,
// after Initialize and a walk and again after an export/import round trip
// into a fresh host. Retained bytes per stream are measured between
// n = 1,000 and n = 10,000. The host's own columns are 19 B a stream (the
// value and the table entry, 8 B each; the recorded side, the mode and the
// Sides scratch, 1 B each); RTP after a walk adds its rank pass's scratch,
// 25 B (ranking keys and ids and the table copy, 8 B each, and the
// expanding search's hit flags). The bound is those plus 12 B of slack,
// under the 24 B a dense 1-D constraint column adds.
func TestSingleQueryHostHeapCarriesNoConstraintColumn(t *testing.T) {
	const hostColumns, rankScratch, slack = 19, 25, 12
	rows := []struct {
		name    string
		scratch int64 // the protocol's per-stream scratch after a walk
		build   func(server.Host) server.Protocol
	}{
		{"rtp", rankScratch, func(h server.Host) server.Protocol {
			return core.NewRTP(h, query.At(500), core.RankTolerance{K: 6, R: 4})
		}},
		{"zt-nrp", 0, func(h server.Host) server.Protocol { return core.NewZTNRP(h, query.NewRange(400, 600)) }},
	}
	for _, row := range rows {
		mk := func(n int) (*server.Cluster, server.Protocol) {
			rng := sim.NewRNG(5)
			initial := make([]float64, n)
			for i := range initial {
				initial[i] = float64(rng.Intn(2000)) / 2
			}
			c := server.NewCluster(initial)
			p := row.build(c)
			c.SetProtocol(p)
			return c, p
		}
		walked := func(n int) (*server.Cluster, server.Protocol) {
			c, p := mk(n)
			c.Initialize()
			rng := sim.NewRNG(6)
			for ev := 0; ev < 20000; ev++ {
				id := rng.Intn(n)
				c.Deliver(id, c.TrueValue(id)+float64(rng.Intn(121)-60)/2)
			}
			return c, p
		}
		restored := func(n int) (*server.Cluster, server.Protocol) {
			c0, p0 := walked(n)
			w := snapshot.NewWriter()
			c0.ExportState(w)
			p0.(server.StatefulProtocol).ExportState(w)
			c, p := mk(n)
			r := snapshot.NewReader(w.Bytes())
			if err := c.ImportState(r); err != nil {
				t.Fatal(err)
			}
			if err := p.(server.StatefulProtocol).ImportState(r); err != nil {
				t.Fatal(err)
			}
			return c, p
		}
		for _, stage := range []struct {
			name    string
			scratch int64
			host    func(int) (*server.Cluster, server.Protocol)
		}{{"walked", row.scratch, walked}, {"restored", 0, restored}} {
			retained := func(n int) int64 {
				var before, after runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&before)
				c, p := stage.host(n)
				runtime.GC()
				runtime.ReadMemStats(&after)
				runtime.KeepAlive(c)
				runtime.KeepAlive(p)
				return int64(after.HeapAlloc) - int64(before.HeapAlloc)
			}
			retained(1000)
			got, bound := (retained(10000)-retained(1000))/9000, hostColumns+stage.scratch+slack
			t.Logf("%s %s: %d B per stream (bound %d)", row.name, stage.name, got, bound)
			if got > bound {
				t.Errorf("%s %s: the host retains %d B per stream, want at most %d", row.name, stage.name, got, bound)
			}
		}
	}
}
