package core_test

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"adaptivefilters/internal/core"
	"adaptivefilters/internal/pintest"
	"adaptivefilters/internal/query"
	"adaptivefilters/internal/server"
	"adaptivefilters/internal/snapshot"
)

// knnStateStreams is the stream count of the baselines' record pins.
const knnStateStreams = 7

// knnStateInitial holds ties (40, 55) and a signed zero, so the pinned
// answers depend on the (distance, id) tie-break.
var knnStateInitial = []float64{40, 55, 40, math.Copysign(0, -1), 70, 55, 1000}

// knnBaselines builds each k-NN baseline at k = 3 on a host.
var knnBaselines = []struct {
	name  string
	build func(h server.Host) server.Protocol
}{
	{"vb-knn", func(h server.Host) server.Protocol { return core.NewVBKNN(h, query.NewKNN(query.At(50), 3), 20) }},
	{"vb-knn-top", func(h server.Host) server.Protocol { return core.NewVBKNN(h, query.NewKNN(query.Top(), 3), 20) }},
	{"no-filter-knn", func(h server.Host) server.Protocol { return core.NewNoFilterKNN(h, query.NewKNN(query.At(50), 3)) }},
	{"no-filter-knn-bottom", func(h server.Host) server.Protocol {
		return core.NewNoFilterKNN(h, query.NewKNN(query.Bottom(), 3))
	}},
}

// knnStage is one point of the pinned sequence: the updates handed to the
// protocol since the last stage, and whether Initialize runs first.
type knnStage struct {
	name    string
	init    bool
	updates [][2]float64 // (id, value)
}

// knnStages walks every record shape: every id absent, partly present
// (updates that come before Initialize), all present after Initialize,
// and after updates that tie, cross zero and repeat a value.
var knnStages = []knnStage{
	{name: "fresh"},
	{name: "early", updates: [][2]float64{{3, 52}, {5, 48}}},
	{name: "init", init: true},
	{name: "updates", updates: [][2]float64{{6, 50}, {0, 45}, {2, -0.5}, {4, 55}, {0, 60}}},
}

// knnStateRecord is one pinned stage of one baseline: its answer and its
// ExportState bytes.
type knnStateRecord struct {
	line   string
	answer []int
	state  []byte
}

// knnStateRecords plays knnStages on every baseline.
func knnStateRecords() []knnStateRecord {
	var out []knnStateRecord
	for _, b := range knnBaselines {
		c := server.NewCluster(append([]float64(nil), knnStateInitial...))
		p := b.build(c)
		c.SetProtocol(p)
		for _, st := range knnStages {
			if st.init {
				c.Initialize()
			}
			for _, u := range st.updates {
				p.HandleUpdate(int(u[0]), u[1])
			}
			w := snapshot.NewWriter()
			p.(server.StatefulProtocol).ExportState(w)
			ans := p.Answer()
			out = append(out, knnStateRecord{
				line:   fmt.Sprintf("%s %s answer=%v state=%s", b.name, st.name, ans, hex.EncodeToString(w.Bytes())),
				answer: ans,
				state:  w.Bytes(),
			})
		}
	}
	return out
}

// TestKNNBaselineStatePins pins VB-kNN's and the no-filter k-NN's record
// bytes and answers at every stage of knnStages against
// testdata/knn_state.golden, recorded when both kept a sorted rank index,
// so the snapshot layout the index wrote survives any change of what the
// baselines keep in memory.
func TestKNNBaselineStatePins(t *testing.T) {
	var lines []string
	for _, r := range knnStateRecords() {
		lines = append(lines, r.line)
	}
	pintest.Check(t, "testdata/knn_state.golden", lines, *updatePins)
}

// TestKNNBaselineStateRestore restores every pinned record into a fresh
// baseline: it must answer as the recorded one did and export the same
// bytes, the partly present records included.
func TestKNNBaselineStateRestore(t *testing.T) {
	recs := knnStateRecords()
	for i, r := range recs {
		b := knnBaselines[i/len(knnStages)]
		c := server.NewCluster(append([]float64(nil), knnStateInitial...))
		p := b.build(c)
		c.SetProtocol(p)
		if err := p.(server.StatefulProtocol).ImportState(snapshot.NewReader(r.state)); err != nil {
			t.Fatalf("%s: %v", r.line, err)
		}
		if got := p.Answer(); !reflect.DeepEqual(got, r.answer) {
			t.Errorf("%s: restored answer %v", strings.Fields(r.line)[:2], got)
		}
		w := snapshot.NewWriter()
		p.(server.StatefulProtocol).ExportState(w)
		if !bytes.Equal(w.Bytes(), r.state) {
			t.Errorf("%s: re-export differs", strings.Fields(r.line)[:2])
		}
	}
}

// TestKNNBaselineImportRefusals: a NaN value and a capacity other than the
// host's stream count are errors, never panics (truncations are
// TestProtocolImportRejectsTruncation's).
func TestKNNBaselineImportRefusals(t *testing.T) {
	record := func(capacity int, vals ...float64) []byte {
		w := snapshot.NewWriter()
		w.Int(capacity)
		for id := 0; id < capacity; id++ {
			present := id < len(vals)
			w.Bool(present)
			if present {
				w.Float64(vals[id])
			}
		}
		return w.Bytes()
	}
	cases := map[string][]byte{
		"nan":   record(knnStateStreams, 1, 2, math.NaN()),
		"short": record(knnStateStreams-1, 1, 2),
		"long":  record(knnStateStreams+1, 1, 2),
	}
	for _, b := range knnBaselines {
		for name, data := range cases {
			c := server.NewCluster(append([]float64(nil), knnStateInitial...))
			p := b.build(c)
			c.SetProtocol(p)
			if err := p.(server.StatefulProtocol).ImportState(snapshot.NewReader(data)); err == nil {
				t.Errorf("%s: %s record accepted", b.name, name)
			}
		}
	}
}

// TestKNNBaselinesPanicOnNaN: validated ingest never hands a baseline a
// NaN, so one is a caller bug — a panic, before Initialize as after.
func TestKNNBaselinesPanicOnNaN(t *testing.T) {
	for _, b := range knnBaselines {
		c := server.NewCluster(append([]float64(nil), knnStateInitial...))
		p := b.build(c)
		c.SetProtocol(p)
		mustPanic := func(when string) {
			t.Helper()
			defer func() {
				if recover() == nil {
					t.Errorf("%s: NaN update %s Initialize accepted", b.name, when)
				}
			}()
			p.HandleUpdate(1, math.NaN())
		}
		mustPanic("before")
		c.Initialize()
		mustPanic("after")
	}
}
