package core_test

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"adaptivefilters/internal/pintest"
	"adaptivefilters/internal/server"
	"adaptivefilters/internal/snapshot"
)

// hostRecords plays the walk and returns one line per checkpoint: the
// length and FNV-64a digest of the host's ExportState record.
func (w pinWalk[V, C]) hostRecords(draw func(*rand.Rand) V, step func(*rand.Rand, V) V) (lines []string) {
	w.play(draw, step, func(ev int, c *server.ClusterOf[V, C], _ server.ProtocolOf[V], _ [2]uint64) {
		if ev%pinEvery != 0 {
			return
		}
		wr := snapshot.NewWriter()
		c.ExportState(wr)
		h := fnv.New64a()
		h.Write(wr.Bytes())
		lines = append(lines, fmt.Sprintf("%s %d len=%d %016x", w.name, ev, len(wr.Bytes()), h.Sum64()))
	})
	return lines
}

// TestHostRecordPins pins the single-query host's record bytes — table,
// counters, pending reports and every source's value, constraint and side
// — at each checkpoint of every pin walk against
// testdata/host_records.golden, so a change of how the sources store their
// constraints cannot move a snapshot.
func TestHostRecordPins(t *testing.T) {
	var got []string
	for _, w := range pinWalks() {
		got = append(got, w.hostRecords(pinDrawLine, pinStepLine)...)
	}
	for _, w := range pinWalksPlanar() {
		got = append(got, w.hostRecords(pinDrawPlanar, pinStepPlanar)...)
	}
	pintest.Check(t, "testdata/host_records.golden", got, *updatePins)
}
