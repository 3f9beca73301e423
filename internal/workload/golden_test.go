package workload

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"adaptivefilters/internal/pintest"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/generators.golden from the current code")

// TestGeneratorsGolden pins every generator's bytes: per workload and
// seed, the event count, the first and last event, and FNV-64a digests of
// the initial values and of every event's Time, Stream, Value and Y bits.
// A mismatch means the generated traces moved, and with them every table
// and answer the repo records; only re-record (-update) when that is the
// intent.
func TestGeneratorsGolden(t *testing.T) {
	var got []string
	for _, seed := range []int64{1, 1001} {
		syn := SyntheticConfig{N: 300, Lo: 0, Hi: 1000, MeanGap: 20, Sigma: 20, Horizon: 400, Seed: seed}
		s, err := NewSynthetic(syn)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, goldenLine("synthetic", seed, s.Initial(), s.Events()))

		syn.Sigma, syn.ClampOff = 60, true
		if s, err = NewSynthetic(syn); err != nil {
			t.Fatal(err)
		}
		got = append(got, goldenLine("synthetic-clampoff", seed, s.Initial(), s.Events()))

		tcp, err := NewTCPLike(DefaultTCPLike(6000, seed))
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, goldenLine("tcplike", seed, tcp.Initial(), tcp.Events()))

		sp, err := NewSpatial2D(Spatial2DConfig{N: 200, Lo: 0, Hi: 1000, MeanGap: 20, Sigma: 20, Horizon: 400, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		var flat []float64
		for _, p := range sp.InitialPoints() {
			flat = append(flat, p.X, p.Y)
		}
		got = append(got, goldenLine("spatial2d", seed, flat, sp.Events()))

		// A dump in cmd/tracegen's CSV format, parsed back.
		var b strings.Builder
		b.WriteString("time,stream,value\n")
		for _, ev := range tcp.Events() {
			fmt.Fprintf(&b, "%g,%d,%g\n", ev.Time, ev.Stream, ev.Value)
		}
		r, err := ParseCSV("tracegen", strings.NewReader(b.String()), 0)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, goldenLine("parsecsv", seed, r.Initial(), r.Events()))
	}
	pintest.Check(t, "testdata/generators.golden", got, *updateGolden)
}

func goldenLine(name string, seed int64, initial []float64, evs []Event) string {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, v := range initial {
		put(math.Float64bits(v))
	}
	init := h.Sum64()
	h.Reset()
	for _, ev := range evs {
		put(math.Float64bits(ev.Time))
		put(uint64(ev.Stream))
		put(math.Float64bits(ev.Value))
		put(math.Float64bits(ev.Y))
	}
	var first, last Event
	if len(evs) > 0 {
		first, last = evs[0], evs[len(evs)-1]
	}
	return fmt.Sprintf("%s seed=%d n=%d init=%016x events=%d first=%v last=%v digest=%016x",
		name, seed, len(initial), init, len(evs), first, last, h.Sum64())
}
