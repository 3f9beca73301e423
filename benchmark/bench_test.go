package main

import (
	"bytes"
	"encoding/binary"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"adaptivefilters/internal/protospec"
	"adaptivefilters/internal/runtime"
)

func TestPercentileIsNearestRank(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct{ p, want float64 }{
		{50, 50}, {90, 90}, {91, 100}, {99.9, 100}, {100, 100}, {1, 10}, {10, 10}, {11, 20},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %g, want 2", got)
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4)
// returns, which is how the acceptance driver computes spreads.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{7, 1, 3})
	if q1 != 1 || q2 != 3 || q3 != 7 {
		t.Errorf("quartiles(7,1,3) = %g %g %g, want 1 3 7", q1, q2, q3)
	}
}

func TestSegmentMedianIgnoresAStall(t *testing.T) {
	s := satStats{segEvents: 1_000_000}
	for i := 0; i < 21; i++ {
		g := segment{wall: 100 * time.Millisecond, cpu: 150 * time.Millisecond, slow: 1}
		if i == 7 { // one segment hit a stall
			g = segment{wall: 900 * time.Millisecond, cpu: 400 * time.Millisecond, slow: 1}
		}
		s.segs = append(s.segs, g)
	}
	if got := s.eventsPerSec(); got != 1e7 {
		t.Errorf("segment median = %g events/s, want 1e7", got)
	}
	if got := s.cpuNsPerEvent(); got != 150 {
		t.Errorf("segment median = %g CPU ns/event, want 150", got)
	}
}

// A run on a host that is 1.5 times slower than its reference speed for
// most of its segments reports what an undisturbed run reports; the figures
// as measured stay available.
func TestSegmentsScaleToTheReferenceHostSpeed(t *testing.T) {
	s := satStats{segEvents: 1_000_000}
	for i := 0; i < 21; i++ {
		g := segment{wall: 100 * time.Millisecond, cpu: 150 * time.Millisecond, slow: 1}
		if i%3 != 0 {
			g = segment{wall: 150 * time.Millisecond, cpu: 225 * time.Millisecond, slow: 1.5}
		}
		s.segs = append(s.segs, g)
	}
	if got := s.eventsPerSec(); math.Abs(got-1e7) > 1 {
		t.Errorf("scaled rate = %g events/s, want 1e7", got)
	}
	if got := s.cpuNsPerEvent(); math.Abs(got-150) > 1e-9 {
		t.Errorf("scaled CPU = %g ns/event, want 150", got)
	}
	if got := s.rawCPUNsPerEvent(); got != 225 {
		t.Errorf("CPU as measured = %g ns/event, want 225", got)
	}
	if got := s.hostSlowdown(); got != 1.5 {
		t.Errorf("median slowdown = %g, want 1.5", got)
	}
	if got := slowdown(probeRefNs, 2*probeRefNs); got != 1.5 {
		t.Errorf("slowdown between a probe at the reference and one at twice it = %g, want 1.5", got)
	}
	if got := probe(); !(got > 0) {
		t.Errorf("probe took %g ns", got)
	}
}

func TestChunkedPercentileIgnoresABurst(t *testing.T) {
	var rounds []rttRound
	for c := 0; c < 5; c++ {
		r := rttRound{slow: 1}
		for i := 0; i < rttChunk; i++ {
			v := float64(i % 100) // 0..99 in every chunk
			if c == 2 {
				v += 1000 // one chunk ran during a burst of interference
			}
			r.us = append(r.us, v)
		}
		rounds = append(rounds, r)
	}
	if got := chunkedPercentile(rounds, 90, true); got != 89 {
		t.Errorf("chunked p90 = %g, want 89", got)
	}
	// Chunks the host slowed down scale back; as measured they do not.
	for c := range rounds {
		rounds[c].slow = 2
	}
	if scaled, raw := chunkedPercentile(rounds, 90, true), chunkedPercentile(rounds, 90, false); scaled != 44.5 || raw != 89 {
		t.Errorf("chunked p90 at slowdown 2 = %g scaled, %g as measured; want 44.5, 89", scaled, raw)
	}
	// Two modes in shifting proportion: the figure follows the mix.
	if a, b := midMean([]float64{11, 11, 11, 16, 16, 16, 16, 16}), midMean([]float64{11, 11, 11, 11, 11, 16, 16, 16}); !(a > b && a < 16 && b > 11) {
		t.Errorf("midMean of 3:5 and 5:3 mixes = %g, %g", a, b)
	}
	if got := midMean([]float64{1, 2, 3, 4, 5, 6, 7, 1000}); got != 4.5 {
		t.Errorf("midMean ignoring the tails = %g, want 4.5", got)
	}
	if got := chunkedPercentile(nil, 50, true); got != 0 {
		t.Errorf("p50 of no round trips = %g, want 0", got)
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	spans := []span{
		{Name: "segment", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0},  // overlaps a: union is [10,60]
		{Name: "c", Start: 90, End: 120, Parent: 0}, // sticks out: only [90,100] counts
		{Name: "a.child", Start: 15, End: 20, Parent: 1},
	}
	want := []int64{100 - 50 - 10, 30 - 5, 30, 30, 5}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got, want[i])
		}
	}
}

func TestTracerKeepsTotalsPastItsCaps(t *testing.T) {
	tr := newTracer()
	k := tr.kind("call")
	seg := tr.open("segment", -1)
	for i := 0; i < kindSpans+10; i++ {
		tr.add(k, tr.epoch, 5, seg, uint64(i))
	}
	tr.close(seg)
	if k.count != kindSpans+10 || k.sum != 5*(kindSpans+10) {
		t.Errorf("running totals count=%d sum=%d", k.count, k.sum)
	}
	if len(tr.spans) != kindSpans+1 {
		t.Errorf("stored %d spans, want %d", len(tr.spans), kindSpans+1)
	}
	var nilTracer *tracer
	nilTracer.add(nilTracer.kind("call"), tr.epoch, 5, nilTracer.open("segment", -1), 0)
	nilTracer.close(-1)
}

func eventBytes(in *inputs) []byte {
	var b bytes.Buffer
	for _, pool := range [][]float64{flatten(in.x0), flatten(in.y0)} {
		binary.Write(&b, binary.LittleEndian, pool)
	}
	for _, ev := range append(append([]runtime.Event(nil), in.fwd...), in.bwd...) {
		binary.Write(&b, binary.LittleEndian, []int64{int64(ev.Tenant), int64(ev.Stream)})
		binary.Write(&b, binary.LittleEndian, []float64{ev.Value, ev.Y})
	}
	return b.Bytes()
}

func flatten(xs [][]float64) []float64 {
	var out []float64
	for _, x := range xs {
		out = append(out, x...)
	}
	return out
}

func TestGeneratorIsDeterministicPerSeed(t *testing.T) {
	w, _ := workloadByName("node-rank")
	a, b, c := generate(w.defs, 7, 5000), generate(w.defs, 7, 5000), generate(w.defs, 8, 5000)
	if !bytes.Equal(eventBytes(a), eventBytes(b)) {
		t.Error("same seed produced different inputs")
	}
	if bytes.Equal(eventBytes(a), eventBytes(c)) {
		t.Error("different seeds produced identical inputs")
	}
}

func TestBackwardPassUndoesForwardPass(t *testing.T) {
	w, _ := workloadByName("node-rank")
	const pool = 20000
	in := generate(w.defs, 3, pool)
	x := make([][]float64, len(in.defs))
	y := make([][]float64, len(in.defs))
	count := make([]uint64, len(in.defs))
	for i := range x {
		x[i] = append([]float64(nil), in.x0[i]...)
		y[i] = append([]float64(nil), in.y0[i]...)
	}
	// Walk two and a half passes in uneven steps, checking state() against
	// a plain replay at every stop.
	pos := uint64(0)
	for _, stop := range []uint64{1, 777, pool - 1, pool, pool + 5000, 2 * pool, 2*pool + pool/2} {
		for pos < stop {
			b := in.next(pos, 300)
			if uint64(len(b)) > stop-pos {
				b = b[:stop-pos]
			}
			for _, ev := range b {
				if ev.Value < domainLo || ev.Value > domainHi || ev.Y < domainLo || ev.Y > domainHi {
					t.Fatalf("event %+v leaves the domain", ev)
				}
				count[ev.Tenant]++
				x[ev.Tenant][ev.Stream] = ev.Value
				if y[ev.Tenant] != nil {
					y[ev.Tenant][ev.Stream] = ev.Y
				}
			}
			pos += uint64(len(b))
		}
		for i := range x {
			wx, wy, n := in.state(i, pos)
			if n != count[i] {
				t.Fatalf("at %d tenant %d: state counts %d events, replay %d", pos, i, n, count[i])
			}
			for s := range x[i] {
				if x[i][s] != wx[s] || (wy != nil && y[i][s] != wy[s]) {
					t.Fatalf("at %d tenant %d stream %d is not where state says", pos, i, s)
				}
			}
		}
		if pos == 2*pool {
			for i := range x {
				for s := range x[i] {
					if x[i][s] != in.x0[i][s] {
						t.Fatalf("after forward+backward tenant %d stream %d is not back at its start", i, s)
					}
				}
			}
		}
	}
}

func TestAuditRejectsAnAnswerOutsideTolerance(t *testing.T) {
	x := make([]float64, 100)
	for i := range x {
		x[i] = float64(i) * 10 // 0, 10, …, 990
	}
	inRange := []int{40, 41, 42, 43, 44, 45, 46, 47, 48, 49, 50, 51, 52, 53, 54, 55, 56, 57, 58, 59, 60}
	if err := checkAnswer(ftnrp(400, 600), x, nil, inRange); err != nil {
		t.Errorf("exact range answer rejected: %v", err)
	}
	if err := checkAnswer(ftnrp(400, 600), x, nil, inRange[:10]); err == nil {
		t.Error("answer missing half the range accepted under ε⁻ = 0.2")
	}
	rtp := protospec.Spec{Protocol: "rtp", K: 2, R: 1, Q: 500}
	if err := checkAnswer(rtp, x, nil, []int{50, 49}); err != nil {
		t.Errorf("true 2-NN rejected: %v", err)
	}
	if err := checkAnswer(rtp, x, nil, []int{50, 10}); err == nil {
		t.Error("rank-40 member accepted under k=2, r=1")
	}
	vb := protospec.Spec{Protocol: "vb-knn", K: 2, Q: 500, Width: 15}
	if err := checkAnswer(vb, x, nil, []int{50, 53}); err == nil {
		t.Error("vb-knn member 30 beyond the k-th distance accepted at width 15")
	}
	if err := checkAnswer(vb, x, nil, []int{50, 51}); err != nil {
		t.Errorf("true vb-knn answer rejected: %v", err)
	}
	planar := protospec.Spec{Protocol: "rtp2d", K: 1, R: 0, QX: 0, QY: 0}
	if err := checkAnswer(planar, []float64{3, 1}, []float64{4, 1}, []int{0}); err == nil {
		t.Error("farther planar point accepted as the nearest")
	}
}

// smoke shrinks a workload to about 50k events over 300-stream tenants.
func smoke(w workload) workload {
	w.pool, w.prologue, w.segment = 5000, 4000, 2000
	w.defs = append([]tenantDef(nil), w.defs...)
	for i := range w.defs {
		w.defs[i].n = 300
	}
	if w.ctlEvery > 0 {
		w.ctlEvery = 3000
	}
	return w
}

func TestSmokeEveryWorkloadVerifies(t *testing.T) {
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			res, err := runEndToEnd(smoke(w), 1, 0.05, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("correct=%v failed=%d problems=%v", res.Correct, res.Failed, res.problems)
			}
			if len(res.Metrics) != len(endToEnd) {
				t.Fatalf("%d metrics, want %d", len(res.Metrics), len(endToEnd))
			}
			for name, m := range res.Metrics {
				if !(m.Value > 0) || math.IsInf(m.Value, 0) {
					t.Errorf("%s = %g: end-to-end metrics are never 0", name, m.Value)
				}
			}
			again, err := runEndToEnd(smoke(w), 1, 0.05, 1)
			if err != nil {
				t.Fatal(err)
			}
			if res.notes[0] != again.notes[0] ||
				res.Metrics["maint_msgs_per_kevent"] != again.Metrics["maint_msgs_per_kevent"] {
				t.Errorf("same seed, different prologue: %s / %s", res.notes[0], again.notes[0])
			}
		})
	}
}

func TestLedgerPartsSumToTheTotal(t *testing.T) {
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			res, err := runTraced(smoke(w), 1, 0.3, filepath.Join(t.TempDir(), "spans.json"))
			if err != nil {
				t.Fatal(err)
			}
			// Failed is not asserted: a paced phase this short (45 ms) misses
			// its 98 % rate whenever one sleep overshoots by a millisecond.
			if !res.Correct {
				t.Fatalf("problems=%v", res.problems)
			}
			v := func(name string) float64 {
				m, ok := res.Metrics[name]
				if !ok {
					t.Fatalf("metric %s missing", name)
				}
				return m.Value
			}
			parts := v("ledger.direct_host_ns_per_event") + v("runtime.share_ns_per_event") +
				v("wire.encode_ns_per_event") + v("wire.decode_ns_per_event") +
				v("netserve.transport_residual_ns_per_event") + v("runtime.shard_fanout_ns_per_event") +
				v("cluster.router_share_ns_per_event")
			total := v("ledger.total_cpu_ns_per_event")
			if total <= 0 || math.Abs(parts-total) > 0.1*total {
				t.Errorf("ledger parts sum to %g, total is %g", parts, total)
			}
			if len(res.Metrics) != len(perLayer) {
				t.Errorf("%d metrics, want %d", len(res.Metrics), len(perLayer))
			}
			if v("trace.spans") == 0 {
				t.Error("traced run stored no spans")
			}
		})
	}
}

func TestBenchmarkFileMatchesCode(t *testing.T) {
	spec, err := readBenchSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metricSpec, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the code %d", kind, len(got), len(want))
			return
		}
		for i, w := range want {
			g := got[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the code %+v", kind, i, g, w)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	ws := workloads()
	if len(spec.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(spec.Workloads), len(ws))
	}
	for i, w := range ws {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %q, the code %q", i, spec.Workloads[i].Name, w.name)
		}
	}
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

func TestCompareNeverCallsAWideSpreadUnchanged(t *testing.T) {
	m := metricSpec{Name: "events_per_s", Better: "higher", Bound: 0.05}
	tight := []float64{100, 101, 99, 100, 100}
	if line, ok := verdict(m, tight, []float64{100, 100, 101, 99, 100}); !ok {
		t.Errorf("equal tight sets: %s", line)
	}
	if line, ok := verdict(m, tight, []float64{90, 91, 89, 90, 90}); ok || !strings.HasPrefix(line, "FAIL") {
		t.Errorf("10%% slower: %s", line)
	}
	wide := []float64{80, 120, 100, 90, 110}
	if line, ok := verdict(m, tight, wide); ok || !strings.HasPrefix(line, "UNRESOLVED") {
		t.Errorf("same median, wide spread: %s", line)
	}
	if line, ok := verdict(m, tight, []float64{150, 190, 170, 160, 180}); !ok {
		t.Errorf("every run better despite the spread: %s", line)
	}
}

func TestCompareReadsResultSets(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.jsonl"), filepath.Join(dir, "b.jsonl")
	for i, path := range []string{a, a, a, b, b, b} {
		res := &result{Correct: true, Attempted: 10, Metrics: map[string]metric{}}
		for _, d := range endToEnd {
			res.Metrics[d.name] = metric{100 + float64(i%3), d.unit}
		}
		for _, w := range workloads() {
			if err := appendRecord(path, record{w.name, int64(i), 0, res}); err != nil {
				t.Fatal(err)
			}
		}
	}
	var out bytes.Buffer
	if err := compareSets(&out, filepath.Join("..", "BENCHMARK.json"), a, b); err != nil {
		t.Errorf("identical sets: %v\n%s", err, out.String())
	}
	bad := &result{Correct: false, Attempted: 10, Metrics: map[string]metric{}}
	if err := appendRecord(b, record{"wire-range", 9, 0, bad}); err != nil {
		t.Fatal(err)
	}
	if err := compareSets(&out, filepath.Join("..", "BENCHMARK.json"), a, b); err == nil {
		t.Error("a set holding an incorrect run passed")
	}
}
