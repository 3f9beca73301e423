package main

import (
	"errors"
	"fmt"
	"hash/crc32"
	goruntime "runtime"
	"time"

	"adaptivefilters/internal/runtime"
)

// driver plays a workload's inputs through its stack and keeps the books
// the final checks need: how far into the event sequence the stack is, how
// many operations were attempted, and how many failed.
type driver struct {
	w  workload
	in *inputs
	st stack
	tr *tracer // nil in the untraced run
	// ctl is st when it is a cluster (play runs its control rounds) and wire
	// is st when it is the wire surface (whose ack latencies are collected).
	ctl  *clusterStack
	wire *wireStack

	pos     uint64 // events submitted: the position in the event sequence
	nextCtl uint64 // position at which the next control round is due
	batches uint64 // batch sequence number (spans of one batch share it)

	attempted uint64
	failed    uint64

	prologue setupInfo
}

// setupInfo is what one set-up establishes before anything is timed.
type setupInfo struct {
	took      time.Duration // as measured
	scaled    float64       // seconds at the reference host speed
	reportCRC uint32
	heapBase  uint64 // HeapInuse with the inputs generated and nothing built
}

// stopwatch times a set-up lap by lap, scaling each lap by the host
// slowdown probed around it (the probes themselves are not timed).
type stopwatch struct {
	last   time.Time
	probed float64
	raw    time.Duration
	scaled float64
}

func startWatch() *stopwatch { return &stopwatch{probed: probe(), last: time.Now()} }

func (s *stopwatch) lap() {
	d := time.Since(s.last)
	p := probe()
	s.raw += d
	s.scaled += d.Seconds() / slowdown(s.probed, p)
	s.probed, s.last = p, time.Now()
}

// play submits the next n events in batches of up to `batch`, running the
// workload's control rounds where they fall due.
func (d *driver) play(n uint64, batch int, parent int32, submit func([]runtime.Event) error) error {
	for end := d.pos + n; d.pos < end; {
		b := d.in.next(d.pos, int(min(uint64(batch), end-d.pos)))
		d.batches++
		d.attempted++
		if err := submit(b); err != nil {
			return err
		}
		d.pos += uint64(len(b))
		if d.w.ctlEvery > 0 && d.pos >= d.nextCtl {
			d.nextCtl += d.w.ctlEvery
			d.attempted += 3
			if err := d.ctl.control(d.tr, parent); err != nil {
				return err
			}
		}
	}
	return nil
}

// ingest is the pipelined submit; under tracing every call is a span.
func (d *driver) ingest(parent int32) func([]runtime.Event) error {
	if d.tr == nil {
		return d.st.ingest
	}
	k := d.tr.kind("ingest_call")
	return func(b []runtime.Event) error {
		t0 := time.Now()
		err := d.st.ingest(b)
		d.tr.add(k, t0, time.Since(t0), parent, d.batches)
		return err
	}
}

// barrier is the traced barrier call.
func (d *driver) barrier(parent int32) error {
	d.attempted++
	t0 := time.Now()
	err := d.st.barrier()
	d.tr.add(d.tr.kind("barrier_call"), t0, time.Since(t0), parent, d.batches)
	return err
}

// dropLatencies forgets the wire surface's collected ack latencies. Only
// call it right after a barrier, when the reader goroutine is idle.
func (d *driver) dropLatencies() {
	if d.wire != nil {
		d.wire.lat, d.wire.sent = d.wire.lat[:0], d.wire.sent[:0]
	}
}

// setUp generates the inputs, builds the stack and runs the verification
// prologue: the first w.prologue events go through the full stack and
// through a fresh one-shard, single-caller reference node, and the two
// reports must render byte-identically. The stack is left warm.
func setUp(w workload, seed int64) (*driver, error) {
	watch := startWatch()
	in := generate(w.defs, seed, w.pool)
	heapBase := heapInUse()
	watch.lap()
	st, err := buildStack(w, in)
	if err != nil {
		return nil, fmt.Errorf("build stack: %w", err)
	}
	d := &driver{w: w, in: in, st: st, nextCtl: w.ctlEvery}
	d.ctl, _ = st.(*clusterStack)
	d.wire, _ = st.(*wireStack)
	d.prologue.heapBase = heapBase
	fail := func(err error) (*driver, error) {
		st.close()
		return nil, err
	}
	if err := d.play(w.prologue, w.batch, -1, d.st.ingest); err != nil {
		return fail(fmt.Errorf("prologue: %w", err))
	}
	if err := d.barrier(-1); err != nil {
		return fail(fmt.Errorf("prologue barrier: %w", err))
	}
	d.dropLatencies()
	got, err := st.report()
	if err != nil {
		return fail(fmt.Errorf("prologue report: %w", err))
	}
	watch.lap()
	want, err := referenceReport(w, in)
	if err != nil {
		return fail(fmt.Errorf("reference node: %w", err))
	}
	if got.Text() != want.Text() {
		return fail(errors.New("prologue: full-stack report differs from the one-shard reference node's"))
	}
	d.prologue.reportCRC = crc32.ChecksumIEEE([]byte(got.Text()))
	watch.lap()
	d.prologue.took, d.prologue.scaled = watch.raw, watch.scaled
	return d, nil
}

// referenceReport plays the prologue through a fresh one-shard node fed by
// Node.Ingest alone, with the same query admissions and evictions at the
// same event counts as the full stack's control rounds (a migration has no
// single-node counterpart: it must not change any answer).
func referenceReport(w workload, in *inputs) (*runtime.Report, error) {
	ref, err := buildNode(1, in)
	if err != nil {
		return nil, err
	}
	defer ref.close()
	var comp []int
	for t, d := range in.defs {
		if d.composite() {
			comp = append(comp, t)
		}
	}
	qspec, err := churnQuery.Spec.Factory()
	if err != nil {
		return nil, err
	}
	nextCtl, rounds := w.ctlEvery, 0
	for pos := uint64(0); pos < w.prologue; {
		b := in.next(pos, int(min(uint64(w.batch), w.prologue-pos)))
		if err := ref.node.Ingest(b); err != nil {
			return nil, err
		}
		pos += uint64(len(b))
		if w.ctlEvery > 0 && pos >= nextCtl {
			nextCtl += w.ctlEvery
			ct := comp[rounds%len(comp)]
			qi, err := ref.node.AddQuery(ct, runtime.QuerySpec{Name: churnQuery.Name, NewProtocol: qspec})
			if err != nil {
				return nil, err
			}
			if err := ref.node.RemoveQuery(ct, qi); err != nil {
				return nil, err
			}
			rounds++
		}
	}
	if err := ref.node.Drain(); err != nil {
		return nil, err
	}
	return ref.node.Report(), nil
}

// segment is one equal-count slice of the saturation phase.
type segment struct {
	wall time.Duration
	cpu  time.Duration
	slow float64 // host slowdown probed around the segment (hostspeed.go)
}

// satStats is what a saturation phase measured.
type satStats struct {
	segEvents uint64
	segs      []segment
	cpu       cpuTimes // over all segments
	// maintPerKev is the maintenance messages per 1000 events from the
	// node's own counters at the minSegs-th segment boundary: a fixed event
	// count, so the figure is exact per seed however fast the run goes.
	maintPerKev float64
	// heap is the live heap (HeapInuse after a forced collection) at the same
	// boundary: how long a run lasts does not move it.
	heap uint64
}

func (s satStats) events() uint64 { return s.segEvents * uint64(len(s.segs)) }

// perSegment maps every segment to a figure.
func (s satStats) perSegment(f func(segment) float64) []float64 {
	r := make([]float64, len(s.segs))
	for i, g := range s.segs {
		r[i] = f(g)
	}
	return r
}

// rates returns every segment's events per wall second, as measured.
func (s satStats) rates() []float64 {
	return s.perSegment(func(g segment) float64 { return float64(s.segEvents) / g.wall.Seconds() })
}

// eventsPerSec is the median segment's rate at the reference host speed:
// each segment's rate times the slowdown the host showed around it.
func (s satStats) eventsPerSec() float64 {
	return median(s.perSegment(func(g segment) float64 { return float64(s.segEvents) / g.wall.Seconds() * g.slow }))
}

// cpuNsPerEvent is the median segment's process CPU per event at the
// reference host speed.
func (s satStats) cpuNsPerEvent() float64 {
	return median(s.perSegment(func(g segment) float64 { return float64(g.cpu) / float64(s.segEvents) / g.slow }))
}

// rawCPUNsPerEvent is the median segment's process CPU per event as
// measured; the ledger, whose replays are not scaled, prices against it.
func (s satStats) rawCPUNsPerEvent() float64 {
	return median(s.perSegment(func(g segment) float64 { return float64(g.cpu) / float64(s.segEvents) }))
}

// hostSlowdown is the median slowdown over the phase's segments.
func (s satStats) hostSlowdown() float64 {
	return median(s.perSegment(func(g segment) float64 { return g.slow }))
}

// saturate runs equal-count segments closed-loop on the pipelined path —
// one sender, as fast as the surface admits — until budget is spent, and
// at least minSegs of them. Each segment ends with a barrier, and the host
// is probed on the quiet stack between segments.
func (d *driver) saturate(budget time.Duration, minSegs int) (satStats, error) {
	s := satStats{segEvents: d.w.segment}
	ph := d.tr.open("phase:saturation", -1)
	probed := probe()
	start := time.Now()
	for len(s.segs) < minSegs || time.Since(start) < budget {
		seg := d.tr.open("segment", ph)
		t0, c0, batch0 := time.Now(), cpuNow(), d.batches
		if err := d.play(d.w.segment, d.w.batch, seg, d.ingest(seg)); err != nil {
			return s, err
		}
		if err := d.barrier(seg); err != nil {
			return s, err
		}
		wall, cpu := time.Since(t0), cpuNow().sub(c0)
		g := segment{wall: wall, cpu: cpu.total()}
		s.cpu.user, s.cpu.sys = s.cpu.user+cpu.user, s.cpu.sys+cpu.sys
		d.tr.close(seg)
		after := probe()
		g.slow, probed = slowdown(probed, after), after
		s.segs = append(s.segs, g)
		if d.tr != nil && d.wire != nil {
			// Acks return in request order: sample i is batch batch0+1+i.
			k := d.tr.kind("batch_ack")
			for i, ns := range d.wire.lat {
				d.tr.add(k, d.wire.epoch.Add(time.Duration(d.wire.sent[i])), time.Duration(ns), seg, batch0+1+uint64(i))
			}
		}
		d.dropLatencies()
		if len(s.segs) == minSegs {
			rep, err := d.st.report()
			if err != nil {
				return s, err
			}
			s.maintPerKev = float64(rep.Totals.Maintenance()) / float64(d.pos) * 1e3
			s.heap = heapInUse()
			probed = probe()
		}
	}
	d.tr.close(ph)
	return s, nil
}

// rttChunk is how many consecutive round trips share one percentile and
// one pair of host probes. The reported percentile is the interquartile mean
// over chunks: a burst of outside interference moves a few chunks and not
// the figure, and when the scheduler drifts between a fast and a slow
// wake-up path for stretches of a run (it does: 11 µs and 16 µs chunks
// alternate on the wire) the figure follows the mix instead of flipping
// between the two.
const rttChunk = 1000

// rttRound is one chunk of the rtt phase.
type rttRound struct {
	us   []float64 // round-trip times in µs, in order
	slow float64   // host slowdown probed around the chunk
}

// chunkedPercentile returns the interquartile mean over chunks of the p-th
// percentile within each chunk: at the reference host speed when scaled is
// set, as measured otherwise.
func chunkedPercentile(rounds []rttRound, p float64, scaled bool) float64 {
	per := make([]float64, len(rounds))
	for i, r := range rounds {
		per[i] = percentile(sorted(r.us), p)
		if scaled {
			per[i] /= r.slow
		}
	}
	return midMean(per)
}

// allTrips returns every round trip of the phase in order, as measured.
func allTrips(rounds []rttRound) []float64 {
	var all []float64
	for _, r := range rounds {
		all = append(all, r.us...)
	}
	return all
}

// roundTrips runs the closed-loop, window-1 phase for budget: each batch
// is submitted only after the previous one's proof of acceptance. The host
// is probed between chunks.
func (d *driver) roundTrips(budget time.Duration) ([]rttRound, error) {
	var rounds []rttRound
	ph := d.tr.open("phase:rtt", -1)
	k := d.tr.kind("round_trip")
	probed := probe()
	for deadline := time.Now().Add(budget); time.Now().Before(deadline); {
		var r rttRound
		err := d.play(rttChunk*uint64(d.w.batch), d.w.batch, ph, func(b []runtime.Event) error {
			t0 := time.Now()
			rtt, err := d.st.roundTrip(b)
			d.tr.add(k, t0, rtt, ph, d.batches)
			r.us = append(r.us, float64(rtt)/1e3)
			return err
		})
		if err != nil {
			return nil, err
		}
		after := probe()
		r.slow, probed = slowdown(probed, after), after
		rounds = append(rounds, r)
	}
	err := d.barrier(ph)
	d.tr.close(ph)
	d.dropLatencies() // the same samples rounds already holds
	return rounds, err
}

// finish runs the end-of-run checks on the quiesced stack: every tenant
// applied exactly the events sent to it, and every answer is within its
// query's tolerance of the ground truth. It returns the problems found.
func (d *driver) finish() ([]string, error) {
	rep, err := d.st.report()
	if err != nil {
		return nil, err
	}
	problems := audit(d.in, d.pos, rep)
	if ws := d.wire; ws != nil {
		d.failed += ws.badAck.Load() + ws.missed
		if cs := ws.cl.Stats(); cs.Shed+cs.Lost > 0 {
			problems = append(problems, fmt.Sprintf("client counted %d shed and %d lost batches", cs.Shed, cs.Lost))
		}
	}
	return problems, nil
}

// heapInUse forces a collection and returns the live heap in bytes.
func heapInUse() uint64 {
	var ms goruntime.MemStats
	goruntime.GC()
	goruntime.ReadMemStats(&ms)
	return ms.HeapInuse
}

// minSegments is the fewest saturation segments a run reports a median
// over.
const minSegments = 20

// runEndToEnd is the untraced run: set up `setups` times (keeping the
// last), saturate, run round trips, check. Its metrics are the end-to-end
// ones.
func runEndToEnd(w workload, seed int64, seconds float64, setups int) (*result, error) {
	var d *driver
	var setupSecs, rawSetupSecs []float64
	for i := 0; i < setups; i++ {
		if d != nil {
			d.st.close()
		}
		var err error
		if d, err = setUp(w, seed); err != nil {
			return nil, err
		}
		setupSecs = append(setupSecs, d.prologue.scaled)
		rawSetupSecs = append(rawSetupSecs, d.prologue.took.Seconds())
	}
	defer d.st.close()
	budget := time.Duration(seconds * float64(time.Second))
	sat, err := d.saturate(budget*7/10, minSegments)
	if err != nil {
		return nil, fmt.Errorf("saturation: %w", err)
	}
	rounds, err := d.roundTrips(budget * 3 / 10)
	if err != nil {
		return nil, fmt.Errorf("round trips: %w", err)
	}
	problems, err := d.finish()
	if err != nil {
		return nil, fmt.Errorf("final checks: %w", err)
	}
	metrics, err := named(endToEnd, map[string]float64{
		"setup_s":               median(setupSecs),
		"events_per_s":          sat.eventsPerSec(),
		"cpu_ns_per_event":      sat.cpuNsPerEvent(),
		"maint_msgs_per_kevent": sat.maintPerKev,
		"ack_rtt_p50_us":        chunkedPercentile(rounds, 50, true),
		"heap_mb":               float64(sat.heap-min(sat.heap, d.prologue.heapBase)) / (1 << 20),
	})
	if err != nil {
		return nil, err
	}
	return &result{
		Correct:   len(problems) == 0,
		Attempted: d.attempted,
		Failed:    d.failed,
		Metrics:   metrics,
		problems:  problems,
		notes: []string{
			fmt.Sprintf("report_crc32=%08x", d.prologue.reportCRC),
			fmt.Sprintf("saturation: %d segments of %d events, rates as measured %.4g", len(sat.segs), sat.segEvents, sorted(sat.rates())),
			fmt.Sprintf("round trips: %d chunks of %d", len(rounds), rttChunk),
			fmt.Sprintf("as measured, before scaling to the reference host speed (host slowdown %.3f): setup_s=%.4g events_per_s=%.5g cpu_ns_per_event=%.4g ack_rtt_p50_us=%.4g",
				sat.hostSlowdown(), median(rawSetupSecs), median(sat.rates()), sat.rawCPUNsPerEvent(), chunkedPercentile(rounds, 50, false)),
		},
	}, nil
}
