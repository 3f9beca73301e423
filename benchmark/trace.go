package main

import (
	"fmt"
	goruntime "runtime"
	"sync"
	"time"

	"adaptivefilters/internal/runtime"
)

// pacedStats is what the open-loop phase measured.
type pacedStats struct {
	ackMs    []float64 // ack time minus due time, sorted
	lateUs   []float64 // send time minus due time (generator lateness), sorted
	achieved float64   // achieved ÷ offered rate
	grew     bool      // the backlog grew over the phase
}

// paced runs the open-loop phase on the wire surface: the workload's
// batches on a fixed schedule of pacedRate events/s, each timed from the instant it
// was due — not from when it was sent — so a stall is charged to every
// batch it delays. Pacing only ever sleeps (spinning a sender on a 2-core
// box starves the server); after a late wake-up the overdue batches go out
// back to back.
func (d *driver) paced(budget time.Duration) (pacedStats, error) {
	ws := d.wire
	period := time.Duration(float64(d.w.batch) / pacedRate * float64(time.Second))
	n := int(budget / period)
	var ps pacedStats
	ph := d.tr.open("phase:paced", -1)
	start, last, i := time.Now(), time.Now(), 0
	err := d.play(uint64(n)*uint64(d.w.batch), d.w.batch, ph, func(b []runtime.Event) error {
		if i >= n { // a batch split by the end of a pass makes one submit more
			return ws.ingest(b)
		}
		due := start.Add(time.Duration(i) * period)
		now := time.Now()
		if now.Before(due) {
			if err := ws.cl.Flush(); err != nil {
				return err
			}
			time.Sleep(due.Sub(now))
			now = time.Now()
		}
		ps.lateUs = append(ps.lateUs, float64(now.Sub(due))/1e3)
		i, last = i+1, now
		return ws.send(b, int64(due.Sub(ws.epoch)))
	})
	if err != nil {
		return ps, err
	}
	if err := d.barrier(ph); err != nil {
		return ps, err
	}
	d.tr.close(ph)
	lat := ws.lat[:n]
	third := n / 3
	ps.grew = median(lat[n-third:]) > 2*median(lat[:third])+1e6
	for _, ns := range lat {
		ps.ackMs = append(ps.ackMs, ns/1e6)
	}
	ps.ackMs, ps.lateUs = sorted(ps.ackMs), sorted(ps.lateUs)
	d.dropLatencies()
	ps.achieved = float64(time.Duration(n-1)*period) / float64(last.Sub(start))
	d.attempted++
	if ps.achieved < 0.98 || ps.grew {
		d.failed++
	}
	return ps, nil
}

// sampleQueues polls every node's deepest shard queue each 10 ms until
// stop is called, which returns the samples.
func sampleQueues(nodes []*runtime.Node) (stop func() []float64) {
	var (
		depths []float64
		done   = make(chan struct{})
		wg     sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				deepest := 0
				for _, n := range nodes {
					for _, s := range n.ShardStats() {
						deepest = max(deepest, s.Queued)
					}
				}
				depths = append(depths, float64(deepest))
			}
		}
	}()
	return func() []float64 {
		close(done)
		wg.Wait()
		return depths
	}
}

// applied returns every shard's applied-batch count, members concatenated.
func applied(nodes []*runtime.Node) []float64 {
	var a []float64
	for _, n := range nodes {
		for _, s := range n.ShardStats() {
			a = append(a, float64(s.Applied))
		}
	}
	return a
}

// skew is the largest value over the mean (1 = perfectly even).
func skew(xs []float64) float64 {
	var sum, top float64
	for _, x := range xs {
		sum += x
		top = max(top, x)
	}
	if sum == 0 {
		return 0
	}
	return top / (sum / float64(len(xs)))
}

// runTraced repeats the workload with driver-side spans around every call
// and then runs the cost ledger. Its metrics are the per-layer ones; the
// end-to-end numbers of a traced run are never reported.
func runTraced(w workload, seed int64, seconds float64, traceOut string) (*result, error) {
	budget := time.Duration(seconds * float64(time.Second))
	d, err := setUp(w, seed)
	if err != nil {
		return nil, err
	}
	defer d.st.close()
	m := make(map[string]float64)
	surfaceName := [...]string{surfaceWire: "client", surfaceNode: "runtime", surfaceCluster: "cluster"}[w.surface]

	// The same saturation phase untraced, then traced: the difference in
	// CPU per event is what the spans cost.
	plain, err := d.saturate(budget*20/100, 3)
	if err != nil {
		return nil, fmt.Errorf("untraced saturation: %w", err)
	}
	d.tr = newTracer()
	if d.wire != nil {
		d.wire.timeFlush = true
	}
	var ms0, ms1 goruntime.MemStats
	goruntime.ReadMemStats(&ms0)
	applied0 := applied(d.st.nodes())
	stopSampler := sampleQueues(d.st.nodes())
	sat, err := d.saturate(budget*20/100, 3)
	depths := sorted(stopSampler())
	if err != nil {
		return nil, fmt.Errorf("traced saturation: %w", err)
	}
	goruntime.ReadMemStats(&ms1)
	applied1 := applied(d.st.nodes())
	var batchesApplied float64
	for i := range applied1 {
		applied1[i] -= applied0[i]
		batchesApplied += applied1[i]
	}
	// The ledger prices the untraced run: that is the cost users pay.
	total := plain.rawCPUNsPerEvent()
	m["trace.overhead_share"] = sat.cpuNsPerEvent()/plain.cpuNsPerEvent() - 1
	m["process.host_slowdown"] = sat.hostSlowdown()
	m["process.sys_cpu_share"] = float64(sat.cpu.sys) / float64(sat.cpu.total())
	m["process.allocs_per_kevent"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(sat.events()) * 1e3
	m[surfaceName+".ingest_call_ns_per_event"] = float64(d.tr.kind("ingest_call").sum) / float64(sat.events())
	m["runtime.drain_call_ms_p50"] = median(d.tr.kind("barrier_call").durs) / 1e6
	m["runtime.queue_depth_p50"] = percentile(depths, 50)
	m["runtime.queue_depth_max"] = percentile(depths, 100)
	m["runtime.events_per_applied_batch"] = float64(sat.events()) / batchesApplied
	m["runtime.shard_skew"] = skew(applied1)
	m["client.sat_ack_p50_ms"] = median(d.tr.kind("batch_ack").durs) / 1e6

	rounds, err := d.roundTrips(budget / 10)
	if err != nil {
		return nil, fmt.Errorf("round trips: %w", err)
	}
	rs := sorted(allTrips(rounds))
	m[surfaceName+".ack_rtt_p90_us"] = percentile(rs, 90)
	m[surfaceName+".ack_rtt_p99_us"] = percentile(rs, 99)
	m[surfaceName+".ack_rtt_p999_us"] = percentile(rs, 99.9)

	if d.wire != nil {
		m["client.flush_call_us_p50"] = median(d.wire.flushUs)
		ps, err := d.paced(budget * 15 / 100)
		if err != nil {
			return nil, fmt.Errorf("paced phase: %w", err)
		}
		m["gen.late_p50_us"] = percentile(ps.lateUs, 50)
		m["gen.late_p99_us"] = percentile(ps.lateUs, 99)
		m["gen.achieved_share"] = ps.achieved
		m["client.paced_ack_p50_ms"] = percentile(ps.ackMs, 50)
		m["client.paced_ack_p99_ms"] = percentile(ps.ackMs, 99)
		m["client.paced_ack_p999_ms"] = percentile(ps.ackMs, 99.9)
		var drains []float64
		for i := 0; i < 200; i++ {
			t0 := time.Now()
			if err := d.barrier(-1); err != nil {
				return nil, err
			}
			drains = append(drains, float64(time.Since(t0))/1e3)
		}
		m["client.drain_rtt_p50_us"] = median(drains)
	}
	if d.ctl != nil {
		m["cluster.migrate_p50_ms"] = median(d.ctl.migrateMs)
		m["cluster.migrate_p99_ms"] = percentile(sorted(d.ctl.migrateMs), 99)
		m["cluster.addquery_p50_ms"] = median(d.ctl.addMs)
		m["cluster.removequery_p50_ms"] = median(d.ctl.removeMs)
		pairs := make([]float64, len(d.ctl.addMs))
		for i := range pairs {
			pairs[i] = d.ctl.addMs[i] + d.ctl.removeMs[i]
		}
		m["cluster.lifecycle_p50_ms"] = median(pairs)
		m["cluster.migrations"] = float64(d.ctl.rounds)
		stats, err := d.ctl.clu.MemberStats()
		if err != nil {
			return nil, err
		}
		var evs []float64
		for _, s := range stats {
			evs = append(evs, float64(s.TotalEvents))
		}
		m["cluster.member_event_skew"] = skew(evs)
	}

	t0 := time.Now()
	problems, err := d.finish()
	if err != nil {
		return nil, fmt.Errorf("final checks: %w", err)
	}
	if d.wire != nil {
		// finish fetched the report over the wire (and audited it too).
		m["client.report_ms"] = time.Since(t0).Seconds() * 1e3
		cs := d.wire.cl.Stats()
		m["client.acked_batches"] = float64(cs.Acked)
		m["client.shed_batches"] = float64(cs.Shed)
		m["client.lost_batches"] = float64(cs.Lost)
	}

	l, err := runLedger(w, d.in, budget*35/100)
	if err != nil {
		return nil, err
	}
	for kind, row := range l.kinds {
		layer := "core."
		switch kind {
		case "rtp2d", "ft-rp2d":
			layer = "multidim."
		case "composite":
			layer = "server."
		}
		m[layer+kind+".deliver_ns_per_event"] = row.nsPerEvent()
		m[layer+kind+".msgs_per_kevent"] = row.msgsPerKevent()
	}
	if l.rtpEvents > 0 {
		m["core.rtp.deploys_per_kevent"] = float64(l.rtpDeploys) / float64(l.rtpEvents) * 1e3
		m["core.rtp.reinits"] = float64(l.rtpReinits)
	}
	m["server.composite-rtp.deliver_ns_per_event"] = l.compositeRTP.nsPerEvent()
	inproc, codec := l.inproc.nsPerEvent(), l.encode.nsPerEvent()+l.decode.nsPerEvent()
	m["runtime.inproc_cpu_ns_per_event"] = inproc
	m["runtime.single_thread_events_per_s"] = float64(l.inproc.events) / l.inproc.wall.Seconds()
	m["runtime.share_ns_per_event"] = inproc - l.direct.nsPerEvent()
	if w.surface != surfaceNode {
		m["runtime.ingest_call_ns_per_event"] = l.inprocIngestNs
	}
	m["runtime.report_ms"] = l.reportMs
	m["runtime.snapshot_ms"] = l.snapshotMs
	m["runtime.snapshot_bytes"] = l.snapshotBytes
	m["runtime.restore_ms"] = l.restoreMs
	m["cluster.export_bytes_p50"] = l.exportBytesP50
	m["wire.encode_ns_per_event"] = l.encode.nsPerEvent()
	m["wire.decode_ns_per_event"] = l.decode.nsPerEvent()
	m["wire.bytes_per_event"] = l.bytesPerEvent
	residual := [...]string{
		surfaceWire:    "netserve.transport_residual_ns_per_event",
		surfaceNode:    "runtime.shard_fanout_ns_per_event",
		surfaceCluster: "cluster.router_share_ns_per_event",
	}[w.surface]
	m[residual] = total - inproc - codec
	m["ledger.direct_host_ns_per_event"] = l.direct.nsPerEvent()
	m["ledger.total_cpu_ns_per_event"] = total

	_, rss := rusage()
	goruntime.ReadMemStats(&ms1)
	m["process.gc_cycles"] = float64(ms1.NumGC)
	m["process.peak_rss_mb"] = float64(rss) / (1 << 20)
	m["trace.spans"] = float64(len(d.tr.spans))
	if traceOut != "" {
		if err := d.tr.writeJSON(traceOut); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
	}

	metrics, err := named(perLayer, m)
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
			fmt.Sprintf("ledger (CPU ns/event): direct host %.1f + runtime share %.1f + codec %.1f + %s %.1f = %.1f",
				l.direct.nsPerEvent(), inproc-l.direct.nsPerEvent(), codec, residual, total-inproc-codec, total),
		},
	}, nil
}
