package main

import "fmt"

// metricDef declares one metric the benchmark prints. BENCHMARK.json lists
// the same names, units and directions (plus the regression bounds of the
// end-to-end ones); TestBenchmarkFileMatchesCode keeps the two in step.
// benchmark/README.md defines each metric.
type metricDef struct {
	name, unit, better string
}

// endToEnd is what a user of the serving stack sees. Every workload
// reports every one of them, from the untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"events_per_s", "1/s", "higher"},
	{"cpu_ns_per_event", "ns", "lower"},
	{"maint_msgs_per_kevent", "1/kevent", "lower"},
	{"ack_rtt_p50_us", "us", "lower"},
	{"heap_mb", "MB", "lower"},
}

// perLayer is what the traced run and the cost ledger attribute to single
// layers (the prefix is the module). A metric that does not exist on a
// workload — the codec on an in-process surface, say — reads 0 there.
var perLayer = []metricDef{
	{"gen.late_p50_us", "us", "lower"},
	{"gen.late_p99_us", "us", "lower"},
	{"gen.achieved_share", "ratio", "higher"},

	{"client.ingest_call_ns_per_event", "ns", "lower"},
	{"client.flush_call_us_p50", "us", "lower"},
	{"client.sat_ack_p50_ms", "ms", "lower"},
	{"client.ack_rtt_p90_us", "us", "lower"},
	{"client.ack_rtt_p99_us", "us", "lower"},
	{"client.ack_rtt_p999_us", "us", "lower"},
	{"client.paced_ack_p50_ms", "ms", "lower"},
	{"client.paced_ack_p99_ms", "ms", "lower"},
	{"client.paced_ack_p999_ms", "ms", "lower"},
	{"client.drain_rtt_p50_us", "us", "lower"},
	{"client.report_ms", "ms", "lower"},
	{"client.acked_batches", "count", "higher"},
	{"client.shed_batches", "count", "lower"},
	{"client.lost_batches", "count", "lower"},

	{"wire.encode_ns_per_event", "ns", "lower"},
	{"wire.decode_ns_per_event", "ns", "lower"},
	{"wire.bytes_per_event", "B", "lower"},

	{"netserve.transport_residual_ns_per_event", "ns", "lower"},

	{"runtime.ingest_call_ns_per_event", "ns", "lower"},
	{"runtime.ack_rtt_p90_us", "us", "lower"},
	{"runtime.ack_rtt_p99_us", "us", "lower"},
	{"runtime.ack_rtt_p999_us", "us", "lower"},
	{"runtime.inproc_cpu_ns_per_event", "ns", "lower"},
	{"runtime.single_thread_events_per_s", "1/s", "higher"},
	{"runtime.share_ns_per_event", "ns", "lower"},
	{"runtime.shard_fanout_ns_per_event", "ns", "lower"},
	{"runtime.drain_call_ms_p50", "ms", "lower"},
	{"runtime.queue_depth_p50", "count", "lower"},
	{"runtime.queue_depth_max", "count", "lower"},
	{"runtime.events_per_applied_batch", "count", "higher"},
	{"runtime.shard_skew", "ratio", "lower"},
	{"runtime.report_ms", "ms", "lower"},
	{"runtime.snapshot_ms", "ms", "lower"},
	{"runtime.snapshot_bytes", "B", "lower"},
	{"runtime.restore_ms", "ms", "lower"},

	{"core.ft-nrp.deliver_ns_per_event", "ns", "lower"},
	{"core.ft-nrp.msgs_per_kevent", "1/kevent", "lower"},
	{"core.zt-nrp.deliver_ns_per_event", "ns", "lower"},
	{"core.zt-nrp.msgs_per_kevent", "1/kevent", "lower"},
	{"core.rtp.deliver_ns_per_event", "ns", "lower"},
	{"core.rtp.msgs_per_kevent", "1/kevent", "lower"},
	{"core.rtp.deploys_per_kevent", "1/kevent", "lower"},
	{"core.rtp.reinits", "count", "lower"},
	{"core.rtp-top.deliver_ns_per_event", "ns", "lower"},
	{"core.rtp-top.msgs_per_kevent", "1/kevent", "lower"},
	{"core.ft-rp.deliver_ns_per_event", "ns", "lower"},
	{"core.ft-rp.msgs_per_kevent", "1/kevent", "lower"},
	{"core.vb-knn.deliver_ns_per_event", "ns", "lower"},
	{"core.vb-knn.msgs_per_kevent", "1/kevent", "lower"},
	{"multidim.rtp2d.deliver_ns_per_event", "ns", "lower"},
	{"multidim.rtp2d.msgs_per_kevent", "1/kevent", "lower"},
	{"multidim.ft-rp2d.deliver_ns_per_event", "ns", "lower"},
	{"multidim.ft-rp2d.msgs_per_kevent", "1/kevent", "lower"},

	{"server.composite.deliver_ns_per_event", "ns", "lower"},
	{"server.composite.msgs_per_kevent", "1/kevent", "lower"},
	{"server.composite-rtp.deliver_ns_per_event", "ns", "lower"},

	{"cluster.ingest_call_ns_per_event", "ns", "lower"},
	{"cluster.ack_rtt_p90_us", "us", "lower"},
	{"cluster.ack_rtt_p99_us", "us", "lower"},
	{"cluster.ack_rtt_p999_us", "us", "lower"},
	{"cluster.router_share_ns_per_event", "ns", "lower"},
	{"cluster.migrate_p50_ms", "ms", "lower"},
	{"cluster.migrate_p99_ms", "ms", "lower"},
	{"cluster.export_bytes_p50", "B", "lower"},
	{"cluster.lifecycle_p50_ms", "ms", "lower"},
	{"cluster.addquery_p50_ms", "ms", "lower"},
	{"cluster.removequery_p50_ms", "ms", "lower"},
	{"cluster.member_event_skew", "ratio", "lower"},
	{"cluster.migrations", "count", "higher"},

	{"ledger.direct_host_ns_per_event", "ns", "lower"},
	{"ledger.total_cpu_ns_per_event", "ns", "lower"},

	{"process.sys_cpu_share", "ratio", "lower"},
	{"process.allocs_per_kevent", "1/kevent", "lower"},
	{"process.gc_cycles", "count", "lower"},
	{"process.peak_rss_mb", "MB", "lower"},
	{"process.host_slowdown", "ratio", "lower"},
	{"trace.overhead_share", "ratio", "lower"},
	{"trace.spans", "count", "higher"},
}

// named renders measured values as the declared metrics, in declaration
// order of defs: a declared metric nothing measured reads 0, a measured
// value nothing declares is a bug.
func named(defs []metricDef, values map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{values[d.name], d.unit}
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %q is measured but not declared", name)
		}
	}
	return out, nil
}
