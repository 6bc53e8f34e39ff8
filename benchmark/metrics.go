package main

import "fmt"

// metricSpec describes one metric as BENCHMARK.json lists it.
type metricSpec struct {
	name, unit string
	higher     bool    // higher is better
	bound      float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd is the table of end-to-end metrics: what a -trace 0 run prints on
// its last line, what BENCHMARK.json lists, and what the A/A mode gates on.
var endToEnd = []metricSpec{
	{"goodput_ops_s", "1/s", true, 0.25},
	{"round_p50_us", "us", false, 0.25},
	{"cpu_ms_per_kop", "ms/kop", false, 0.25},
	{"setup_s", "s", false, 0.25},
}

// perLayer is the table of per-layer metrics: what a -trace 1 run prints on
// its last line, in this order. "higher" only records which direction an
// optimisation would move the number; none of these is gated.
var perLayer = []metricSpec{
	// Ladder: each layer's public functions called directly (ladder.go).
	{name: "transferable.marshal_ns", unit: "ns"},
	{name: "transferable.unmarshal_ns", unit: "ns"},
	{name: "pool.getput_ns", unit: "ns"},
	{name: "wire.request_codec_ns", unit: "ns"},
	{name: "wire.response_codec_ns", unit: "ns"},
	{name: "wire.batch_codec_ns_per_entry", unit: "ns"},
	{name: "transport.tcp_rtt_us", unit: "us"},
	{name: "transport.mux_rtt_us", unit: "us"},
	{name: "rpc.call_rtt_us", unit: "us"},
	{name: "rpc.call_pipelined_us", unit: "us"},
	{name: "folder.store_round_ns", unit: "ns"},
	{name: "folder.handle_round_us", unit: "us"},
	{name: "folder.park_wake_us", unit: "us"},
	{name: "durable.append_commit_us", unit: "us"},
	{name: "durable.group_commit_us_per_rec", unit: "us"},
	{name: "durable.fsync_device_us", unit: "us"},
	{name: "durable.replay_us_per_krec", unit: "us"},
	{name: "folder.handle_durable_round_us", unit: "us"},
	{name: "memoserver.dispatch_local_us", unit: "us"},
	{name: "memoserver.dispatch_forward_us", unit: "us"},
	{name: "memoserver.client_round_us", unit: "us"},
	{name: "core.solo_round_us", unit: "us"},
	{name: "ladder.sum_us", unit: "us"},
	{name: "ladder.gap_us", unit: "us"},
	// Traced workload run: client-side spans (workload.go, trace.go).
	{name: "client.marshal_ns", unit: "ns"},
	{name: "client.place_ns", unit: "ns"},
	{name: "client.do_us", unit: "us"},
	{name: "client.unmarshal_ns", unit: "ns"},
	{name: "trace.overhead_pct", unit: "%"},
	// Counts at the boundaries over the traced window (counts.go).
	{name: "rpc.frames_per_op", unit: "count"},
	{name: "rpc.batch_entries_mean", unit: "count", higher: true},
	{name: "rpc.server_requests_per_op", unit: "count"},
	{name: "durable.appends_per_op", unit: "count"},
	{name: "durable.fsyncs_per_op", unit: "count"},
	{name: "durable.commit_batch_mean", unit: "count", higher: true},
	{name: "durable.fsync_mean_us", unit: "us"},
	{name: "durable.snapshots", unit: "count"},
	{name: "durable.snapshot_mean_ms", unit: "ms"},
	{name: "pool.miss_ratio", unit: "ratio"},
	{name: "pool.oversize_per_kop", unit: "count"},
	{name: "folder.dup_puts", unit: "count"},
	{name: "folder.dup_takes", unit: "count"},
	{name: "folder.waiters_mid", unit: "count"},
	{name: "memoserver.forwards_per_op", unit: "count"},
	{name: "memoserver.link_faults", unit: "count"},
	{name: "client.retries", unit: "count"},
	{name: "daemon.cpu_user_ms_per_kop", unit: "ms/kop"},
	{name: "daemon.cpu_sys_ms_per_kop", unit: "ms/kop"},
	{name: "daemon.ctx_switches_per_op", unit: "count"},
	{name: "daemon.rss_peak_mb", unit: "MB"},
	{name: "loadgen.cpu_ms_per_kop", unit: "ms/kop"},
	// Context every run prints (run.go).
	{name: "loadgen.round_p99_us", unit: "us"},
	{name: "loadgen.slice_spread_pct", unit: "%"},
	{name: "setup.boot_ms", unit: "ms"},
	{name: "setup.preload_ms", unit: "ms"},
	{name: "setup.restart_replay_ms", unit: "ms"},
	{name: "host.spin_ms", unit: "ms"},
	{name: "host.echo_rtt_us", unit: "us"},
	{name: "host.idle_echo_rtt_us", unit: "us"},
}

// checkAgainst reports how a run's metrics differ from the table they are
// supposed to follow: a missing name, an extra one, or another unit. A
// benchmark whose output drifts from its declaration would be silently
// ignored by whoever reads it by name.
func checkAgainst(table []metricSpec, got []metric) []string {
	var problems []string
	have := map[string]string{}
	for _, m := range got {
		have[m.Name] = m.Unit
	}
	for _, spec := range table {
		unit, ok := have[spec.name]
		switch {
		case !ok:
			problems = append(problems, fmt.Sprintf("metric %s was not measured", spec.name))
		case unit != spec.unit:
			problems = append(problems, fmt.Sprintf("metric %s has unit %q, declared %q", spec.name, unit, spec.unit))
		}
		delete(have, spec.name)
	}
	for name := range have {
		problems = append(problems, fmt.Sprintf("metric %s is not declared", name))
	}
	return problems
}
