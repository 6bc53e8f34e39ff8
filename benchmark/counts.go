package main

import (
	"os"
	"sync"
	"time"
)

// boundaryCounts holds the counts taken at the layer boundaries over the
// traced window: the daemons' own /metrics counters and what /proc says the
// processes used, read when the window opens and when it closes. Ratios are
// formed from the deltas, so they describe the window and nothing else.
type boundaryCounts struct {
	c       *cluster
	callers []*caller

	before, after         metricSet
	procBefore, procAfter procSample // both daemons summed
	selfBefore, selfAfter procSample

	mid        sync.WaitGroup
	waitersMid float64
	midErr     error
}

func (b *boundaryCounts) read() (metricSet, procSample, procSample, error) {
	sum, err := b.c.scrapeAll()
	if err != nil {
		return nil, procSample{}, procSample{}, err
	}
	var daemons procSample
	for _, d := range b.c.nodes {
		p, err := procFull(d.pid())
		if err != nil {
			return nil, procSample{}, procSample{}, err
		}
		daemons.userMS += p.userMS
		daemons.sysMS += p.sysMS
		daemons.ctxSwitches += p.ctxSwitches
		daemons.rssPeakMB = max(daemons.rssPeakMB, p.rssPeakMB)
	}
	self, err := procFull(os.Getpid())
	return sum, daemons, self, err
}

func (b *boundaryCounts) open() (err error) {
	b.before, b.procBefore, b.selfBefore, err = b.read()
	return err
}

func (b *boundaryCounts) close() (err error) {
	b.mid.Wait()
	if b.midErr != nil {
		return b.midErr
	}
	b.after, b.procAfter, b.selfAfter, err = b.read()
	return err
}

// sampleMid reads folder_waiters in the middle of the window: the number of
// Gets parked at that instant, which is what proves the park path ran.
func (b *boundaryCounts) sampleMid(at time.Time) {
	b.mid.Add(1)
	go func() {
		defer b.mid.Done()
		time.Sleep(time.Until(at))
		sum, err := b.c.scrapeAll()
		if err != nil {
			b.midErr = err
			return
		}
		b.waitersMid = sum["folder_waiters"]
	}()
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// metrics turns the deltas into per-op figures. ops is the number of
// verified operations the traced window completed; final is the scrape
// taken after the drain, for the whole-run duplicate counters.
func (b *boundaryCounts) metrics(ops int, final metricSet) []metric {
	if b.before == nil || b.after == nil {
		return nil
	}
	d := b.after.delta(b.before)
	n := float64(ops)
	kop := n / 1000
	var retries float64
	seen := map[any]bool{}
	for _, cl := range b.callers {
		if !seen[cl.client] {
			seen[cl.client] = true
			retries += float64(cl.client.Stats().Retried)
		}
	}
	return []metric{
		{"rpc.frames_per_op", "count", ratio(d["rpc_frames_total"], n)},
		{"rpc.batch_entries_mean", "count", ratio(d["rpc_batch_entries_sum"], d["rpc_batch_entries_count"])},
		{"rpc.server_requests_per_op", "count", ratio(d["rpc_server_requests_total"], n)},
		{"durable.appends_per_op", "count", ratio(d["durable_appends_total"], n)},
		{"durable.fsyncs_per_op", "count", ratio(d["durable_fsync_ns_count"], n)},
		{"durable.commit_batch_mean", "count", ratio(d["durable_commit_batch_sum"], d["durable_commit_batch_count"])},
		{"durable.fsync_mean_us", "us", ratio(d["durable_fsync_ns_sum"], d["durable_fsync_ns_count"]) / 1e3},
		{"durable.snapshots", "count", d["durable_snapshots_total"]},
		{"durable.snapshot_mean_ms", "ms", ratio(d["durable_snapshot_ns_sum"], d["durable_snapshot_ns_count"]) / 1e6},
		{"pool.miss_ratio", "ratio", ratio(d["pool_misses_total"], d["pool_gets_total"])},
		{"pool.oversize_per_kop", "count", ratio(d["pool_oversize_total"], kop)},
		{"folder.dup_puts", "count", final["folder_dup_puts_total"]},
		{"folder.dup_takes", "count", final["folder_dup_takes_total"]},
		{"folder.waiters_mid", "count", b.waitersMid},
		{"memoserver.forwards_per_op", "count", ratio(d["node_forwards_total"], n)},
		{"memoserver.link_faults", "count", final["node_link_faults_total"]},
		{"client.retries", "count", retries},
		{"daemon.cpu_user_ms_per_kop", "ms/kop", ratio(b.procAfter.userMS-b.procBefore.userMS, kop)},
		{"daemon.cpu_sys_ms_per_kop", "ms/kop", ratio(b.procAfter.sysMS-b.procBefore.sysMS, kop)},
		{"daemon.ctx_switches_per_op", "count", ratio(b.procAfter.ctxSwitches-b.procBefore.ctxSwitches, n)},
		{"daemon.rss_peak_mb", "MB", b.procAfter.rssPeakMB},
		{"loadgen.cpu_ms_per_kop", "ms/kop", ratio((b.selfAfter.userMS+b.selfAfter.sysMS)-(b.selfBefore.userMS+b.selfBefore.sysMS), kop)},
	}
}

// clientSpanMetrics are the medians of the client-side spans the traced
// window kept.
func clientSpanMetrics(spans []span) []metric {
	var out []metric
	for _, m := range []struct {
		span, name, unit string
		div              float64
	}{
		{"client.marshal", "client.marshal_ns", "ns", 1},
		{"client.place", "client.place_ns", "ns", 1},
		{"client.do", "client.do_us", "us", 1e3},
		{"client.unmarshal", "client.unmarshal_ns", "ns", 1},
	} {
		v, _ := medianSpanNS(spans, m.span)
		out = append(out, metric{m.name, m.unit, v / m.div})
	}
	return out
}
