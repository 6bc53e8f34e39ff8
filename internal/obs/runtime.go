package obs

import "runtime/metrics"

// runtimeSeries maps the Go runtime's own metrics onto series names: what the
// allocator and the collector cost a daemon, readable from /metrics next to
// the request counters they are divided by (allocations per op is
// go_alloc_objects_total over rpc_server_requests_total).
var runtimeSeries = []struct {
	src, name, help string
	kind            Kind
}{
	{"/gc/cycles/total:gc-cycles", "go_gc_cycles_total", "completed GC cycles", KindCounter},
	{"/cpu/classes/gc/total:cpu-seconds", "go_gc_cpu_seconds_total", "CPU time spent in the garbage collector (estimate)", KindCounter},
	{"/gc/heap/live:bytes", "go_heap_live_bytes", "heap bytes marked live by the last GC", KindGauge},
	{"/gc/heap/allocs:bytes", "go_alloc_bytes_total", "bytes allocated on the heap", KindCounter},
	{"/gc/heap/allocs:objects", "go_alloc_objects_total", "objects allocated on the heap", KindCounter},
	{"/sched/goroutines:goroutines", "go_goroutines", "live goroutines", KindGauge},
}

// RegisterRuntime adds the Go runtime series to r, read at scrape time.
func RegisterRuntime(r *Registry) {
	r.RegisterCollector(func(e *Emitter) {
		samples := make([]metrics.Sample, len(runtimeSeries))
		for i, rs := range runtimeSeries {
			samples[i].Name = rs.src
		}
		metrics.Read(samples)
		for i, rs := range runtimeSeries {
			switch v := samples[i].Value; v.Kind() {
			case metrics.KindUint64:
				e.emit(rs.name, rs.help, rs.kind, nil, int64(v.Uint64()))
			case metrics.KindFloat64:
				e.emitFloat(rs.name, rs.help, rs.kind, v.Float64())
			}
		}
	})
}
