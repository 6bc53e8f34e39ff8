package obs

import (
	"runtime"
	"strings"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if got := c.Load(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	var g Gauge
	g.Add(3)
	g.Add(-1)
	if got := g.Load(); got != 2 {
		t.Fatalf("gauge = %d, want 2", got)
	}
	g.Set(9)
	if got := g.Load(); got != 9 {
		t.Fatalf("gauge = %d, want 9", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 0}, {2, 1}, {4, 1}, {5, 2}, {16, 2}, {17, 3},
		{64, 3}, {65, 4}, {1 << 62, 31}, {1<<62 + 1, 32}, {1<<63 - 1, 32},
	}
	for _, c := range cases {
		if got := bucketIndex(c.v); got != c.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	var h Histogram
	h.Observe(3)
	h.Observe(100)
	h.Observe(100)
	if got := h.Count(); got != 3 {
		t.Fatalf("count = %d, want 3", got)
	}
	if got := h.Sum(); got != 203 {
		t.Fatalf("sum = %d, want 203", got)
	}
	snap := h.Snapshot()
	if snap[1] != 1 || snap[4] != 2 {
		t.Fatalf("snapshot = %v", snap)
	}
}

// TestRecordAllocFree is the gate the tentpole promises: counter
// increments, gauge moves and histogram observations are all 0 allocs/op, so
// instrumentation cannot perturb the PR 5 hot-path allocation budgets.
func TestRecordAllocFree(t *testing.T) {
	var c Counter
	if n := testing.AllocsPerRun(1000, func() { c.Inc() }); n != 0 {
		t.Errorf("Counter.Inc allocates %v/op, want 0", n)
	}
	var g Gauge
	if n := testing.AllocsPerRun(1000, func() { g.Add(1) }); n != 0 {
		t.Errorf("Gauge.Add allocates %v/op, want 0", n)
	}
	var h Histogram
	v := int64(1)
	if n := testing.AllocsPerRun(1000, func() { h.Observe(v); v += 97 }); n != 0 {
		t.Errorf("Histogram.Observe allocates %v/op, want 0", n)
	}
}

func TestRegistryProm(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("demo_ops_total", "ops so far")
	c.Add(7)
	g := &Gauge{}
	g.Set(3)
	r.RegisterGauge("demo_depth", "queue depth", map[string]string{"q": "a"}, g)
	h := r.Histogram("demo_latency_ns", "latency")
	h.Observe(2)
	h.Observe(1000)
	r.RegisterCollector(func(e *Emitter) {
		e.Gauge("demo_dynamic", "per-instance", map[string]string{"id": "1"}, 42)
	})

	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE demo_ops_total counter",
		"demo_ops_total 7",
		`demo_depth{q="a"} 3`,
		"# TYPE demo_latency_ns histogram",
		`demo_latency_ns_bucket{le="4"} 1`,
		`demo_latency_ns_bucket{le="1024"} 2`,
		`demo_latency_ns_bucket{le="+Inf"} 2`,
		"demo_latency_ns_sum 1002",
		"demo_latency_ns_count 2",
		`demo_dynamic{id="1"} 42`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}

	// Every sample line reads back.
	if _, err := ParseText(strings.NewReader(out)); err != nil {
		t.Errorf("exposition does not read back: %v", err)
	}
}

func TestRegistryHistogramLabels(t *testing.T) {
	r := NewRegistry()
	h := &Histogram{}
	h.Observe(1)
	r.RegisterHistogram("lab_hist", "", map[string]string{"k": "v"}, h)
	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `lab_hist_bucket{k="v",le="1"} 1`) {
		t.Fatalf("labeled histogram bucket malformed:\n%s", b.String())
	}
}

func TestRegistryKindClash(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge should panic")
		}
	}()
	r.Gauge("x_total", "")
}

// TestParseText: what WriteProm writes, ParseText reads back — a counter,
// a histogram's _count and _sum, a fractional sample, and labelled samples
// whose label values hold spaces, quotes and the block's own delimiters —
// and a sample line without a value is refused.
func TestParseText(t *testing.T) {
	r := NewRegistry()
	r.Counter("snap_total", "").Add(5)
	h := r.Histogram("snap_ns", "")
	h.Observe(10)
	h.Observe(30)
	r.RegisterCollector(func(e *Emitter) {
		e.emitFloat("snap_cpu_seconds_total", "", KindCounter, 0.25)
		e.emitFloat("snap_gc_cpu_seconds_total", "", KindCounter, 1.5e-05)
		e.Gauge("snap_link_error", "", map[string]string{"peer": "b", "error": `dial b: "refused", {x} at 1 2`}, 1)
		e.Gauge("snap_link_error", "", map[string]string{"peer": "c", "error": ""}, 0)
	})
	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	samples, err := ParseText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("%v\n%s", err, b.String())
	}
	for name, want := range map[string]float64{
		"snap_total": 5, "snap_ns_count": 2, "snap_ns_sum": 40, "snap_cpu_seconds_total": 0.25,
		"snap_gc_cpu_seconds_total": 1.5e-05, "snap_link_error": 1,
	} {
		if got := Sum(samples, name); got != want {
			t.Errorf("Sum(%s) = %v, want %v\n%s", name, got, want, b.String())
		}
	}
	var links []Sample
	for _, s := range samples {
		if s.Name == "snap_link_error" {
			links = append(links, s)
		}
	}
	if len(links) != 2 || links[0].Label("peer") != "b" || links[0].Label("error") != `dial b: "refused", {x} at 1 2` ||
		links[0].Value != 1 || links[1].Label("peer") != "c" || links[1].Label("error") != "" || links[1].Label("zone") != "" {
		t.Errorf("labelled samples read back as %+v", links)
	}
	for _, bad := range []string{"snap_total\n", `snap_total{peer="b"}` + "\n", "snap_total 1 2\n", `snap_total{peer="b} 1` + "\n"} {
		if _, err := ParseText(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseText(%q) accepted a line without exactly one value", bad)
		}
	}
}

// TestRuntimeSeries: the Go runtime series render in the exposition, the
// counts as integers and the collector's CPU time as fractional seconds.
func TestRuntimeSeries(t *testing.T) {
	r := NewRegistry()
	RegisterRuntime(r)
	runtime.GC() // at least one cycle, so the collector has used some CPU
	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	samples, err := ParseText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"go_gc_cycles_total", "go_gc_cpu_seconds_total", "go_heap_live_bytes",
		"go_alloc_bytes_total", "go_alloc_objects_total", "go_goroutines"} {
		if v := Sum(samples, name); v <= 0 {
			t.Errorf("%s = %v, want a positive value\n%s", name, v, b.String())
		}
	}
	if !strings.Contains(b.String(), "# TYPE go_gc_cpu_seconds_total counter") {
		t.Errorf("go_gc_cpu_seconds_total is not typed a counter:\n%s", b.String())
	}
}
