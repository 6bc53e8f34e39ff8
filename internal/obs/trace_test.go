package obs

import (
	"testing"
	"time"

	"repro/internal/wire"
)

// TestTraceRingWrap: the ring keeps the newest traceRingCap samples, newest
// first, and Get finds a trace's samples on both sides of the wrap point.
func TestTraceRingWrap(t *testing.T) {
	var r TraceRing
	const extra = 10
	total := traceRingCap + extra
	// Trace 7 recurs: once in what will be evicted, once just before the
	// slot the wrap restarts at, once just after it.
	recurring := map[int]bool{extra - 1: true, traceRingCap - 1: true, traceRingCap: true}
	for i := 0; i < total; i++ {
		id := uint64(1000 + i)
		if recurring[i] {
			id = 7
		}
		r.Record(id, []wire.Span{{Op: "put", Start: int64(i)}})
	}
	if got := r.recorded.Load(); got != int64(total) {
		t.Fatalf("recorded = %d, want %d", got, total)
	}
	rec := r.Get(0)
	if len(rec) != traceRingCap {
		t.Fatalf("ring holds %d samples, want %d", len(rec), traceRingCap)
	}
	for i, ts := range rec {
		if want := int64(total - 1 - i); ts.Spans[0].Start != want {
			t.Fatalf("Get(0)[%d] is record %d, want %d (newest first, oldest %d evicted)", i, ts.Spans[0].Start, want, extra)
		}
	}
	got := r.Get(7)
	if len(got) != 2 || got[0].Spans[0].Start != traceRingCap || got[1].Spans[0].Start != traceRingCap-1 {
		t.Fatalf("Get(7) across the wrap = %+v, want records %d then %d", got, traceRingCap, traceRingCap-1)
	}
	if got := r.Get(1000); got != nil {
		t.Fatalf("evicted trace still found: %+v", got)
	}
}

// dispatch stands in for a node's dispatch wrapper: Begin, a request that
// took dur, Finish.
func dispatch(tr *Tracer, q *wire.Request, dur time.Duration) {
	set := tr.Begin(q)
	if set != nil {
		set.Add(wire.Span{Layer: "folder", Op: "put", Hop: q.Hops})
	}
	own := wire.Span{Layer: "memo", Op: q.Op.String(), Folder: q.FolderID, Hop: q.Hops, Start: 1, Dur: int64(dur)}
	tr.Finish(q, set, own)
}

// TestTracerOffHotPathAllocFree: the three ways a request leaves nothing
// behind each cost 0 allocs/op — no tracer, the threshold armed but the
// request fast, and a sampler armed that does not admit the request.
func TestTracerOffHotPathAllocFree(t *testing.T) {
	q := &wire.Request{Op: wire.OpPut}
	var none *Tracer
	if n := testing.AllocsPerRun(1000, func() {
		if none.Begin(q) != nil || none.Threshold() != 0 {
			t.Fatal("nil tracer traced")
		}
	}); n != 0 {
		t.Errorf("nil tracer allocates %v/op, want 0", n)
	}
	armed := NewTracer("memo@a", 0, time.Hour)
	if n := testing.AllocsPerRun(1000, func() {
		q.TraceID = 0
		dispatch(armed, q, time.Millisecond)
	}); n != 0 {
		t.Errorf("armed threshold, fast request: %v allocs/op, want 0", n)
	}
	relay := &wire.Request{Op: wire.OpPut, Hops: 1, TraceID: 5}
	rare := NewTracer("memo@a", 1e-9, time.Hour)
	if n := testing.AllocsPerRun(1000, func() {
		dispatch(rare, q, time.Millisecond)
		dispatch(rare, relay, time.Millisecond)
	}); n != 0 {
		t.Errorf("unsampled below threshold: %v allocs/op, want 0", n)
	}
	if armed.Slow.recorded.Load()+rare.Slow.recorded.Load()+rare.Sampled.recorded.Load() != 0 {
		t.Error("a fast unsampled request left a sample")
	}
}

// TestTracerNamesAndRecords: who stamps the trace ID, and which ring a
// finished dispatch lands in.
func TestTracerNamesAndRecords(t *testing.T) {
	// Both knobs off: the request leaves as it came.
	q := &wire.Request{Op: wire.OpPut}
	dispatch(NewTracer("memo@a", 0, 0), q, time.Hour)
	if q.TraceID != 0 || q.Sampled {
		t.Fatalf("tracer with both knobs off touched the request: %+v", q)
	}

	// Threshold armed: an untraced request is named at the first node that
	// could find it slow — unsampled, so no spans are collected — and a slow
	// one leaves its own span under that name, stamped with the node.
	tr := NewTracer("memo@a", 0, 10*time.Millisecond)
	var logged []wire.Span
	tr.OnSlow(func(trace uint64, sp wire.Span) {
		if trace != q.TraceID {
			t.Errorf("OnSlow trace = %#x, want %#x", trace, q.TraceID)
		}
		logged = append(logged, sp)
	})
	q = &wire.Request{Op: wire.OpGet, FolderID: 3, Hops: 1}
	dispatch(tr, q, 20*time.Millisecond)
	if q.TraceID == 0 || q.Sampled || q.Spans != nil {
		t.Fatalf("armed threshold: want a trace ID and nothing else, got %+v", q)
	}
	slow := tr.Slow.Get(q.TraceID)
	if len(slow) != 1 || len(slow[0].Spans) != 1 {
		t.Fatalf("slow ring = %+v, want one single-span sample", slow)
	}
	if sp := slow[0].Spans[0]; sp.Node != "memo@a" || sp.Layer != "memo" || sp.Op != "get" || sp.Folder != 3 || sp.Hop != 1 {
		t.Fatalf("slow span = %+v", sp)
	}
	if len(logged) != 1 || logged[0] != slow[0].Spans[0] {
		t.Fatalf("OnSlow saw %+v, want the slow span", logged)
	}
	if tr.Sampled.recorded.Load() != 0 {
		t.Fatal("an unsampled request reached the sampled ring")
	}
	// A trace ID that arrived with the request is kept.
	q = &wire.Request{Op: wire.OpGet, Hops: 1, TraceID: 42}
	dispatch(tr, q, time.Millisecond)
	if q.TraceID != 42 || tr.Slow.recorded.Load() != 1 {
		t.Fatalf("fast traced request: id %d, %d slow records", q.TraceID, tr.Slow.recorded.Load())
	}

	// Sampled and slow: the whole local tree goes to both rings.
	tr = NewTracer("memo@a", 1, 10*time.Millisecond)
	q = &wire.Request{Op: wire.OpPut}
	dispatch(tr, q, 20*time.Millisecond)
	if !q.Sampled || q.TraceID == 0 {
		t.Fatalf("rate-1 entry request not sampled: %+v", q)
	}
	for name, ring := range map[string]*TraceRing{"sampled": &tr.Sampled, "slow": &tr.Slow} {
		got := ring.Get(q.TraceID)
		if len(got) != 1 || len(got[0].Spans) != 2 {
			t.Fatalf("%s ring = %+v, want the two-span tree", name, got)
		}
		for _, sp := range got[0].Spans {
			if sp.Node != "memo@a" {
				t.Fatalf("%s ring: span without node name: %+v", name, sp)
			}
		}
	}

	// Two retention classes: a flood of fast sampled requests fills its own
	// ring and leaves the slow one alone.
	for i := 0; i <= traceRingCap; i++ {
		dispatch(tr, &wire.Request{Op: wire.OpPut}, time.Millisecond)
	}
	if tr.Sampled.Get(q.TraceID) != nil {
		t.Fatal("sampled ring did not wrap")
	}
	if len(tr.Slow.Get(q.TraceID)) != 1 {
		t.Fatal("sampled traffic evicted the slow request")
	}
}

// TestTracerRelayRecordsUpstreamSample: a relay-only tracer (rate 0) still
// records a request another node sampled — under the upstream trace ID, in
// its own sampled ring, every span stamped with a node — because each node
// keeps the subtree it made and nothing is shipped back to the entry.
func TestTracerRelayRecordsUpstreamSample(t *testing.T) {
	tr := NewTracer("memo@b", 0, 0)
	q := &wire.Request{Op: wire.OpPut, Hops: 1, TraceID: 0xB0B, Sampled: true}
	set := tr.Begin(q)
	if set == nil || q.Spans != set {
		t.Fatalf("relay did not open a span set for an upstream-sampled request: %+v", q)
	}
	set.Add(wire.Span{Node: "folder-1@b", Layer: "folder", Op: "put", Hop: 1})
	set.Add(wire.Span{Layer: "durable", Op: "commit", Hop: 1})
	tr.Finish(q, set, wire.Span{Layer: "memo", Op: "put", Hop: 1, Dur: 1})

	if q.TraceID != 0xB0B {
		t.Fatalf("relay renamed the trace: %#x", q.TraceID)
	}
	got := tr.Sampled.Get(0xB0B)
	if len(got) != 1 || len(got[0].Spans) != 3 {
		t.Fatalf("sampled ring = %+v, want one three-span subtree", got)
	}
	want := map[string]string{"folder": "folder-1@b", "durable": "memo@b", "memo": "memo@b"}
	for _, sp := range got[0].Spans {
		if sp.Node != want[sp.Layer] {
			t.Fatalf("%s span recorded by %q, want %q", sp.Layer, sp.Node, want[sp.Layer])
		}
		delete(want, sp.Layer)
	}
	if len(want) != 0 {
		t.Fatalf("layers missing from the subtree: %v", want)
	}
	if tr.Slow.recorded.Load() != 0 {
		t.Fatal("threshold off, yet a slow sample was recorded")
	}
}

// TestTracerNestedBeginDefersToOwner: a request that already carries a span
// set belongs to an enclosing wrapper, so a nested Begin opens nothing and
// only the owner's Finish records the request — once.
func TestTracerNestedBeginDefersToOwner(t *testing.T) {
	tr := NewTracer("memo@a", 1, 0)
	q := &wire.Request{Op: wire.OpGet}
	outer := tr.Begin(q)
	if outer == nil {
		t.Fatal("rate-1 entry request opened no span set")
	}
	if inner := tr.Begin(q); inner != nil {
		t.Fatal("nested Begin opened a second span set")
	}
	// The nested wrapper has no set to finish; its Finish records nothing.
	tr.Finish(q, nil, wire.Span{Layer: "folder", Op: "get", Dur: 1})
	if n := tr.Sampled.recorded.Load(); n != 0 {
		t.Fatalf("nested Finish recorded %d samples, want 0", n)
	}
	outer.Add(wire.Span{Layer: "folder", Op: "get"})
	tr.Finish(q, outer, wire.Span{Layer: "memo", Op: "get", Dur: 2})
	if got := tr.Sampled.Get(q.TraceID); len(got) != 1 || len(got[0].Spans) != 2 {
		t.Fatalf("sampled ring = %+v, want the owner's one two-span sample", got)
	}
}
