package rpc

import (
	"testing"

	"repro/internal/threadcache"
	"repro/internal/transport"
	"repro/internal/wire"
)

// TestSteadyStateCallAllocBudget gates the whole-path allocation budget of
// one rpc round trip: client encode → batcher → inproc transport →
// server decode → thread-cache dispatch → response batcher → client decode.
// The seed path spent ~29 allocations per op here; the pooled path holds a
// single-digit budget, and this test keeps it that way — a future PR that
// quietly re-introduces per-op allocation on the hot path fails here.
// testing.AllocsPerRun counts mallocs process-wide, so the server side of
// the connection is inside the budget too.
func TestSteadyStateCallAllocBudget(t *testing.T) {
	ip := transport.NewInProc()
	l, err := ip.Listen("srv/rpc")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	tc := threadcache.New(threadcache.Config{})
	defer tc.Close()
	go serveLoop(l, echoBenchHandler, tc.SubmitArg, Policy{})
	conn, err := ip.Dial("srv/rpc")
	if err != nil {
		t.Fatal(err)
	}
	// Heartbeats off: the probe ticker would add background allocations
	// unrelated to the per-call budget.
	c := NewConnResilient(conn, Policy{}, Resilience{})
	defer c.Close()

	// Warm the path: buffer pools, call pool, dispatch-task pool, cached
	// server thread, goroutine stacks.
	for i := 0; i < 64; i++ {
		if _, err := c.Call(&wire.Request{Op: wire.OpPing}, nil); err != nil {
			t.Fatal(err)
		}
	}

	// The request names its application, as every real one does: the pooled
	// dispatch task keeps that string across requests (recycleTask,
	// wire.DecodeRequestInto), so it is not a fifth allocation.
	q := &wire.Request{Op: wire.OpPing, App: "budget"}
	allocs := testing.AllocsPerRun(300, func() {
		if _, err := c.Call(q, nil); err != nil {
			t.Fatal(err)
		}
	})
	// Budget: the steady state measures 4.0 allocs/op (7.0 before the
	// thread-cache worker kept one timer for its lifetime and the batcher
	// lost its own). Measured + 2 leaves
	// room for scheduler noise while still tripping on any real regression
	// (the pre-pooling path was ~29).
	if allocs > 6 {
		t.Fatalf("steady-state call allocates %.1f/op, budget 6 (seed path was ~29)", allocs)
	}
}

// TestSampledCallAllocBudget gates the span-sampled call path the same way:
// a sampled request carries the trace extension out (trace id, hop, sampled
// flag on the batch entry), collects an rpc send span into its pooled
// SpanSet, and the owner copies the set out with Finish. That is allowed a
// small fixed budget over the unsampled path — sampling one request in N
// must never make tracing the expensive part of the request.
func TestSampledCallAllocBudget(t *testing.T) {
	ip := transport.NewInProc()
	l, err := ip.Listen("srv/rpc-sampled")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	tc := threadcache.New(threadcache.Config{})
	defer tc.Close()
	go serveLoop(l, echoBenchHandler, tc.SubmitArg, Policy{})
	conn, err := ip.Dial("srv/rpc-sampled")
	if err != nil {
		t.Fatal(err)
	}
	c := NewConnResilient(conn, Policy{}, Resilience{})
	defer c.Close()

	sampledCall := func() {
		set := wire.NewSpanSet()
		q := &wire.Request{Op: wire.OpPing, TraceID: 0x5A17, Sampled: true, Spans: set}
		if _, err := c.Call(q, nil); err != nil {
			t.Fatal(err)
		}
		if spans := set.Finish("gate"); len(spans) == 0 {
			t.Fatal("sampled call collected no spans")
		}
		set.Release()
	}
	for i := 0; i < 64; i++ {
		sampledCall()
	}
	allocs := testing.AllocsPerRun(300, sampledCall)
	// Budget: the unsampled path holds 6; the sampled path adds the Finish
	// copy and trace bookkeeping. 20 trips on any real regression (e.g. a
	// per-span allocation or an unpooled SpanSet).
	if allocs > 20 {
		t.Fatalf("sampled call allocates %.1f/op, budget 20 (unsampled budget is 6)", allocs)
	}
}
