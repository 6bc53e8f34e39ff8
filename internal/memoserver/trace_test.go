package memoserver

import (
	"testing"

	"repro/internal/symbol"
	"repro/internal/wire"
)

// TestCrossNodeTracedPutSpanTree is the PR's acceptance path: with sampling
// on and durability armed, a put that enters at a and forwards a hop to b's
// folder server leaves one merged span tree in a's trace ring, with rpc,
// link, folder, and durable spans contributed by at least two nodes.
func TestCrossNodeTracedPutSpanTree(t *testing.T) {
	tn := bootNet(t, twoHostADF, Config{TraceSample: 1, DataDir: t.TempDir()})
	c := tn.client(t, "a")

	q := req(wire.OpPut, 1, symbol.K(33), []byte("traced")) // folder 1 lives on b
	resp, err := c.Do(q, nil)
	if err != nil || resp.Status != wire.StatusOK {
		t.Fatalf("put: %+v %v", resp, err)
	}

	samples := tn.nodes["a"].Tracer().Sampled.Recent()
	if len(samples) != 1 {
		t.Fatalf("entry ring holds %d samples, want 1", len(samples))
	}
	ts := samples[0]
	if ts.Trace == 0 {
		t.Fatal("sample recorded with trace ID 0")
	}

	layers := map[string]int{}
	nodes := map[string]bool{}
	hops := map[int]bool{}
	for _, sp := range ts.Spans {
		layers[sp.Layer]++
		if sp.Node == "" {
			t.Errorf("span %+v recorded without a node name", sp)
		}
		nodes[sp.Node] = true
		if sp.Layer == "memo" {
			hops[sp.Hop] = true
		}
		if sp.Start == 0 {
			t.Errorf("span %+v recorded without a start time", sp)
		}
	}
	for _, want := range []string{"memo", "rpc", "link", "folder", "durable"} {
		if layers[want] == 0 {
			t.Errorf("span tree missing layer %q: %+v", want, ts.Spans)
		}
	}
	if layers["memo"] < 2 || !hops[0] || !hops[1] {
		t.Errorf("want memo spans from hop 0 and hop 1, got hops %v in %+v", hops, ts.Spans)
	}
	if len(nodes) < 2 {
		t.Errorf("span tree names %d distinct nodes, want >= 2: %+v", len(nodes), ts.Spans)
	}
}

// TestClientForcedSampling: EnableSampling marks every request sampled at
// the source, so even relay-only servers (-trace-sample 0) collect and
// record its spans — how `memo trace` guarantees itself a trace to fetch.
func TestClientForcedSampling(t *testing.T) {
	tn := bootNet(t, twoHostADF, Config{}) // no server-side sampling
	c := tn.client(t, "a")
	c.EnableSampling()

	q := req(wire.OpPut, 1, symbol.K(7), []byte("forced"))
	resp, err := c.Do(q, nil)
	if err != nil || resp.Status != wire.StatusOK {
		t.Fatalf("put: %+v %v", resp, err)
	}
	id := c.LastTraceID()
	if id == 0 {
		t.Fatal("LastTraceID = 0 after a sampled request")
	}
	got := tn.nodes["a"].Tracer().Sampled.Get(id)
	if len(got) != 1 {
		t.Fatalf("entry ring has %d samples for trace %#x, want 1", len(got), id)
	}
	layers := map[string]bool{}
	for _, sp := range got[0].Spans {
		layers[sp.Layer] = true
	}
	for _, want := range []string{"memo", "rpc", "link", "folder"} {
		if !layers[want] {
			t.Errorf("forced-sample span tree missing layer %q: %+v", want, got[0].Spans)
		}
	}
	// Relay node b collected its half too.
	if rb := tn.nodes["b"].Tracer().Sampled.Get(id); len(rb) == 0 {
		t.Error("relay node recorded no sample for the forced trace")
	}
}

// TestUnsampledRequestsLeaveNoTrace: with sampling off everywhere and no
// client forcing, the rings stay empty and requests carry no span state.
func TestUnsampledRequestsLeaveNoTrace(t *testing.T) {
	tn := bootNet(t, twoHostADF, Config{})
	c := tn.client(t, "a")
	q := req(wire.OpPut, 1, symbol.K(9), []byte("plain"))
	if resp, err := c.Do(q, nil); err != nil || resp.Status != wire.StatusOK {
		t.Fatalf("put: %+v %v", resp, err)
	}
	for name, n := range tn.nodes {
		if got := n.Tracer().Sampled.Recorded() + n.Tracer().Slow.Recorded(); got != 0 {
			t.Errorf("node %s recorded %d samples with tracing off", name, got)
		}
	}
}
