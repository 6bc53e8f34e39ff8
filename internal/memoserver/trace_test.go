package memoserver

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/symbol"
	"repro/internal/wire"
)

// traceSpans is the one join: every span any of nodes recorded under trace
// id, in its sampled ring.
func traceSpans(id uint64, nodes ...*Node) []wire.Span {
	var spans []wire.Span
	for _, n := range nodes {
		for _, ts := range n.Tracer().Sampled.Get(id) {
			spans = append(spans, ts.Spans...)
		}
	}
	return spans
}

// TestCrossNodeTracedPutSpanTree: with sampling on and durability armed, a
// put that enters at a and forwards a hop to b's folder server leaves one
// sample on each node under the same trace ID. Each node holds only the
// spans it made; joined by that ID they form the whole tree, with rpc,
// link, folder, and durable spans contributed by at least two nodes.
func TestCrossNodeTracedPutSpanTree(t *testing.T) {
	tn := bootNet(t, twoHostADF, Config{TraceSample: 1, DataDir: t.TempDir()})
	c := tn.client(t, "a")

	q := req(wire.OpPut, 1, symbol.K(33), []byte("traced")) // folder 1 lives on b
	resp, err := c.Do(q, nil)
	if err != nil || resp.Status != wire.StatusOK {
		t.Fatalf("put: %+v %v", resp, err)
	}

	samples := tn.nodes["a"].Tracer().Sampled.Get(0)
	if len(samples) != 1 {
		t.Fatalf("entry ring holds %d samples, want 1", len(samples))
	}
	id := samples[0].Trace
	if id == 0 {
		t.Fatal("sample recorded with trace ID 0")
	}
	for _, sp := range samples[0].Spans {
		if sp.Node != "memo@a" {
			t.Errorf("entry ring holds a span a did not make: %+v", sp)
		}
	}

	spans := traceSpans(id, tn.nodes["a"], tn.nodes["b"])
	layers := map[string]int{}
	nodes := map[string]bool{}
	hops := map[int]bool{}
	for _, sp := range spans {
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
			t.Errorf("span tree missing layer %q: %+v", want, spans)
		}
	}
	if layers["memo"] < 2 || !hops[0] || !hops[1] {
		t.Errorf("want memo spans from hop 0 and hop 1, got hops %v in %+v", hops, spans)
	}
	if len(nodes) < 2 {
		t.Errorf("span tree names %d distinct nodes, want >= 2: %+v", len(nodes), spans)
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
	if got := tn.nodes["a"].Tracer().Sampled.Get(id); len(got) != 1 {
		t.Fatalf("entry ring has %d samples for trace %#x, want 1", len(got), id)
	}
	// Relay node b collected its half too.
	if rb := tn.nodes["b"].Tracer().Sampled.Get(id); len(rb) == 0 {
		t.Error("relay node recorded no sample for the forced trace")
	}
	spans := traceSpans(id, tn.nodes["a"], tn.nodes["b"])
	layers := map[string]bool{}
	for _, sp := range spans {
		layers[sp.Layer] = true
	}
	for _, want := range []string{"memo", "rpc", "link", "folder"} {
		if !layers[want] {
			t.Errorf("forced-sample span tree missing layer %q: %+v", want, spans)
		}
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
		samples := nodeExposition(n)
		if got := int64(obs.Sum(samples, "trace_samples_total") + obs.Sum(samples, "slow_requests_total")); got != 0 {
			t.Errorf("node %s recorded %d samples with tracing off", name, got)
		}
	}
}

// TestSampledForwardAllocBudget pins what sampling costs a forwarded
// put+get round from a client at a to b's folder: each node records the
// spans it made and nothing rides the responses, so the sampled round
// allocates at most sampledExtra more than the same round unsampled.
func TestSampledForwardAllocBudget(t *testing.T) {
	const sampledExtra = 8
	round := func(cfg Config) float64 {
		tn := bootNet(t, twoHostADF, cfg)
		c := tn.client(t, "a")
		put := req(wire.OpPut, 1, symbol.K(12), []byte("round"))
		get := req(wire.OpGet, 1, symbol.K(12), nil)
		return testing.AllocsPerRun(200, func() {
			if resp, err := c.Do(put, nil); err != nil || resp.Status != wire.StatusOK {
				t.Fatalf("put: %+v %v", resp, err)
			}
			if resp, err := c.Do(get, nil); err != nil || resp.Status != wire.StatusOK {
				t.Fatalf("get: %+v %v", resp, err)
			}
		})
	}
	plain := round(Config{})
	sampled := round(Config{TraceSample: 1})
	if sampled > plain+sampledExtra {
		t.Errorf("sampled forwarded put+get round: %.1f allocs, unsampled %.1f, budget +%d", sampled, plain, sampledExtra)
	}
}
