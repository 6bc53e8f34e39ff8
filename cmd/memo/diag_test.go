package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/adf"
	"repro/internal/memoserver"
	"repro/internal/obs"
	"repro/internal/symbol"
	"repro/internal/wire"
)

// TestRenderTop renders `memo top` against an in-process node's debug
// server: every column is a sum over the node's /metrics samples, the slow
// and trace totals included; the LINKS column names a peer whose dial
// failed, with that dial's error; and an unreachable node is a row, not an
// error.
func TestRenderTop(t *testing.T) {
	f, err := adf.Parse("APP top\nHOSTS\na 1 sun4 1\nb 1 sun4 1\nFOLDERS\n0 a\n1 b\nPROCESSES\n0 boss a\nPPC\na <-> b 1\n")
	if err != nil {
		t.Fatal(err)
	}
	node := memoserver.NewWithDialer("a", newLoopback(),
		memoserver.Config{TraceSample: 0.5, SlowRequestThreshold: time.Nanosecond})
	t.Cleanup(node.Close)
	if err := node.RegisterApp(f); err != nil {
		t.Fatal(err)
	}
	// Four entry puts: all slow at 1ns, every second one sampled.
	for i := 0; i < 4; i++ {
		q := &wire.Request{Op: wire.OpPut, App: "top", Key: symbol.K(7), Payload: []byte("x")}
		if resp := node.Dispatch(q, nil); resp.Status != wire.StatusOK {
			t.Fatalf("put: %+v", resp)
		}
	}
	// b never starts: a put to its folder fails a's dial (slow too, unsampled).
	q := &wire.Request{Op: wire.OpPut, App: "top", FolderID: 1, Key: symbol.K(7), Payload: []byte("x")}
	if resp := node.Dispatch(q, nil); resp.Status != wire.StatusErr {
		t.Fatalf("put to a host that never started: %+v", resp)
	}
	reg := obs.NewRegistry()
	node.RegisterMetrics(reg)
	debug := obs.NewDebugServer("127.0.0.1:0", []*obs.Registry{reg}, node.Tracer())
	if err := debug.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = debug.Shutdown(context.Background()) })

	var out bytes.Buffer
	renderTop(&out, []nodeTarget{{Name: "a", Addr: debug.Addr()}, {Name: "gone", Addr: "127.0.0.1:1"}})
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("want a header and two rows:\n%s", out.String())
	}
	header, row := strings.Fields(lines[0]), strings.Fields(lines[1])
	want := map[string]string{"NODE": "a", "UP": "yes", "LOCAL": "4", "FWD": "1", "MEMOS": "4", "SLOW": "5", "TRACES": "2"}
	for i, col := range header {
		if w, ok := want[col]; ok && i < len(row) && row[i] == w {
			delete(want, col)
		}
	}
	if len(want) != 0 {
		t.Errorf("columns missing or wrong, want %v:\n%s", want, out.String())
	}
	if !strings.HasSuffix(lines[0], "LINKS d/f") || !strings.Contains(lines[1], "  0/0 (b: dial b: ") {
		t.Errorf("LINKS column does not name b's failed dial:\n%s", out.String())
	}
	if down := strings.Fields(lines[2]); len(down) < 2 || down[0] != "gone" || down[1] != "down" {
		t.Errorf("unreachable node rendered as %q", lines[2])
	}
}

// TestTraceJoinsTwoNodes drives the one join of a trace, `memo trace`'s
// merge, over two nodes on real TCP that sample every request and find
// every request slow. A put entering at a for b's folder leaves each node
// holding only its own spans, in both of its rings; the merged timeline has
// the memo spans of both hops, a's rpc and link spans, and the owner's
// folder span, each exactly once.
func TestTraceJoinsTwoNodes(t *testing.T) {
	f, err := adf.Parse("APP join\nHOSTS\na 1 sun4 1\nb 1 sun4 1\nFOLDERS\n0 a\n1 b\nPROCESSES\n0 boss a\nPPC\na <-> b 1\n")
	if err != nil {
		t.Fatal(err)
	}
	lb := newLoopback()
	cfg := memoserver.Config{TraceSample: 1, SlowRequestThreshold: time.Nanosecond}
	var targets []nodeTarget
	var nodes []*memoserver.Node
	for _, h := range []string{"a", "b"} {
		node := memoserver.NewWithDialer(h, lb, cfg)
		if err := node.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(node.Close)
		if err := node.RegisterApp(f); err != nil {
			t.Fatal(err)
		}
		debug := obs.NewDebugServer("127.0.0.1:0", nil, node.Tracer())
		if err := debug.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = debug.Shutdown(context.Background()) })
		targets = append(targets, nodeTarget{Name: h, Addr: debug.Addr()})
		nodes = append(nodes, node)
	}
	q := &wire.Request{Op: wire.OpPut, App: "join", FolderID: 1, Key: symbol.K(8), Payload: []byte("x")}
	if resp := nodes[0].Dispatch(q, nil); resp.Status != wire.StatusOK {
		t.Fatalf("put: %+v", resp)
	}
	id := fmt.Sprintf("%#x", q.TraceID)

	held := 0
	for _, n := range nodes {
		for _, ts := range n.Tracer().Sampled.Get(q.TraceID) {
			held += len(ts.Spans)
		}
		if len(n.Tracer().Slow.Get(q.TraceID)) == 0 {
			t.Fatalf("host %s: the 1ns threshold left no slow sample", n.Host)
		}
	}
	spans, scraped := mergeTrace(targets, id)
	if scraped != 2 || len(spans) != held {
		t.Fatalf("merged %d spans from %d nodes, want the %d the two nodes made: %+v", len(spans), scraped, held, spans)
	}
	seen := map[wire.Span]bool{}
	memoHops := map[string]int{}
	got := map[string]bool{}
	for _, sp := range spans {
		if seen[sp] {
			t.Errorf("span merged twice: %+v", sp)
		}
		seen[sp] = true
		if sp.Layer == "memo" {
			memoHops[sp.Node] = sp.Hop
		}
		got[sp.Node+" "+sp.Layer] = true
	}
	if len(memoHops) != 2 || memoHops["memo@a"] != 0 || memoHops["memo@b"] != 1 {
		t.Errorf("memo spans %v, want memo@a at hop 0 and memo@b at hop 1", memoHops)
	}
	for _, want := range []string{"memo@a rpc", "memo@a link", "folder-1@b folder"} {
		if !got[want] {
			t.Errorf("merged timeline has no %s span: %+v", want, spans)
		}
	}
	for i := 1; i < len(spans); i++ {
		if spans[i].Start < spans[i-1].Start {
			t.Fatalf("timeline out of order at %d: %+v", i, spans)
		}
	}
}

// TestMergeTraceDedupsAndOrders drives the merge over canned /tracez
// bodies: a span a node holds in both rings is kept once, spans differing
// in any field are kept apart, the timeline is ordered by start (hop breaks
// ties), and an unreachable node is skipped, not counted.
func TestMergeTraceDedupsAndOrders(t *testing.T) {
	entry := wire.Span{Node: "memo@a", Layer: "memo", Op: "put", Folder: 1, Start: 100, Dur: 50}
	link := wire.Span{Node: "memo@a", Layer: "link", Op: "b", Folder: 1, Start: 110, Dur: 30}
	relay := wire.Span{Node: "memo@b", Layer: "memo", Op: "put", Folder: 1, Hop: 1, Start: 110, Dur: 20}
	retry := relay
	retry.Start = 130
	serve := func(body obs.TracezBody) string {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/tracez" || r.URL.Query().Get("trace") != "0x7" {
				http.NotFound(w, r)
				return
			}
			_ = json.NewEncoder(w).Encode(body)
		}))
		t.Cleanup(srv.Close)
		return strings.TrimPrefix(srv.URL, "http://")
	}
	targets := []nodeTarget{
		{Name: "a", Addr: serve(obs.TracezBody{
			Recent: []obs.TraceSample{{Trace: 7, Spans: []wire.Span{entry, link}}},
			Slow:   []obs.TraceSample{{Trace: 7, Spans: []wire.Span{entry, link}}},
		})},
		{Name: "b", Addr: serve(obs.TracezBody{
			Recent: []obs.TraceSample{{Trace: 7, Spans: []wire.Span{retry}}, {Trace: 7, Spans: []wire.Span{relay}}},
			Slow:   []obs.TraceSample{{Trace: 7, Spans: []wire.Span{relay}}},
		})},
		{Name: "gone", Addr: "127.0.0.1:1"},
	}
	spans, scraped := mergeTrace(targets, "0x7")
	if scraped != 2 {
		t.Fatalf("scraped %d nodes, want 2", scraped)
	}
	want := []wire.Span{entry, link, relay, retry}
	if len(spans) != len(want) {
		t.Fatalf("merged %d spans, want %d: %+v", len(spans), len(want), spans)
	}
	for i := range want {
		if spans[i] != want[i] {
			t.Fatalf("timeline[%d] = %+v, want %+v", i, spans[i], want[i])
		}
	}
}
