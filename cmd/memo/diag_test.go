package main

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/adf"
	"repro/internal/memoserver"
	"repro/internal/obs"
	"repro/internal/symbol"
	"repro/internal/transport"
	"repro/internal/wire"
)

// TestRenderTop renders `memo top` against an in-process node's debug
// server: every column is a sum over the /statusz metrics list, the slow
// and trace totals included, and an unreachable node is a row, not an error.
func TestRenderTop(t *testing.T) {
	f, err := adf.Parse("APP top\nHOSTS\na 1 sun4 1\nFOLDERS\n0 a\nPROCESSES\n0 boss a\n")
	if err != nil {
		t.Fatal(err)
	}
	node := memoserver.NewWithDialer("a", &loopback{TCP: transport.NewTCP()},
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
	reg := obs.NewRegistry()
	node.RegisterMetrics(reg)
	debug := obs.NewDebugServer("127.0.0.1:0", []*obs.Registry{reg}, node.Tracer(),
		func() any { return node.LinkStats() })
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
	want := map[string]string{"NODE": "a", "UP": "yes", "LOCAL": "4", "MEMOS": "4", "SLOW": "4", "TRACES": "2"}
	for i, col := range header {
		if w, ok := want[col]; ok && i < len(row) && row[i] == w {
			delete(want, col)
		}
	}
	if len(want) != 0 {
		t.Errorf("columns missing or wrong, want %v:\n%s", want, out.String())
	}
	if down := strings.Fields(lines[2]); len(down) < 2 || down[0] != "gone" || down[1] != "down" {
		t.Errorf("unreachable node rendered as %q", lines[2])
	}
}
