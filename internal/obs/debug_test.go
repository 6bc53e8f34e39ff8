package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/wire"
)

// TestTracez drives the /tracez handler in process: both retention classes
// in one body, ?trace=<id> answered from whichever ring holds the trace, a
// malformed id refused.
func TestTracez(t *testing.T) {
	tr := NewTracer("memo@test", 1, 10*time.Millisecond)
	run := func(dur time.Duration) uint64 {
		q := &wire.Request{Op: wire.OpPut}
		tr.Finish(q, tr.Begin(q), wire.Span{Layer: "memo", Op: "put", Dur: int64(dur)})
		return q.TraceID
	}
	fast, slow := run(time.Millisecond), run(time.Second)
	// Push the slow request's tree out of the sampled ring: only the slow
	// ring still holds it.
	for i := 0; i < traceRingCap; i++ {
		run(time.Millisecond)
	}
	h := NewDebugServer("", nil, tr).srv.Handler
	get := func(url string) (int, TracezBody) {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		var body TracezBody
		if rec.Code == http.StatusOK {
			if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
				t.Fatalf("GET %s: %v\n%s", url, err, rec.Body)
			}
		}
		return rec.Code, body
	}

	code, all := get("/tracez")
	if code != http.StatusOK || len(all.Recent) != traceRingCap || len(all.Slow) != 1 || all.SlowThreshold != 10*time.Millisecond {
		t.Fatalf("/tracez: status %d, %d sampled, %d slow, threshold %v", code, len(all.Recent), len(all.Slow), all.SlowThreshold)
	}
	if _, one := get(fmt.Sprintf("/tracez?trace=%#x", slow)); len(one.Recent) != 0 || len(one.Slow) != 1 || one.Slow[0].Trace != slow {
		t.Errorf("slow trace looked up by id: %+v", one)
	}
	if _, one := get(fmt.Sprintf("/tracez?trace=%d", fast)); len(one.Recent) != 0 || len(one.Slow) != 0 {
		t.Errorf("evicted fast trace still served: %+v", one)
	}
	newest := all.Recent[0].Trace
	if _, one := get(fmt.Sprintf("/tracez?trace=%d", newest)); len(one.Recent) != 1 || one.Recent[0].Trace != newest || len(one.Slow) != 0 {
		t.Errorf("sampled trace looked up by id: %+v", one)
	}
	if code, _ := get("/tracez?trace=zebra"); code != http.StatusBadRequest {
		t.Errorf("bad trace id: status %d, want 400", code)
	}
}

func TestDebugServer(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("dbg_ops_total", "ops")
	c.Add(3)
	tr := NewTracer("memo@test", 0, time.Millisecond)
	tr.RegisterMetrics(r)
	q := &wire.Request{Op: wire.OpPut, TraceID: 77, Hops: 1}
	tr.Finish(q, tr.Begin(q), wire.Span{Layer: "memo", Op: "put", Hop: 1, Dur: int64(5 * time.Millisecond)})

	d := NewDebugServer("127.0.0.1:0", []*Registry{r}, tr)
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	base := "http://" + d.Addr()

	get := func(path string) (string, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	metrics, ctype := get("/metrics")
	if !strings.Contains(metrics, "dbg_ops_total 3") {
		t.Errorf("/metrics missing counter:\n%s", metrics)
	}
	if !strings.HasPrefix(ctype, "text/plain; version=0.0.4") {
		t.Errorf("/metrics content type %q", ctype)
	}

	// Each number has one home: the metrics are /metrics, the slow requests
	// the slow section of /tracez; there is no /statusz echoing both.
	tracez, _ := get("/tracez")
	var body TracezBody
	if err := json.Unmarshal([]byte(tracez), &body); err != nil {
		t.Fatalf("/tracez not JSON: %v", err)
	}
	if len(body.Slow) != 1 || body.Slow[0].Trace != 77 {
		t.Errorf("/tracez slow section wrong: %s", tracez)
	}
	resp, err := http.Get(base + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/statusz answered %s, want 404", resp.Status)
	}
	if !strings.Contains(metrics, "slow_requests_total 1") || !strings.Contains(metrics, "trace_samples_total 0") {
		t.Errorf("/metrics missing the tracer's totals:\n%s", metrics)
	}

	if pprofIdx, _ := get("/debug/pprof/"); !strings.Contains(pprofIdx, "goroutine") {
		t.Errorf("/debug/pprof/ index looks wrong:\n%s", pprofIdx)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := d.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	select {
	case err := <-d.Done():
		if err != nil {
			t.Fatalf("serve loop ended with %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serve loop did not exit after shutdown")
	}
}
