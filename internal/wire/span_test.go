package wire

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// TestSpanSetLifecycle covers the pooled span accumulator: Add collects,
// Finish stamps the node and returns a private copy,
// and the cap drops overflow instead of growing without bound.
func TestSpanSetLifecycle(t *testing.T) {
	set := NewSpanSet()
	set.Add(Span{Layer: "memo", Op: "put", Start: 10})
	set.Add(Span{Node: "remote", Layer: "folder", Op: "put", Start: 20})
	set.Add(Span{Layer: "rpc", Op: "send", Start: 30})
	if set.Len() != 3 {
		t.Fatalf("Len = %d, want 3", set.Len())
	}

	out := set.Finish("local")
	if len(out) != 3 {
		t.Fatalf("Finish returned %d spans, want 3", len(out))
	}
	for _, sp := range out {
		if sp.Node == "" {
			t.Fatalf("Finish left a span without a node: %+v", sp)
		}
	}
	if out[1].Node != "remote" {
		t.Fatalf("Finish overwrote an already-stamped node: %+v", out[1])
	}

	// Finish returns a private copy: later Adds must not show up in it.
	set.Add(Span{Layer: "durable", Op: "commit"})
	if len(out) != 3 {
		t.Fatal("Finish result aliased the live set")
	}
	set.Release()
}

func TestSpanSetCap(t *testing.T) {
	set := NewSpanSet()
	defer set.Release()
	for i := 0; i < maxSpansPerSet+10; i++ {
		set.Add(Span{Layer: "memo", Start: int64(i)})
	}
	if set.Len() != maxSpansPerSet {
		t.Fatalf("Len = %d, want cap %d", set.Len(), maxSpansPerSet)
	}
}

// TestSpanSetReleaseResets: a released set comes back from the pool empty,
// and a nil set is inert.
func TestSpanSetReleaseResets(t *testing.T) {
	set := NewSpanSet()
	set.Add(Span{Layer: "memo"})
	set.Add(Span{Layer: "folder"})
	set.Release()

	fresh := NewSpanSet()
	defer fresh.Release()
	if fresh.Len() != 0 {
		t.Fatalf("pooled set not reset: Len = %d", fresh.Len())
	}

	// Nil-safety across the API — unsampled requests call through nil sets.
	var nilSet *SpanSet
	nilSet.Add(Span{})
	if nilSet.Len() != 0 || nilSet.Finish("n") != nil {
		t.Fatal("nil SpanSet not inert")
	}
	nilSet.Release()
}

// TestSpanSetConcurrentAdd: layers on several goroutines may add to one set
// while the owner snapshots it; every Add lands (up to the cap) and a
// Finish taken mid-stream is a consistent private copy.
func TestSpanSetConcurrentAdd(t *testing.T) {
	set := NewSpanSet()
	defer set.Release()
	const writers, each = 4, 10
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				set.Add(Span{Layer: "rpc", Hop: w, Start: int64(i)})
			}
		}(w)
	}
	mid := set.Finish("n")
	wg.Wait()
	if n := set.Len(); n != writers*each {
		t.Fatalf("Len = %d, want %d", n, writers*each)
	}
	if len(mid) > writers*each {
		t.Fatalf("mid-stream Finish returned %d spans, more than were added", len(mid))
	}
	for _, sp := range mid {
		if sp.Node != "n" || sp.Layer != "rpc" {
			t.Fatalf("mid-stream Finish returned a torn span: %+v", sp)
		}
	}
}

// TestSpanJSONRoundTrip: /tracez is the only way a span leaves its node, and
// `memo trace` dedups spans by whole-value equality, so the JSON form must
// carry every field back unchanged, under the names the endpoint documents.
func TestSpanJSONRoundTrip(t *testing.T) {
	sp := Span{Node: "memo@a", Layer: "memo", Op: "put", Folder: 1, Hop: 2, Start: 1e18, Dur: 1500, Wait: 200}
	b, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"node":"memo@a","layer":"memo","op":"put","folder":1,"hop":2,"start_ns":1000000000000000000,"dur_ns":1500,"wait_ns":200}`
	if string(b) != want {
		t.Fatalf("JSON = %s, want %s", b, want)
	}
	var back Span
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != sp {
		t.Fatalf("round trip = %+v, want %+v", back, sp)
	}
	// A span with no wait leaves the field out.
	sp.Wait = 0
	if b, _ := json.Marshal(sp); strings.Contains(string(b), "wait_ns") {
		t.Fatalf("zero wait still encoded: %s", b)
	}
}
