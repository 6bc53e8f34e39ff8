package wire

import (
	"bytes"
	"reflect"
	"testing"
)

func sampleSpans() []Span {
	return []Span{
		{Node: "a@host", Layer: "memo", Op: "put", Folder: 3, Hop: 0, Start: 1000, Dur: 500},
		{Node: "b@host", Layer: "rpc", Op: "dispatch", Folder: 3, Hop: 1, Start: 1100, Dur: 200, Wait: 40},
		{Node: "b@host", Layer: "folder", Op: "put", Folder: 3, Hop: 1, Start: 1200, Dur: 80, Wait: 5},
		{Node: "", Layer: "durable", Op: "commit", Folder: -1, Hop: 0, Start: -7, Dur: 0, Wait: 0},
	}
}

// TestSpanRoundTrip pins the span blob codec on the happy path.
func TestSpanRoundTrip(t *testing.T) {
	spans := sampleSpans()
	buf := AppendSpans(nil, spans)
	if len(buf) > SpansOverhead(spans) {
		t.Fatalf("encoded %d bytes > SpansOverhead bound %d", len(buf), SpansOverhead(spans))
	}
	got, err := DecodeSpans(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spans, got) {
		t.Fatalf("round trip diverged:\n%+v\n%+v", spans, got)
	}
	// Empty blob round-trips to zero spans.
	empty, err := DecodeSpans(AppendSpans(nil, nil))
	if err != nil || len(empty) != 0 {
		t.Fatalf("empty blob: spans=%v err=%v", empty, err)
	}
}

// TestDecodeSpansCopiesStrings pins the ownership contract: span blobs arrive
// inside pooled batch frames that are recycled right after decode, so the
// decoded string fields must not alias the input buffer.
func TestDecodeSpansCopiesStrings(t *testing.T) {
	buf := AppendSpans(nil, sampleSpans())
	spans, err := DecodeSpans(buf)
	if err != nil {
		t.Fatal(err)
	}
	snap := make([]Span, len(spans))
	copy(snap, spans)
	for i := range buf {
		buf[i] ^= 0xFF
	}
	if !reflect.DeepEqual(snap, spans) {
		t.Fatalf("decoded spans changed after the source buffer was recycled:\n%+v\n%+v", snap, spans)
	}
}

// FuzzSpans: hostile span blobs must never panic the codec, and whatever
// decodes must re-encode canonically, decode back identical, and stay within
// the SpansOverhead bound. The decoded spans must also survive the source
// buffer being clobbered (pooled-frame recycling).
func FuzzSpans(f *testing.F) {
	f.Add(AppendSpans(nil, sampleSpans()))
	f.Add(AppendSpans(nil, nil))
	f.Add(AppendSpans(nil, sampleSpans()[:1]))
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		spans, err := DecodeSpans(data)
		if err != nil {
			return
		}
		snap := make([]Span, len(spans))
		copy(snap, spans)
		for i := range data {
			data[i] ^= 0xFF
		}
		if !reflect.DeepEqual(snap, spans) {
			t.Fatal("decoded spans alias the input buffer")
		}
		buf := AppendSpans(nil, spans)
		if len(buf) > SpansOverhead(spans) {
			t.Fatalf("encoded %d bytes > SpansOverhead bound %d", len(buf), SpansOverhead(spans))
		}
		spans2, err := DecodeSpans(buf)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if len(spans) != len(spans2) || (len(spans) > 0 && !reflect.DeepEqual(spans, spans2)) {
			t.Fatalf("round trip diverged:\n%+v\n%+v", spans, spans2)
		}
	})
}

// TestSpanlessBatchByteIdentical pins the extension-compatibility promise in
// the batch layout doc: entries that use no flag-gated extension (no token,
// no trace, no sampling, no spans) encode byte-identically to the original
// version-1 layout — magic, version, kind, count, then per entry uvarint id,
// zero flags byte, uvarint msg length, msg bytes. A peer that predates the
// trace extensions decodes these frames unchanged.
func TestSpanlessBatchByteIdentical(t *testing.T) {
	entries := []BatchEntry{
		{ID: 1, Msg: []byte("req-one")},
		{ID: 300, Msg: []byte{}},
		{ID: 2, Msg: []byte("x")},
	}
	got := EncodeBatch(BatchRequest, entries)

	var want []byte
	want = append(want, batchMagic, BatchVersion, byte(BatchRequest))
	var w writer
	w.buf = want
	w.u64(uint64(len(entries)))
	for _, e := range entries {
		w.u64(e.ID)
		w.byte(0) // flags: no extensions
		w.u64(uint64(len(e.Msg)))
		w.buf = append(w.buf, e.Msg...)
	}
	if !bytes.Equal(got, w.buf) {
		t.Fatalf("extension-less frame diverged from the documented legacy layout:\ngot  %x\nwant %x", got, w.buf)
	}

	// Sanity check the converse: any extension flips at least one byte.
	sampled := EncodeBatch(BatchRequest, []BatchEntry{{ID: 1, Sampled: true, Msg: []byte("req-one")}})
	if bytes.Equal(sampled[:len(got)], got[:len(sampled)]) {
		t.Fatal("sampled entry encoded identically to a plain entry")
	}
}

// TestSpanSetLifecycle covers the pooled, refcounted span accumulator: Add
// and AddMany collect, Finish stamps the node and returns a private copy,
// and the cap drops overflow instead of growing without bound.
func TestSpanSetLifecycle(t *testing.T) {
	set := NewSpanSet()
	set.Add(Span{Layer: "memo", Op: "put", Start: 10})
	set.Add(Span{Node: "remote", Layer: "folder", Op: "put", Start: 20})
	set.AddMany([]Span{{Layer: "rpc", Op: "send", Start: 30}})
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
	set.AddMany(make([]Span, 10))
	if set.Len() != maxSpansPerSet {
		t.Fatalf("AddMany broke the cap: Len = %d", set.Len())
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
	nilSet.AddMany([]Span{{}})
	if nilSet.Len() != 0 || nilSet.Finish("n") != nil {
		t.Fatal("nil SpanSet not inert")
	}
	nilSet.Release()
}
