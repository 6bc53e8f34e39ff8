package wire

import (
	"testing"

	"repro/internal/symbol"
)

// Allocation budgets: the encode/decode round trip must stay allocation-free
// when buffers and request storage are reused — the contract the rpc hot
// path is built on. testing.AllocsPerRun gates run in the ordinary test
// suite, so a future change that quietly re-introduces a per-op allocation
// fails CI.

func TestAppendRequestRoundTripAllocFree(t *testing.T) {
	// A keyed put and a multi-key alt_take: both extension-slot reuse
	// (keyInto) and key-list reuse (DecodeRequestInto) are on the gated
	// path, so keyed workloads stay allocation-free too — not just pings.
	// Both carry the application's name, as every request does: decoded into
	// a reused Request it is the same string each time, so it too costs
	// nothing (strKeep).
	put := &Request{
		Op:      OpPut,
		App:     "invert",
		Key:     symbol.K(7, 1, 2),
		Payload: []byte("a memo payload of moderate length"),
	}
	alt := &Request{
		Op:   OpAltTake,
		App:  "invert",
		Keys: []symbol.Key{symbol.K(1, 9), symbol.K(2), symbol.K(3, 4, 5)},
	}
	buf := make([]byte, 0, 256)
	var dec Request
	allocs := testing.AllocsPerRun(200, func() {
		for _, q := range []*Request{put, alt} {
			buf = AppendRequest(buf[:0], q)
			if err := DecodeRequestInto(&dec, buf); err != nil {
				t.Fatal(err)
			}
		}
	})
	// The very first iterations grow dec's Keys/X arrays; AllocsPerRun's
	// warmup run absorbs that, so the steady state must be zero.
	if allocs > 0 {
		t.Fatalf("append/decode round trip allocates %.1f/op, want 0", allocs)
	}
	if dec.Op != alt.Op || len(dec.Keys) != 3 || dec.App != alt.App {
		t.Fatalf("round trip diverged: %+v", dec)
	}
}

func TestAppendBatchRoundTripAllocFree(t *testing.T) {
	msg := EncodeRequest(&Request{Op: OpPing})
	in := []BatchEntry{
		{ID: 1, Msg: msg},
		{ID: 2, Token: 99, Msg: msg},
		{ID: 3, Heartbeat: true},
	}
	buf := make([]byte, 0, 256)
	entries := make([]BatchEntry, 0, 8)
	allocs := testing.AllocsPerRun(200, func() {
		buf = AppendBatch(buf[:0], BatchRequest, in)
		kind, es, err := DecodeBatchInto(entries[:0], buf)
		if err != nil || kind != BatchRequest || len(es) != len(in) {
			t.Fatalf("round trip: kind %v, %d entries, err %v", kind, len(es), err)
		}
		entries = es
	})
	if allocs > 0 {
		t.Fatalf("batch append/decode round trip allocates %.1f/op, want 0", allocs)
	}
}

func TestAppendResponseRoundTripAllocFree(t *testing.T) {
	p := &Response{Status: StatusOK, Key: symbol.K(3), Payload: []byte("result")}
	buf := make([]byte, 0, 128)
	allocs := testing.AllocsPerRun(200, func() {
		buf = AppendResponse(buf[:0], p)
	})
	if allocs > 0 {
		t.Fatalf("AppendResponse allocates %.1f/op, want 0", allocs)
	}
	got, err := DecodeResponse(buf)
	if err != nil || string(got.Payload) != "result" {
		t.Fatalf("decode: %v %+v", err, got)
	}
}

// TestDecodeAliasesAndRetainDetaches pins the aliasing decode contract: a
// decoded payload aliases the input buffer (mutating the buffer shows
// through), and Retain detaches it (mutating the buffer afterwards does
// not).
func TestDecodeAliasesAndRetainDetaches(t *testing.T) {
	buf := EncodeRequest(&Request{Op: OpPut, Payload: []byte("hello")})
	q, err := DecodeRequest(buf)
	if err != nil {
		t.Fatal(err)
	}
	// Flip the payload's first byte through the decoded slice and confirm
	// the encoded buffer changed too — the slices share storage.
	q.Payload[0] = 'H'
	q2, err := DecodeRequest(buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(q2.Payload) != "Hello" {
		t.Fatalf("payload does not alias buf: %q", q2.Payload)
	}
	q2.Retain()
	q.Payload[0] = 'X'
	if string(q2.Payload) != "Hello" {
		t.Fatalf("Retain did not detach payload: %q", q2.Payload)
	}
}
