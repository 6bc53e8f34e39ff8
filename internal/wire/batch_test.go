package wire

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/symbol"
)

func TestBatchRoundTrip(t *testing.T) {
	reqs := []*Request{
		{Op: OpPing},
		{Op: OpPut, App: "app", FolderID: 3, Key: symbol.K(7, 1, 2), Payload: []byte("payload")},
		{Op: OpAltTake, App: "app", Keys: []symbol.Key{symbol.K(1), symbol.K(2, 9)}},
	}
	entries := make([]BatchEntry, 0, len(reqs)+1)
	for i, q := range reqs {
		entries = append(entries, BatchEntry{ID: uint64(100 + i), Msg: EncodeRequest(q)})
	}
	entries = append(entries, BatchEntry{ID: 101, Cancel: true})
	entries = append(entries, BatchEntry{ID: 55, Heartbeat: true})
	// The dedup-token extension: flag-gated, so only this entry's layout
	// differs from a pre-token frame.
	entries = append(entries, BatchEntry{ID: 200, Token: 0xFEEDFACE,
		Msg: EncodeRequest(&Request{Op: OpPut, Key: symbol.K(9), Payload: []byte("tokened")})})
	// The trace extension: likewise flag-gated, and composable with the
	// token on one entry.
	entries = append(entries, BatchEntry{ID: 201, Trace: 0xABCDEF01,
		Msg: EncodeRequest(&Request{Op: OpGet, Key: symbol.K(9)})})
	entries = append(entries, BatchEntry{ID: 202, Token: 7, Trace: 9,
		Msg: EncodeRequest(&Request{Op: OpPut, Key: symbol.K(3), Payload: []byte("both")})})

	frame := EncodeBatch(BatchRequest, entries)
	if !IsBatchFrame(frame) {
		t.Fatal("encoded batch not recognized as batch frame")
	}
	kind, got, err := DecodeBatch(frame)
	if err != nil {
		t.Fatal(err)
	}
	if kind != BatchRequest {
		t.Fatalf("kind = %v", kind)
	}
	if len(got) != len(entries) {
		t.Fatalf("entries = %d, want %d", len(got), len(entries))
	}
	for i, e := range got {
		if e.ID != entries[i].ID || e.Cancel != entries[i].Cancel ||
			e.Heartbeat != entries[i].Heartbeat || e.Token != entries[i].Token ||
			e.Trace != entries[i].Trace ||
			!bytes.Equal(e.Msg, entries[i].Msg) {
			t.Fatalf("entry %d = %+v, want %+v", i, e, entries[i])
		}
	}
	for i, q := range reqs {
		dq, err := DecodeRequest(got[i].Msg)
		if err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
		if !reflect.DeepEqual(dq, q) {
			t.Fatalf("entry %d decoded %+v, want %+v", i, dq, q)
		}
	}
}

func TestBatchResponseRoundTrip(t *testing.T) {
	resps := []*Response{
		OK(),
		{Status: StatusOK, Key: symbol.K(4), Payload: []byte("v")},
		Errf("boom %d", 7),
	}
	var entries []BatchEntry
	for i, p := range resps {
		entries = append(entries, BatchEntry{ID: uint64(i), Msg: EncodeResponse(p)})
	}
	kind, got, err := DecodeBatch(EncodeBatch(BatchResponse, entries))
	if err != nil || kind != BatchResponse {
		t.Fatalf("kind %v err %v", kind, err)
	}
	for i, p := range resps {
		dp, err := DecodeResponse(got[i].Msg)
		if err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
		if !reflect.DeepEqual(dp, p) {
			t.Fatalf("entry %d decoded %+v, want %+v", i, dp, p)
		}
	}
}

func TestBatchEmptyAndErrors(t *testing.T) {
	// Empty batches round-trip.
	kind, entries, err := DecodeBatch(EncodeBatch(BatchResponse, nil))
	if err != nil || kind != BatchResponse || len(entries) != 0 {
		t.Fatalf("empty batch: %v %v %v", kind, entries, err)
	}

	// Single frames are not batch frames.
	if IsBatchFrame(EncodeRequest(&Request{Op: OpPing})) {
		t.Fatal("single request mistaken for batch")
	}
	if IsBatchFrame(EncodeResponse(OK())) {
		t.Fatal("single response mistaken for batch")
	}
	if IsBatchFrame(nil) {
		t.Fatal("empty buffer mistaken for batch")
	}

	for name, buf := range map[string][]byte{
		"not batch":       {0x01},
		"bad version":     {batchMagic, 99, byte(BatchRequest), 0},
		"bad kind":        {batchMagic, BatchVersion, 77, 0},
		"truncated count": {batchMagic, BatchVersion, byte(BatchRequest)},
		"huge count":      {batchMagic, BatchVersion, byte(BatchRequest), 0xFF, 0xFF, 0xFF, 0xFF, 0x0F},
		"truncated entry": {batchMagic, BatchVersion, byte(BatchRequest), 1, 5},
		"trailing bytes":  append(EncodeBatch(BatchRequest, nil), 0xAA),
	} {
		if _, _, err := DecodeBatch(buf); err == nil {
			t.Errorf("%s: decode succeeded", name)
		}
	}
	for name, buf := range unknownFlagFrames {
		if _, _, err := DecodeBatch(buf); err == nil {
			t.Errorf("%s: decode succeeded", name)
		}
	}
}

// unknownFlagFrames are otherwise well-formed one-entry frames whose entry
// sets a flag bit the decoder does not know. Bit 5 once announced a span
// blob before the message; a peer still sending it must be refused, not
// have its blob misparsed as the message.
var unknownFlagFrames = map[string][]byte{
	"flag bit 5": {batchMagic, BatchVersion, byte(BatchResponse), 1, 5, 1 << 5, 1, 0, 1, 0xAA},
	"flag bit 6": {batchMagic, BatchVersion, byte(BatchRequest), 1, 5, 1 << 6, 1, 0xAA},
	"flag bit 7": {batchMagic, BatchVersion, byte(BatchRequest), 1, 5, 1 << 7, 1, 0xAA},
}

// TestBatchExtensionFreeLayout pins the wire bytes of entries carrying no
// token, trace or sampled bit: extension-free frames must stay
// byte-identical to version 1 frames that predate the flag-gated
// extensions, for a multi-byte id and an empty message too.
func TestBatchExtensionFreeLayout(t *testing.T) {
	frame := EncodeBatch(BatchRequest, []BatchEntry{
		{ID: 5, Msg: []byte{0xAA, 0xBB}},
		{ID: 300, Msg: []byte{}},
	})
	want := []byte{
		batchMagic, BatchVersion, byte(BatchRequest),
		2,          // entry count
		5,          // id
		0,          // flags: no extensions
		2,          // msg length
		0xAA, 0xBB, // msg
		0xAC, 0x02, // id 300, two uvarint bytes
		0, // flags
		0, // msg length: empty
	}
	if !bytes.Equal(frame, want) {
		t.Fatalf("extension-free frame = %x, want %x", frame, want)
	}
}

// TestBatchTraceExtensionLayout pins the traced entry: the trace ID follows
// the token and nothing follows the trace ID — the hop a span records is the
// request's own Hops, which the request codec already carries.
func TestBatchTraceExtensionLayout(t *testing.T) {
	frame := EncodeBatch(BatchRequest, []BatchEntry{{ID: 5, Token: 3, Trace: 9, Sampled: true, Msg: []byte{0xAA}}})
	want := []byte{
		batchMagic, BatchVersion, byte(BatchRequest),
		1, // entry count
		5, // id
		entryFlagToken | entryFlagTrace | entryFlagSampled,
		3,       // token
		9,       // trace id
		1, 0xAA, // msg
	}
	if !bytes.Equal(frame, want) {
		t.Fatalf("traced frame = %x, want %x", frame, want)
	}
}

func TestBatchVersionedRejectsFuture(t *testing.T) {
	frame := EncodeBatch(BatchRequest, []BatchEntry{{ID: 1, Msg: EncodeRequest(&Request{Op: OpPing})}})
	frame[1] = BatchVersion + 1
	if _, _, err := DecodeBatch(frame); err == nil {
		t.Fatal("future version accepted")
	}
}
