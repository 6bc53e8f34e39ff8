package wire

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/symbol"
)

// Fuzzers: hostile input must never panic the codec (ROADMAP "fuzzer for
// the wire codec on hostile input"). Whatever decodes successfully must
// re-encode canonically and decode back to the same value.

func seedRequests() []*Request {
	return []*Request{
		{Op: OpPing},
		{Op: OpPut, App: "app", FolderID: 3, Hops: 2, Key: symbol.K(7, 1, 2), Payload: []byte("payload")},
		{Op: OpPutDelayed, App: "a", Key: symbol.K(1), Key2: symbol.K(2, 4), Payload: []byte{0}},
		{Op: OpAltTake, App: "alt", Keys: []symbol.Key{symbol.K(1), symbol.K(2, 9), symbol.K(3)}},
		{Op: OpWatch, App: "w", Keys: []symbol.Key{symbol.K(5)}},
		{Op: OpAltSkip, App: "alt", Keys: []symbol.Key{symbol.K(4), symbol.K(6, 1)}},
		{Op: OpRegister, ADF: "APP x\nHOSTS\na 1 sun4 1\n"},
		{Op: OpPump, App: "p", Dir: "worker", TargetHost: "far", Payload: bytes.Repeat([]byte{0xAB}, 100)},
		{Op: OpFetch, App: "p", Dir: "worker", TargetHost: "far"},
		{Op: OpGet, App: "named", Key: symbol.K(symbol.Named("jobs"), 4, 9)},
	}
}

func seedResponses() []*Response {
	return []*Response{
		OK(),
		{Status: StatusOK, Key: symbol.K(4, 1), Payload: []byte("v")},
		{Status: StatusEmpty},
		{Status: StatusWake, Key: symbol.K(9)},
		Errf("boom %d", 7),
		{Status: StatusCanceled},
	}
}

func FuzzDecodeRequest(f *testing.F) {
	for _, q := range seedRequests() {
		f.Add(EncodeRequest(q))
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF})
	f.Add([]byte{byte(OpPut)})
	f.Fuzz(func(t *testing.T, data []byte) {
		q, err := DecodeRequest(data)
		if err != nil {
			return
		}
		buf := EncodeRequest(q)
		q2, err := DecodeRequest(buf)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !reflect.DeepEqual(q, q2) {
			t.Fatalf("round trip diverged:\n%+v\n%+v", q, q2)
		}
	})
}

// FuzzAppendEncoders checks the encode-in-place variants against the
// allocating encoders on every decodable input: AppendRequest/AppendResponse/
// AppendBatch must produce byte-identical output after any prefix, so a
// buffer with transport header space reserved up front carries exactly the
// frame the wire format promises.
func FuzzAppendEncoders(f *testing.F) {
	for _, q := range seedRequests() {
		f.Add(EncodeRequest(q))
	}
	for _, p := range seedResponses() {
		f.Add(EncodeResponse(p))
	}
	f.Add(EncodeBatch(BatchRequest, []BatchEntry{{ID: 1, Token: 7, Msg: EncodeRequest(&Request{Op: OpPing})}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		prefix := []byte("0123456789abcdefghijk") // ~MuxHeaderSpace of reserved scratch
		if q, err := DecodeRequest(data); err == nil {
			want := EncodeRequest(q)
			got := AppendRequest(append([]byte(nil), prefix...), q)
			if !bytes.Equal(got[len(prefix):], want) || !bytes.Equal(got[:len(prefix)], prefix) {
				t.Fatalf("AppendRequest diverged from EncodeRequest")
			}
			if len(want) > RequestOverhead(q) {
				t.Fatalf("RequestOverhead underestimates: encoded %d > bound %d", len(want), RequestOverhead(q))
			}
		}
		if p, err := DecodeResponse(data); err == nil {
			want := EncodeResponse(p)
			got := AppendResponse(append([]byte(nil), prefix...), p)
			if !bytes.Equal(got[len(prefix):], want) || !bytes.Equal(got[:len(prefix)], prefix) {
				t.Fatalf("AppendResponse diverged from EncodeResponse")
			}
			if len(want) > ResponseOverhead(p) {
				t.Fatalf("ResponseOverhead underestimates: encoded %d > bound %d", len(want), ResponseOverhead(p))
			}
		}
		if kind, entries, err := DecodeBatch(data); err == nil {
			want := EncodeBatch(kind, entries)
			got := AppendBatch(append([]byte(nil), prefix...), kind, entries)
			if !bytes.Equal(got[len(prefix):], want) || !bytes.Equal(got[:len(prefix)], prefix) {
				t.Fatalf("AppendBatch diverged from EncodeBatch")
			}
		}
	})
}

// FuzzAliasRetain pins the zero-copy decode ownership contract on hostile
// input: decoded payloads alias the read buffer, and Retain must fully
// detach them — after Retain, mutating every byte of the backing buffer
// must not change the retained payload, and the retained message must still
// re-encode canonically.
func FuzzAliasRetain(f *testing.F) {
	for _, q := range seedRequests() {
		f.Add(EncodeRequest(q))
	}
	for _, p := range seedResponses() {
		f.Add(EncodeResponse(p))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if q, err := DecodeRequest(data); err == nil {
			snap := string(q.Payload)
			q.Retain()
			for i := range data {
				data[i] ^= 0xFF
			}
			if string(q.Payload) != snap {
				t.Fatalf("request payload changed after Retain: %q != %q", q.Payload, snap)
			}
			for i := range data {
				data[i] ^= 0xFF
			}
		}
		if p, err := DecodeResponse(data); err == nil {
			snap := string(p.Payload)
			p.Retain()
			for i := range data {
				data[i] ^= 0xFF
			}
			if string(p.Payload) != snap {
				t.Fatalf("response payload changed after Retain: %q != %q", p.Payload, snap)
			}
		}
	})
}

func FuzzDecodeResponse(f *testing.F) {
	for _, p := range seedResponses() {
		f.Add(EncodeResponse(p))
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodeResponse(data)
		if err != nil {
			return
		}
		buf := EncodeResponse(p)
		p2, err := DecodeResponse(buf)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !reflect.DeepEqual(p, p2) {
			t.Fatalf("round trip diverged:\n%+v\n%+v", p, p2)
		}
	})
}

func FuzzDecodeBatch(f *testing.F) {
	var reqEntries, respEntries []BatchEntry
	for i, q := range seedRequests() {
		reqEntries = append(reqEntries, BatchEntry{ID: uint64(i), Msg: EncodeRequest(q)})
	}
	reqEntries = append(reqEntries, BatchEntry{ID: 99, Cancel: true}, BatchEntry{ID: 98, Heartbeat: true},
		BatchEntry{ID: 97, Token: 0xABCDEF, Msg: EncodeRequest(&Request{Op: OpPut, Key: symbol.K(3)})},
		BatchEntry{ID: 96, Sampled: true, Trace: 0x1F3A8C22, Msg: EncodeRequest(&Request{Op: OpPut, Key: symbol.K(4)})})
	for i, p := range seedResponses() {
		respEntries = append(respEntries, BatchEntry{ID: uint64(i), Msg: EncodeResponse(p)})
	}
	f.Add(EncodeBatch(BatchRequest, reqEntries))
	f.Add(EncodeBatch(BatchResponse, respEntries))
	f.Add(EncodeBatch(BatchRequest, nil))
	f.Add([]byte{batchMagic})
	f.Add([]byte{batchMagic, BatchVersion, byte(BatchRequest), 0xFF, 0xFF, 0xFF})
	for _, frame := range unknownFlagFrames {
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		kind, entries, err := DecodeBatch(data)
		if err != nil {
			return
		}
		if !IsBatchFrame(data) {
			t.Fatal("DecodeBatch accepted a non-batch frame")
		}
		// Entry messages themselves must decode or fail cleanly — the rpc
		// layer feeds them straight to the per-kind decoder.
		for _, e := range entries {
			switch kind {
			case BatchRequest:
				_, _ = DecodeRequest(e.Msg)
			case BatchResponse:
				_, _ = DecodeResponse(e.Msg)
			default:
				t.Fatalf("decoded invalid kind %v", kind)
			}
		}
		// Canonical re-encode round-trips.
		frame := EncodeBatch(kind, entries)
		kind2, entries2, err := DecodeBatch(frame)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if kind2 != kind || len(entries2) != len(entries) {
			t.Fatalf("round trip diverged: %v/%d vs %v/%d", kind, len(entries), kind2, len(entries2))
		}
		for i := range entries {
			if entries[i].ID != entries2[i].ID || entries[i].Cancel != entries2[i].Cancel ||
				entries[i].Heartbeat != entries2[i].Heartbeat ||
				entries[i].Token != entries2[i].Token ||
				entries[i].Trace != entries2[i].Trace ||
				entries[i].Sampled != entries2[i].Sampled ||
				!bytes.Equal(entries[i].Msg, entries2[i].Msg) {
				t.Fatalf("entry %d diverged", i)
			}
		}
	})
}
