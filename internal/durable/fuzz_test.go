package durable

import (
	"bytes"
	"testing"

	"repro/internal/symbol"
)

// FuzzDecodeWALRecord drives DecodeRecord with hostile bytes: it must never
// panic, and anything it accepts must re-encode and re-decode to the same
// record (so a torn or bit-flipped frame that slips past the CRC can still
// never be "applied" as something other than what it claims to be).
func FuzzDecodeWALRecord(f *testing.F) {
	seeds := []*Record{
		{Type: RecPut, Key: symbol.K(7, 1, 2), Payload: []byte("hello"), Token: 42},
		{Type: RecPutDelayed, Key: symbol.K(9), Dest: symbol.K(11, 0, 5), Payload: []byte("hidden")},
		{Type: RecTake, Key: symbol.K(3), Payload: []byte("taken")},
		{Type: RecToken, Token: ^uint64(0)},
		{Type: RecPut, Key: symbol.K(symbol.Named("jobs"), 4, 9), Payload: []byte("named")},
	}
	for _, r := range seeds {
		f.Add(encodeBody(r))
	}
	f.Add([]byte{})
	f.Add([]byte{byte(RecPut)})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := DecodeRecord(data)
		if err != nil {
			return
		}
		re := encodeBody(rec)
		rec2, err := DecodeRecord(re)
		if err != nil {
			t.Fatalf("re-decode of accepted record failed: %v (orig %x)", err, data)
		}
		if rec2.Type != rec.Type || !rec2.Key.Equal(rec.Key) || !rec2.Dest.Equal(rec.Dest) ||
			!bytes.Equal(rec2.Payload, rec.Payload) || rec2.Token != rec.Token {
			t.Fatalf("unstable round trip: %+v vs %+v", rec, rec2)
		}
		// The canonical encoding must be a fixed point.
		if re2 := encodeBody(rec2); !bytes.Equal(re, re2) {
			t.Fatalf("encoding not canonical: %x vs %x", re, re2)
		}
	})
}

// FuzzNextFrame drives the frame splitter: no panics, and an accepted frame
// must carry a CRC-consistent body.
func FuzzNextFrame(f *testing.F) {
	f.Add(AppendRecord(nil, &Record{Type: RecToken, Token: 9}))
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		rest := data
		for i := 0; i < 1000; i++ {
			body, r, ok := nextFrame(rest)
			if !ok {
				break
			}
			if len(r) >= len(rest) {
				t.Fatal("frame made no progress")
			}
			_ = body
			rest = r
		}
	})
}
