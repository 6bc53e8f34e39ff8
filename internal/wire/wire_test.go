package wire

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/symbol"
)

func TestRequestRoundTrip(t *testing.T) {
	q := &Request{
		Op:       OpPutDelayed,
		App:      "invert",
		FolderID: 7,
		Hops:     2,
		Key:      symbol.K(5, 1, 2),
		Key2:     symbol.K(6),
		Keys:     []symbol.Key{symbol.K(8, 9), symbol.K(10)},
		Payload:  []byte{1, 2, 3},
		ADF:      "APP x",
	}
	got, err := DecodeRequest(EncodeRequest(q))
	if err != nil {
		t.Fatal(err)
	}
	if got.Op != q.Op || got.App != q.App || got.FolderID != q.FolderID || got.Hops != q.Hops {
		t.Fatalf("header mismatch: %+v", got)
	}
	if !got.Key.Equal(q.Key) || !got.Key2.Equal(q.Key2) {
		t.Fatal("keys mismatch")
	}
	if len(got.Keys) != 2 || !got.Keys[0].Equal(q.Keys[0]) || !got.Keys[1].Equal(q.Keys[1]) {
		t.Fatalf("alt keys mismatch: %v", got.Keys)
	}
	if string(got.Payload) != string(q.Payload) || got.ADF != q.ADF {
		t.Fatal("payload/adf mismatch")
	}
}

// TestNamedKeyRoundTrip: a named symbol is a 64-bit hash, a 9–10 byte
// varint, far past the small numbers the other cases carry.
func TestNamedKeyRoundTrip(t *testing.T) {
	k := symbol.K(symbol.Named("jobs"), 4, 1<<31)
	q := &Request{Op: OpPutDelayed, App: "a", Key: k, Key2: symbol.K(symbol.Named("results")),
		Keys: []symbol.Key{k}, Payload: []byte("v")}
	got, err := DecodeRequest(EncodeRequest(q))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Key.Equal(k) || !got.Key2.Equal(q.Key2) || len(got.Keys) != 1 || !got.Keys[0].Equal(k) {
		t.Fatalf("named keys: got %v %v %v", got.Key, got.Key2, got.Keys)
	}
	p, err := DecodeResponse(EncodeResponse(&Response{Status: StatusWake, Key: k}))
	if err != nil || !p.Key.Equal(k) {
		t.Fatalf("named response key: got %v, %v", p, err)
	}
}

func TestMinimalRequest(t *testing.T) {
	q := &Request{Op: OpPing}
	got, err := DecodeRequest(EncodeRequest(q))
	if err != nil {
		t.Fatal(err)
	}
	if got.Op != OpPing || got.Keys != nil || got.Payload != nil {
		t.Fatalf("got %+v", got)
	}
}

func TestResponseRoundTrip(t *testing.T) {
	p := &Response{Status: StatusWake, Key: symbol.K(3, 4), Payload: []byte("xyz"), Err: "nope"}
	got, err := DecodeResponse(EncodeResponse(p))
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != p.Status || !got.Key.Equal(p.Key) || string(got.Payload) != "xyz" || got.Err != "nope" {
		t.Fatalf("got %+v", got)
	}
}

func TestDecodeRequestTruncated(t *testing.T) {
	full := EncodeRequest(&Request{
		Op: OpPut, App: "a", Key: symbol.K(1, 2), Payload: []byte("data"),
	})
	for cut := 0; cut < len(full); cut++ {
		if _, err := DecodeRequest(full[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestDecodeResponseTruncated(t *testing.T) {
	full := EncodeResponse(&Response{Status: StatusOK, Key: symbol.K(1), Payload: []byte("p")})
	for cut := 0; cut < len(full); cut++ {
		if _, err := DecodeResponse(full[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestInvalidOpRejected(t *testing.T) {
	buf := EncodeRequest(&Request{Op: OpPing})
	buf[0] = 200
	if _, err := DecodeRequest(buf); err == nil {
		t.Fatal("invalid op accepted")
	}
	buf[0] = 0
	if _, err := DecodeRequest(buf); err == nil {
		t.Fatal("zero op accepted")
	}
}

func TestInvalidStatusRejected(t *testing.T) {
	buf := EncodeResponse(OK())
	for _, st := range []Status{StatusInvalid, StatusCanceled + 1, 99} {
		buf[0] = byte(st)
		if _, err := DecodeResponse(buf); err == nil {
			t.Fatalf("invalid status %d accepted", st)
		}
	}
	buf[0] = byte(StatusCanceled)
	if p, err := DecodeResponse(buf); err != nil || p.Status != StatusCanceled {
		t.Fatalf("StatusCanceled: %+v %v", p, err)
	}
}

func TestTrailingBytesRejected(t *testing.T) {
	if _, err := DecodeRequest(append(EncodeRequest(&Request{Op: OpPing}), 0)); err == nil {
		t.Fatal("trailing request bytes accepted")
	}
	if _, err := DecodeResponse(append(EncodeResponse(OK()), 0)); err == nil {
		t.Fatal("trailing response bytes accepted")
	}
}

func TestHostileKeyCount(t *testing.T) {
	// Craft a request claiming 2^50 alt keys.
	w := &writer{}
	w.byte(byte(OpAltTake))
	w.str("app")
	w.u64(0)
	w.u64(0)
	w.key(symbol.Key{})
	w.key(symbol.Key{})
	w.u64(1 << 50) // hostile count
	if _, err := DecodeRequest(w.buf); err == nil {
		t.Fatal("hostile key count accepted")
	}
}

func TestErrf(t *testing.T) {
	p := Errf("folder %d missing", 3)
	if p.Status != StatusErr || p.Err != "folder 3 missing" {
		t.Fatalf("%+v", p)
	}
	// Fail: a wrapped ErrCanceled is still the store's canceled answer;
	// anything else is an error response carrying its text.
	if p := Fail(fmt.Errorf("get: %w", ErrCanceled)); p.Status != StatusCanceled || p.Err != "" {
		t.Fatalf("Fail(canceled) = %+v", p)
	}
	if p := Fail(errors.New("boom")); p.Status != StatusErr || p.Err != "boom" {
		t.Fatalf("Fail(boom) = %+v", p)
	}
}

// TestOpTable: every defined verb has a row with a unique non-empty name,
// any other byte reads the zero row instead of panicking, and the in-flight
// retry rule comes out as the literal rows below say.
func TestOpTable(t *testing.T) {
	seen := map[string]Op{}
	for op := OpPut; op <= OpAltSkip; op++ {
		v := op.Info()
		if v.Name == "" || v.Scope == ScopeNone || op.String() != v.Name {
			t.Fatalf("op %d: row %+v, String %q", op, *v, op.String())
		}
		if prev, dup := seen[v.Name]; dup {
			t.Fatalf("ops %d and %d share the name %q", prev, op, v.Name)
		}
		seen[v.Name] = op
	}
	if int(OpAltSkip)+1 != len(ops) {
		t.Fatalf("op table has %d rows, the last verb is %d", len(ops), OpAltSkip)
	}
	for _, op := range []Op{OpInvalid, OpAltSkip + 1, 99, 255} {
		if v := op.Info(); *v != (OpInfo{}) {
			t.Fatalf("op %d: row %+v, want the zero row", op, *v)
		}
	}
	if Op(99).String() != "op(99)" {
		t.Fatal("unknown op string")
	}
	// without / with: RetrySafe of a request carrying no token / a token.
	retry := []struct {
		op            Op
		without, with bool
	}{
		{OpPut, false, true}, {OpPutDelayed, false, true}, {OpGet, false, true},
		{OpGetCopy, true, true}, {OpGetSkip, false, true}, {OpAltTake, false, true},
		{OpWatch, true, true}, {OpRegister, true, true}, {OpPing, true, true},
		{OpPump, false, false}, {OpFetch, true, true}, {OpAltSkip, false, true},
		{Op(99), false, false},
	}
	for _, r := range retry {
		without := (&Request{Op: r.op}).RetrySafe()
		with := (&Request{Op: r.op, Token: 7}).RetrySafe()
		if without != r.without || with != r.with {
			t.Errorf("%v: RetrySafe %v without a token, %v with; want %v, %v", r.op, without, with, r.without, r.with)
		}
	}
}

// Property: requests with arbitrary string/byte content round-trip.
func TestQuickRequestRoundTrip(t *testing.T) {
	f := func(app string, sym uint64, xs []uint32, payload []byte, adf string) bool {
		q := &Request{
			Op:      OpPut,
			App:     app,
			Key:     symbol.Key{S: symbol.Symbol(sym), X: xs},
			Payload: payload,
			ADF:     adf,
		}
		got, err := DecodeRequest(EncodeRequest(q))
		if err != nil {
			return false
		}
		return got.App == app && got.Key.Equal(q.Key) &&
			string(got.Payload) == string(payload) && got.ADF == adf
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncodeRequest(b *testing.B) {
	q := &Request{Op: OpPut, App: "invert", Key: symbol.K(5, 1, 2), Payload: make([]byte, 256)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		EncodeRequest(q)
	}
}

func BenchmarkDecodeRequest(b *testing.B) {
	buf := EncodeRequest(&Request{Op: OpPut, App: "invert", Key: symbol.K(5, 1, 2), Payload: make([]byte, 256)})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeRequest(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func TestNewID(t *testing.T) {
	seen := make(map[uint64]bool)
	for i := 0; i < 100; i++ {
		id := NewID()
		if id == 0 {
			t.Fatal("zero id")
		}
		if seen[id] {
			t.Fatalf("duplicate id %d in 100 draws", id)
		}
		seen[id] = true
	}
}
