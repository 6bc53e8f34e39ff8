package transferable

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/symbol"
)

func roundTrip(t *testing.T, v Value) Value {
	t.Helper()
	b, err := Marshal(v)
	if err != nil {
		t.Fatalf("Marshal(%v): %v", v, err)
	}
	got, err := Unmarshal(b, Domain64)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	return got
}

func TestScalarRoundTrips(t *testing.T) {
	cases := []Value{
		Nil{},
		Bool(true), Bool(false),
		Int8(-128), Int8(127),
		Int16(-32768), Int16(32767),
		Int32(math.MinInt32), Int32(math.MaxInt32),
		Int64(math.MinInt64), Int64(math.MaxInt64),
		Uint8(255), Uint16(65535), Uint32(math.MaxUint32), Uint64(math.MaxUint64),
		Float32(3.14159), Float64(2.718281828459045),
		Float64(math.Inf(1)), Float64(math.Inf(-1)),
		String(""), String("héllo wörld"),
		Bytes(nil), Bytes{0, 1, 2, 255},
	}
	for _, v := range cases {
		got := roundTrip(t, v)
		if !Equal(got, v) {
			t.Errorf("round trip %#v: got %#v", v, got)
		}
	}
}

func TestNaNRoundTrip(t *testing.T) {
	got := roundTrip(t, Float64(math.NaN()))
	f, ok := got.(Float64)
	if !ok || !math.IsNaN(float64(f)) {
		t.Fatalf("NaN round trip: got %#v", got)
	}
}

func TestKeyValueRoundTrip(t *testing.T) {
	k := symbol.K(42, 1, 2, 3)
	got := roundTrip(t, KeyValue{K: k})
	kv, ok := got.(KeyValue)
	if !ok || !kv.K.Equal(k) {
		t.Fatalf("key round trip: got %#v", got)
	}
}

// TestKeyValueNamedSymbol: a key naming a folder by name carries a 64-bit
// hash inside the memo.
func TestKeyValueNamedSymbol(t *testing.T) {
	k := symbol.K(symbol.Named("jobs"), 4, 1<<31)
	got := roundTrip(t, KeyValue{K: k})
	if kv, ok := got.(KeyValue); !ok || !kv.K.Equal(k) {
		t.Fatalf("named key round trip: got %#v", got)
	}
}

func TestListRoundTrip(t *testing.T) {
	l := NewList(Int64(1), String("two"), NewList(Bool(true)))
	got := roundTrip(t, l).(*List)
	if !Equal(got, l) {
		t.Fatalf("list round trip mismatch")
	}
}

func TestRecordRoundTripPreservesOrder(t *testing.T) {
	r := NewRecord().Set("z", Int64(1)).Set("a", Int64(2)).Set("m", Int64(3))
	got := roundTrip(t, r).(*Record)
	f := got.Fields()
	if len(f) != 3 || f[0] != "z" || f[1] != "a" || f[2] != "m" {
		t.Fatalf("field order not preserved: %v", f)
	}
	if !Equal(got, r) {
		t.Fatal("record round trip mismatch")
	}
}

func TestSelfReferentialList(t *testing.T) {
	l := NewList(Int64(7))
	l.Append(l) // cycle
	got := roundTrip(t, l).(*List)
	if got.Len() != 2 {
		t.Fatalf("len = %d", got.Len())
	}
	if got.At(1) != Value(got) {
		t.Fatal("cycle not reconstructed: second item is not the list itself")
	}
}

func TestSharedSubstructurePreserved(t *testing.T) {
	shared := NewList(Int64(1), Int64(2))
	top := NewList(shared, shared)
	got := roundTrip(t, top).(*List)
	a, b := got.At(0).(*List), got.At(1).(*List)
	if a != b {
		t.Fatal("shared substructure duplicated on decode")
	}
	a.Items[0] = Int64(99)
	if v, _ := AsInt(b.At(0)); v != 99 {
		t.Fatal("decoded items do not alias")
	}
}

func TestMutualCycle(t *testing.T) {
	a := NewRecord()
	b := NewRecord()
	a.Set("other", b).Set("name", String("a"))
	b.Set("other", a).Set("name", String("b"))
	got := roundTrip(t, a).(*Record)
	gb, _ := got.Get("other")
	gbr := gb.(*Record)
	back, _ := gbr.Get("other")
	if back != Value(got) {
		t.Fatal("mutual cycle not reconstructed")
	}
	if n, _ := gbr.Get("name"); string(n.(String)) != "b" {
		t.Fatal("inner record fields lost")
	}
}

func TestDeepNesting(t *testing.T) {
	// 1000-deep nesting exercises recursive encode/decode without overflow.
	v := Value(Int64(0))
	for i := 0; i < 1000; i++ {
		v = NewList(v)
	}
	got := roundTrip(t, v)
	for i := 0; i < 1000; i++ {
		l, ok := got.(*List)
		if !ok || l.Len() != 1 {
			t.Fatalf("nesting broken at depth %d", i)
		}
		got = l.At(0)
	}
	if n, _ := AsInt(got); n != 0 {
		t.Fatal("leaf lost")
	}
}

func TestLossyNativeInt(t *testing.T) {
	// 64-bit host sends a large native int to a 16-bit host: ErrLossy.
	b, err := Marshal(Native{V: 100000, Bits: 64})
	if err != nil {
		t.Fatal(err)
	}
	_, err = Unmarshal(b, Domain16)
	var lossy *ErrLossy
	if !errors.As(err, &lossy) {
		t.Fatalf("want ErrLossy, got %v", err)
	}
	if lossy.Have != 16 || lossy.Need != 32 {
		t.Fatalf("lossy detail: %+v", lossy)
	}
	// The same value fits a 32-bit host.
	if _, err := Unmarshal(b, Domain32); err != nil {
		t.Fatalf("32-bit host rejected representable value: %v", err)
	}
}

func TestNativeIntFitsSmallValue(t *testing.T) {
	b, err := Marshal(Native{V: 1234, Bits: 64})
	if err != nil {
		t.Fatal(err)
	}
	v, err := Unmarshal(b, Domain16)
	if err != nil {
		t.Fatalf("small native int rejected: %v", err)
	}
	if n := v.(Native); n.V != 1234 {
		t.Fatalf("value = %d", n.V)
	}
}

func TestLossyNativeFloat(t *testing.T) {
	v := 1.0000000001 // not representable in float32
	b, err := Marshal(NativeFloat{V: v, Bits: 64})
	if err != nil {
		t.Fatal(err)
	}
	_, err = Unmarshal(b, Domain16) // FloatBits: 32
	var lossy *ErrLossy
	if !errors.As(err, &lossy) {
		t.Fatalf("want ErrLossy, got %v", err)
	}
	// float32-exact values pass.
	b2, _ := Marshal(NativeFloat{V: 0.5, Bits: 64})
	if _, err := Unmarshal(b2, Domain16); err != nil {
		t.Fatalf("exact value rejected: %v", err)
	}
}

func TestAbsoluteDomainsNeverLossy(t *testing.T) {
	// The paper's prescription: absolute domains transfer losslessly even to
	// the narrowest host.
	for _, v := range []Value{Int64(math.MaxInt64), Float64(1.0000000001), Uint64(math.MaxUint64)} {
		b, err := Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Unmarshal(b, Domain16)
		if err != nil {
			t.Fatalf("absolute domain %T rejected on 16-bit host: %v", v, err)
		}
		if !Equal(got, v) {
			t.Fatalf("absolute domain %T altered: %v", v, got)
		}
	}
}

func TestTruncatedInputs(t *testing.T) {
	full, err := Marshal(NewList(String("hello"), Int64(42)))
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(full); cut++ {
		if _, err := Unmarshal(full[:cut], Domain64); err == nil {
			t.Fatalf("truncation at %d/%d accepted", cut, len(full))
		}
	}
}

func TestTrailingGarbageRejected(t *testing.T) {
	b, _ := Marshal(Int64(1))
	if _, err := Unmarshal(append(b, 0xFF), Domain64); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestDanglingRefRejected(t *testing.T) {
	e := NewEncoder()
	e.writeTag(TagRef)
	e.writeUvarint(99)
	if _, err := Unmarshal(e.Bytes(), Domain64); err == nil {
		t.Fatal("dangling back-reference accepted")
	}
}

func TestUnknownTagRejected(t *testing.T) {
	if _, err := Unmarshal([]byte{0xEE}, Domain64); err == nil {
		t.Fatal("unknown tag accepted")
	}
}

func TestHostileLengthRejected(t *testing.T) {
	// A string claiming 2^40 bytes must be rejected, not allocated.
	e := NewEncoder()
	e.writeTag(TagString)
	e.writeUvarint(1 << 40)
	if _, err := Unmarshal(e.Bytes(), Domain64); err == nil {
		t.Fatal("hostile string length accepted")
	}
	e2 := NewEncoder()
	e2.writeTag(TagBytes)
	e2.writeUvarint(1 << 40)
	if _, err := Unmarshal(e2.Bytes(), Domain64); err == nil {
		t.Fatal("hostile bytes length accepted")
	}
	e3 := NewEncoder()
	e3.writeTag(TagKey)
	e3.writeUvarint(1)       // symbol
	e3.writeUvarint(1 << 40) // vector length
	if _, err := Unmarshal(e3.Bytes(), Domain64); err == nil {
		t.Fatal("hostile key length accepted")
	}
}

// quick-check: any tree of ints/strings round-trips exactly.
func TestQuickRoundTripInts(t *testing.T) {
	f := func(xs []int64) bool {
		l := &List{}
		for _, x := range xs {
			l.Append(Int64(x))
		}
		b, err := Marshal(l)
		if err != nil {
			return false
		}
		got, err := Unmarshal(b, Domain64)
		return err == nil && Equal(got, l)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickRoundTripStrings(t *testing.T) {
	f := func(ss []string) bool {
		l := &List{}
		for _, s := range ss {
			l.Append(String(s))
		}
		b, err := Marshal(l)
		if err != nil {
			return false
		}
		got, err := Unmarshal(b, Domain64)
		return err == nil && Equal(got, l)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickNativeLossyIffOutOfRange(t *testing.T) {
	f := func(v int64) bool {
		b, err := Marshal(Native{V: v, Bits: 64})
		if err != nil {
			return false
		}
		_, err = Unmarshal(b, Domain16)
		fits := v >= -32768 && v <= 32767
		if fits {
			return err == nil
		}
		var lossy *ErrLossy
		return errors.As(err, &lossy)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

type point struct {
	X, Y int64
	Next *point // may form a cycle
}

func (*point) Tag() Tag         { return TagUser }
func (*point) TypeName() string { return "test.point" }

func (p *point) EncodeFields(e *Encoder) error {
	e.WriteInt(p.X)
	e.WriteInt(p.Y)
	if p.Next == nil {
		return e.WriteValue(Nil{})
	}
	return e.WriteValue(p.Next)
}

func (p *point) DecodeFields(d *Decoder) error {
	var err error
	if p.X, err = d.ReadInt(); err != nil {
		return err
	}
	if p.Y, err = d.ReadInt(); err != nil {
		return err
	}
	v, err := d.ReadValue()
	if err != nil {
		return err
	}
	if next, ok := v.(*point); ok {
		p.Next = next
	}
	return nil
}

func init() {
	RegisterUserType("test.point", func() UserValue { return &point{} })
}

func TestUserTypeRoundTrip(t *testing.T) {
	p := &point{X: 3, Y: 4}
	got := roundTrip(t, p).(*point)
	if got.X != 3 || got.Y != 4 || got.Next != nil {
		t.Fatalf("got %+v", got)
	}
}

func TestUserTypeCycle(t *testing.T) {
	a := &point{X: 1}
	b2 := &point{X: 2, Next: a}
	a.Next = b2
	got := roundTrip(t, a).(*point)
	if got.Next == nil || got.Next.Next != got {
		t.Fatal("user-type cycle not reconstructed")
	}
	if got.Next.X != 2 {
		t.Fatalf("fields lost: %+v", got.Next)
	}
}

func TestUnknownUserTypeRejected(t *testing.T) {
	e := NewEncoder()
	e.writeTag(TagUser)
	e.writeUvarint(0)
	e.writeString("no.such.type")
	if _, err := Unmarshal(e.Bytes(), Domain64); err == nil {
		t.Fatal("unknown user type accepted")
	}
}

func TestDuplicateUserTypePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	RegisterUserType("test.point", func() UserValue { return &point{} })
}

func BenchmarkEncodeFlatList(b *testing.B) {
	l := &List{}
	for i := 0; i < 1000; i++ {
		l.Append(Int64(i))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Marshal(l); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeFlatList(b *testing.B) {
	l := &List{}
	for i := 0; i < 1000; i++ {
		l.Append(Int64(i))
	}
	data, _ := Marshal(l)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Unmarshal(data, Domain64); err != nil {
			b.Fatal(err)
		}
	}
}
