package symbol

import (
	"fmt"
	"testing"
	"testing/quick"
)

// TestNamedPinned: a named symbol is stored in every memo and data
// directory that uses it, so a changed hash would orphan every named
// folder on restart.
func TestNamedPinned(t *testing.T) {
	if got := Named("jobs"); got != 4735831730983038941 {
		t.Fatalf("Named(jobs) = %d, want 4735831730983038941", got)
	}
	if Named("jobs") == Named("results") {
		t.Fatal("distinct names share a symbol")
	}
}

func TestNamedNonZeroNoAlloc(t *testing.T) {
	for i := 0; i < 1000; i++ {
		if Named(fmt.Sprintf("name%d", i)) == None {
			t.Fatalf("Named(name%d) is the invalid zero symbol", i)
		}
	}
	if Named("") == None {
		t.Fatal("Named(\"\") is the invalid zero symbol")
	}
	name := "lucid:fib"
	var s Symbol
	if n := testing.AllocsPerRun(100, func() { s = Named(name) }); n != 0 {
		t.Errorf("Named allocates %v times", n)
	}
	_ = s
}

func TestFreshNonZeroDistinct(t *testing.T) {
	seen := make(map[Symbol]bool)
	for i := 0; i < 1000; i++ {
		s := Fresh()
		if s == None {
			t.Fatal("Fresh issued the invalid zero symbol")
		}
		if seen[s] {
			t.Fatalf("Fresh repeated symbol %d", s)
		}
		seen[s] = true
	}
}

func TestKeyEqual(t *testing.T) {
	a := K(5, 1, 2, 3)
	b := K(5, 1, 2, 3)
	if !a.Equal(b) {
		t.Fatal("equal keys reported unequal")
	}
	if a.Equal(K(5, 1, 2)) {
		t.Fatal("different lengths reported equal")
	}
	if a.Equal(K(6, 1, 2, 3)) {
		t.Fatal("different symbols reported equal")
	}
	if a.Equal(K(5, 1, 2, 4)) {
		t.Fatal("different vectors reported equal")
	}
	if !K(7).Equal(Key{S: 7, X: []uint32{}}) {
		t.Fatal("nil and empty vectors should be equal")
	}
}

func TestKeyCanonRoundTrip(t *testing.T) {
	cases := []Key{
		K(1),
		K(42, 0),
		K(42, 1, 2, 3),
		K(1<<40, 4294967295, 0, 7),
	}
	for _, k := range cases {
		got, err := ParseCanon(k.Canon())
		if err != nil {
			t.Fatalf("ParseCanon(%q): %v", k.Canon(), err)
		}
		if !got.Equal(k) {
			t.Fatalf("round trip %q: got %v want %v", k.Canon(), got, k)
		}
	}
}

func TestParseCanonErrors(t *testing.T) {
	for _, s := range []string{"", "x", "1/x", "1/2.y", "-1"} {
		if _, err := ParseCanon(s); err == nil {
			t.Errorf("ParseCanon(%q) succeeded, want error", s)
		}
	}
}

func TestKeyCanonInjective(t *testing.T) {
	// Keys that could collide under naive string concatenation.
	a := K(1, 23)
	b := K(12, 3)
	c := K(1, 2, 3)
	if a.Canon() == b.Canon() || a.Canon() == c.Canon() || b.Canon() == c.Canon() {
		t.Fatalf("canonical forms collide: %q %q %q", a.Canon(), b.Canon(), c.Canon())
	}
}

func TestKeyHashProperties(t *testing.T) {
	// Equal keys hash equal; canonical form determines hash.
	f := func(s uint64, xs []uint32) bool {
		k1 := Key{S: Symbol(s), X: xs}
		k2 := k1.Clone()
		return k1.Hash() == k2.Hash()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKeyCanonRoundTripProperty(t *testing.T) {
	f := func(s uint64, xs []uint32) bool {
		k := Key{S: Symbol(s), X: xs}
		got, err := ParseCanon(k.Canon())
		return err == nil && got.Equal(k)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCloneIndependence(t *testing.T) {
	k := K(9, 1, 2)
	c := k.Clone()
	c.X[0] = 99
	if k.X[0] != 1 {
		t.Fatal("Clone shares the index vector")
	}
}

// TestCanonAllocs: a name built in a caller's buffer costs nothing, Canon
// costs its string, and parsing names into one reused Key costs nothing —
// for a numeric symbol and for a named one, whose hash fills 19–20 digits.
func TestCanonAllocs(t *testing.T) {
	for _, k := range []Key{K(1<<40, 7, 1<<31, 3), K(Named("jobs"), 4, 1<<31)} {
		var buf [64]byte
		var out []byte
		if n := testing.AllocsPerRun(100, func() { out = k.AppendCanon(buf[:0]) }); n != 0 {
			t.Errorf("%v: AppendCanon into a stack buffer allocates %v times", k, n)
		}
		if string(out) != k.Canon() {
			t.Fatalf("AppendCanon %q, Canon %q", out, k.Canon())
		}
		var s string
		if n := testing.AllocsPerRun(100, func() { s = k.Canon() }); n > 1 {
			t.Errorf("%v: Canon allocates %v times, want its string only", k, n)
		}
		var into Key
		if n := testing.AllocsPerRun(100, func() {
			if err := ParseCanonInto(&into, s); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%v: ParseCanonInto a reused key allocates %v times", k, n)
		}
		if !into.Equal(k) {
			t.Fatalf("parsed %v, want %v", into, k)
		}
	}
	var into Key
	for _, bad := range []string{"1/2.", "1/.2", "1/2..3"} {
		if err := ParseCanonInto(&into, bad); err == nil {
			t.Errorf("ParseCanonInto(%q) succeeded, want error", bad)
		}
	}
}
