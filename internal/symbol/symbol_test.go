package symbol

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestInternStable(t *testing.T) {
	r := NewRegistry()
	a := r.Intern("alpha")
	b := r.Intern("beta")
	if a == b {
		t.Fatalf("distinct names got same symbol %d", a)
	}
	if got := r.Intern("alpha"); got != a {
		t.Fatalf("re-intern alpha: got %d want %d", got, a)
	}
	if r.Name(a) != "alpha" || r.Name(b) != "beta" {
		t.Fatalf("names: %q %q", r.Name(a), r.Name(b))
	}
}

func TestInternZeroNeverIssued(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < 100; i++ {
		if s := r.Fresh(); s == None {
			t.Fatal("Fresh issued the invalid zero symbol")
		}
	}
	if s := r.Intern("x"); s == None {
		t.Fatal("Intern issued the invalid zero symbol")
	}
}

func TestFreshUnique(t *testing.T) {
	r := NewRegistry()
	seen := make(map[Symbol]bool)
	for i := 0; i < 1000; i++ {
		s := r.Fresh()
		if seen[s] {
			t.Fatalf("Fresh repeated symbol %d", s)
		}
		seen[s] = true
	}
}

func TestFreshDoesNotCollideWithIntern(t *testing.T) {
	r := NewRegistry()
	// Pre-claim a name Fresh would otherwise generate.
	pre := r.Intern("#anon1")
	f := r.Fresh()
	if f == pre {
		t.Fatal("Fresh returned a symbol already interned by name")
	}
}

func TestLookup(t *testing.T) {
	r := NewRegistry()
	if _, ok := r.Lookup("missing"); ok {
		t.Fatal("Lookup found a missing name")
	}
	s := r.Intern("present")
	got, ok := r.Lookup("present")
	if !ok || got != s {
		t.Fatalf("Lookup(present) = %d,%v want %d,true", got, ok, s)
	}
}

func TestConcurrentIntern(t *testing.T) {
	r := NewRegistry()
	const workers = 32
	var wg sync.WaitGroup
	results := make([]Symbol, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = r.Intern("shared")
		}(i)
	}
	wg.Wait()
	for i := 1; i < workers; i++ {
		if results[i] != results[0] {
			t.Fatalf("concurrent Intern disagreed: %d vs %d", results[i], results[0])
		}
	}
	if r.Len() != 1 {
		t.Fatalf("registry has %d symbols, want 1", r.Len())
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

func TestNamesSorted(t *testing.T) {
	r := NewRegistry()
	r.Intern("b")
	r.Intern("a")
	r.Intern("c")
	names := r.Names()
	if len(names) != 3 || names[0] != "a" || names[1] != "b" || names[2] != "c" {
		t.Fatalf("Names() = %v", names)
	}
}

// TestCanonAllocs: a name built in a caller's buffer costs nothing, Canon
// costs its string, and parsing names into one reused Key costs nothing.
func TestCanonAllocs(t *testing.T) {
	k := K(1<<40, 7, 1<<31, 3)
	var buf [64]byte
	var out []byte
	if n := testing.AllocsPerRun(100, func() { out = k.AppendCanon(buf[:0]) }); n != 0 {
		t.Errorf("AppendCanon into a stack buffer allocates %v times", n)
	}
	if string(out) != k.Canon() {
		t.Fatalf("AppendCanon %q, Canon %q", out, k.Canon())
	}
	var s string
	if n := testing.AllocsPerRun(100, func() { s = k.Canon() }); n > 1 {
		t.Errorf("Canon allocates %v times, want its string only", n)
	}
	var into Key
	if n := testing.AllocsPerRun(100, func() {
		if err := ParseCanonInto(&into, s); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("ParseCanonInto a reused key allocates %v times", n)
	}
	if !into.Equal(k) {
		t.Fatalf("parsed %v, want %v", into, k)
	}
	for _, bad := range []string{"1/2.", "1/.2", "1/2..3"} {
		if err := ParseCanonInto(&into, bad); err == nil {
			t.Errorf("ParseCanonInto(%q) succeeded, want error", bad)
		}
	}
}
