// Package symbol implements D-Memo symbols and folder keys (paper §6.1.1).
//
// A key is "a symbol, S, followed by a vector of unsigned integers, X". Keys
// name folders. Symbols are interned in a Registry so that distinct processes
// of one application can agree on symbol identity by name: create_symbol in
// the paper returns a fresh unique symbol, while Intern resolves a stable
// symbol for a known name (the paper's named objects rely on this).
package symbol

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Symbol identifies an interned name. The zero Symbol is invalid.
type Symbol uint64

// None is the invalid zero symbol.
const None Symbol = 0

// Registry interns symbols. It is safe for concurrent use. The zero value is
// not usable; call NewRegistry.
type Registry struct {
	mu      sync.RWMutex
	byName  map[string]Symbol
	names   map[Symbol]string
	next    Symbol
	anonSeq uint64
}

// NewRegistry returns an empty symbol registry.
func NewRegistry() *Registry {
	return &Registry{
		byName: make(map[string]Symbol),
		names:  make(map[Symbol]string),
		next:   1,
	}
}

// Intern returns the symbol for name, creating it if necessary. Interning the
// same name twice yields the same symbol.
func (r *Registry) Intern(name string) Symbol {
	r.mu.RLock()
	s, ok := r.byName[name]
	r.mu.RUnlock()
	if ok {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.byName[name]; ok {
		return s
	}
	s = r.next
	r.next++
	r.byName[name] = s
	r.names[s] = name
	return s
}

// Fresh returns a new unique anonymous symbol (the paper's create_symbol).
// The generated name is reserved in the registry so it cannot collide with a
// later Intern.
func (r *Registry) Fresh() Symbol {
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		r.anonSeq++
		name := "#anon" + strconv.FormatUint(r.anonSeq, 10)
		if _, taken := r.byName[name]; taken {
			continue
		}
		s := r.next
		r.next++
		r.byName[name] = s
		r.names[s] = name
		return s
	}
}

// Name reports the interned name for s, or "" if s is unknown.
func (r *Registry) Name(s Symbol) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.names[s]
}

// Lookup returns the symbol for name without creating it.
func (r *Registry) Lookup(name string) (Symbol, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s, ok := r.byName[name]
	return s, ok
}

// Len reports the number of interned symbols.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.byName)
}

// Names returns all interned names in sorted order (for diagnostics).
func (r *Registry) Names() []string {
	r.mu.RLock()
	out := make([]string, 0, len(r.byName))
	for n := range r.byName {
		out = append(out, n)
	}
	r.mu.RUnlock()
	sort.Strings(out)
	return out
}

// Key is a folder name: a symbol plus a vector of unsigned integers. The
// vector lets applications build structured names — the paper stores array
// element a[i,j] in the key {S: a, X: [i, j, 0]}.
type Key struct {
	S Symbol
	X []uint32
}

// K constructs a key from a symbol and index vector.
func K(s Symbol, x ...uint32) Key {
	return Key{S: s, X: x}
}

// Equal reports whether two keys name the same folder. A nil and an empty
// index vector are equivalent.
func (k Key) Equal(o Key) bool {
	if k.S != o.S || len(k.X) != len(o.X) {
		return false
	}
	for i := range k.X {
		if k.X[i] != o.X[i] {
			return false
		}
	}
	return true
}

// Canon returns the canonical string form of the key, usable as a map key.
// The form is "S/x0.x1.x2"; an empty vector yields just "S".
func (k Key) Canon() string {
	var buf [64]byte
	return string(k.AppendCanon(buf[:0]))
}

// AppendCanon appends the canonical form to b: with a stack buffer a lookup
// by name (m[string(b)]) costs no allocation, and only the party that keeps
// the name pays for a string.
func (k Key) AppendCanon(b []byte) []byte {
	b = strconv.AppendUint(b, uint64(k.S), 10)
	for i, x := range k.X {
		if i == 0 {
			b = append(b, '/')
		} else {
			b = append(b, '.')
		}
		b = strconv.AppendUint(b, uint64(x), 10)
	}
	return b
}

// Hash returns a stable 64-bit FNV-1a hash of the key. Every host must
// compute the same hash for the same key: folder placement depends on it.
func (k Key) Hash() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	putU64(buf[:], uint64(k.S))
	h.Write(buf[:])
	var b4 [4]byte
	for _, x := range k.X {
		putU32(b4[:], x)
		h.Write(b4[:])
	}
	return h.Sum64()
}

// String renders the key with its symbol number; use Registry.Name for a
// human-readable symbol.
func (k Key) String() string {
	return "key{" + k.Canon() + "}"
}

// Clone returns a deep copy of the key (the index vector is copied).
func (k Key) Clone() Key {
	if k.X == nil {
		return Key{S: k.S}
	}
	x := make([]uint32, len(k.X))
	copy(x, k.X)
	return Key{S: k.S, X: x}
}

// ParseCanon parses a string produced by Canon.
func ParseCanon(s string) (Key, error) {
	var k Key
	err := ParseCanonInto(&k, s)
	return k, err
}

// ParseCanonInto is ParseCanon into k's own storage: the index vector's
// capacity is reused, so a loop parsing many names into one Key allocates
// only when a vector outgrows every one before it.
func ParseCanonInto(k *Key, s string) error {
	symPart, vecPart, _ := strings.Cut(s, "/")
	sv, err := strconv.ParseUint(symPart, 10, 64)
	if err != nil {
		return fmt.Errorf("symbol: bad canonical key %q: %v", s, err)
	}
	k.S, k.X = Symbol(sv), k.X[:0]
	for more := vecPart != ""; more; {
		var p string
		p, vecPart, more = strings.Cut(vecPart, ".")
		xv, err := strconv.ParseUint(p, 10, 32)
		if err != nil {
			return fmt.Errorf("symbol: bad canonical key %q: %v", s, err)
		}
		k.X = append(k.X, uint32(xv))
	}
	return nil
}

func putU64(b []byte, v uint64) {
	_ = b[7]
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	b[4] = byte(v >> 32)
	b[5] = byte(v >> 40)
	b[6] = byte(v >> 48)
	b[7] = byte(v >> 56)
}

func putU32(b []byte, v uint32) {
	_ = b[3]
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}
