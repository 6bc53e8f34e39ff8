// Package symbol implements D-Memo symbols and folder keys (paper §6.1.1).
//
// A key is "a symbol, S, followed by a vector of unsigned integers, X". Keys
// name folders. A symbol is a function of what names it and of nothing a
// process holds: Named hashes a name, so every process on every host that
// names "jobs" reaches the same folder, and Fresh (the paper's
// create_symbol) draws 64 random bits, so two processes' fresh symbols do
// not meet.
package symbol

import (
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"strconv"
	"strings"
)

// Symbol identifies a folder family: a named symbol's FNV-1a hash or a
// fresh random one. The zero Symbol is invalid.
type Symbol uint64

// None is the invalid zero symbol.
const None Symbol = 0

// FNV-1a 64-bit parameters (the same hash Key.Hash uses).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Named returns the symbol for name: its FNV-1a 64-bit hash, with the
// invalid zero mapped to 1. The value is part of what memos and data
// directories carry, so it must never change.
func Named(name string) Symbol {
	h := uint64(fnvOffset64)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= fnvPrime64
	}
	if h == 0 {
		return 1
	}
	return Symbol(h)
}

// Fresh returns a new anonymous symbol (§6.1.1 create_symbol): 64 random
// non-zero bits, so symbols minted by different processes do not collide
// in any application's lifetime.
func Fresh() Symbol {
	for {
		if s := Symbol(rand.Uint64()); s != None {
			return s
		}
	}
}

// Registry is an empty placeholder. Symbols are computed (Named, Fresh),
// not interned, so there is no per-process state to keep; NewRegistry and
// core.Config's Registry field remain only so that callers written against
// the old Config still compile.
type Registry struct{}

// NewRegistry returns the empty placeholder (see Registry).
func NewRegistry() *Registry { return &Registry{} }

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

// String renders the key with its symbol number: a named symbol's name is
// not recoverable from its hash.
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
