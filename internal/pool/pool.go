// Package pool provides size-classed byte buffers for the request hot path.
//
// Every hop of the request path fills buffers — the encoded request or
// response, the frame the transport sends, the copy it receives — and each
// has the same life cycle: filled, handed to exactly one consumer, dead. So
// they recycle through a small set of size-classed free lists instead of
// the garbage collector.
//
// Ownership rules (the whole contract):
//
//   - Get(n) returns a zero-length buffer with capacity ≥ n that the caller
//     owns exclusively. Append to it freely; it never moves to another class.
//   - Put(b) relinquishes ownership. The caller must not touch b (or any
//     alias of it) afterwards. Put is optional — a buffer that escapes to a
//     component unaware of the pool is simply collected by the GC.
//   - Never Put the same backing array twice. When a buffer is handed off
//     (e.g. a transport delivering a received frame), exactly one side —
//     the final consumer — Puts it.
//   - Subslices are fine: Put files a buffer under the largest class that
//     still fits its capacity, so a buffer trimmed by a few header bytes
//     recycles at the class below at worst.
//
// Free lists are buffered channels rather than sync.Pools: channel sends and
// receives of a []byte do not allocate (a sync.Pool round trip boxes the
// slice header on every Put), each class stays memory-bounded without GC
// cooperation, and the single-lock cost of a channel is invisible next to
// the lock already serializing every transport send.
package pool

import (
	"strconv"

	"repro/internal/obs"
)

// Size classes: powers of two from minSize (64 B) through maxSize (1 MiB).
// Requests beyond maxSize fall through to plain allocation and are dropped
// on Put — only a memo near the rpc size bound is that large.
const (
	minShift = 6
	maxShift = 20
	minSize  = 1 << minShift
	maxSize  = 1 << maxShift

	// classMem bounds each class's idle memory, so an idle process parks at
	// most classMem per class (a few MiB total) no matter what burst it saw.
	classMem = 1 << 22
)

var classes [maxShift - minShift + 1]chan []byte

// Per-class traffic counters (one atomic add each on Get/Put): a miss is a
// Get the free list could not serve, so miss/get is the pool's working-set
// fit and a persistently high ratio means the class quota is too small for
// the offered load. Oversize counts Gets beyond the largest class, which
// bypass pooling entirely.
var (
	gets     [maxShift - minShift + 1]obs.Counter
	puts     [maxShift - minShift + 1]obs.Counter
	misses   [maxShift - minShift + 1]obs.Counter
	oversize obs.Counter
)

func init() {
	for i := range classes {
		size := 1 << (minShift + i)
		slots := classMem / size
		if slots > 256 {
			slots = 256
		}
		if slots < 4 {
			slots = 4
		}
		classes[i] = make(chan []byte, slots)

		labels := map[string]string{"class": strconv.Itoa(size)}
		obs.Default.RegisterCounter("pool_gets_total",
			"buffer gets per size class", labels, &gets[i])
		obs.Default.RegisterCounter("pool_puts_total",
			"buffer puts per size class", labels, &puts[i])
		obs.Default.RegisterCounter("pool_misses_total",
			"gets served by fresh allocation per size class", labels, &misses[i])
	}
	obs.Default.RegisterCounter("pool_oversize_total",
		"gets beyond the largest class (unpooled)", nil, &oversize)
}

// classFor returns the index of the smallest class with size ≥ n, or -1 when
// n exceeds the largest class.
func classFor(n int) int {
	if n > maxSize {
		return -1
	}
	c := 0
	for size := minSize; size < n; size <<= 1 {
		c++
	}
	return c
}

// Get returns a zero-length buffer with capacity at least n, owned
// exclusively by the caller until Put.
func Get(n int) []byte {
	c := classFor(n)
	if c < 0 {
		oversize.Inc()
		return make([]byte, 0, n)
	}
	gets[c].Inc()
	select {
	case b := <-classes[c]:
		return b
	default:
		misses[c].Inc()
		return make([]byte, 0, 1<<(minShift+uint(c)))
	}
}

// Put relinquishes b to the pool. The buffer is filed under the largest
// class its capacity still covers; buffers smaller than the smallest class,
// larger than the largest (they were plain allocations from Get, and
// parking multi-MiB arrays in the top class would break its memory bound),
// or arriving when the class is full are dropped for the GC.
func Put(b []byte) {
	c := cap(b)
	if c < minSize || c > maxSize {
		return
	}
	idx := 0
	for size := minSize; size<<1 <= c && idx < len(classes)-1; size <<= 1 {
		idx++
	}
	puts[idx].Inc()
	select {
	case classes[idx] <- b[:0]:
	default:
	}
}
