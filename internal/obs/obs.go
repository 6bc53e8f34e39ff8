// Package obs is the observability core: allocation-free metric primitives
// (counters, gauges, fixed-bucket histograms), a process-wide registry with
// Prometheus text-format and JSON exposition, the tracer that records what a
// request did (sampled span trees and slow requests, named by
// wire-propagated trace IDs), and the debug HTTP server every daemon mounts
// at -debug-addr.
//
// The primitives are designed for the steady-state request path, which PR 5
// made allocation-free and which memolint audits: a Counter increment, a
// Gauge move, and a Histogram observation are each a handful of atomic adds
// — no locks, no boxing, no allocation — so instrumentation can sit directly
// on the hot path without perturbing the AllocsPerRun gates it is meant to
// watch over.
//
// Metrics are usable standalone (a bare Counter is just an atomic with a
// name waiting to happen) or registered: package-level aggregates register
// into Default at init, per-instance metrics (a folder store's op counters,
// a redialer's link health) live inside their owner and surface either by
// explicit registration or through a scrape-time Collector that walks
// whatever instances exist at that moment.
package obs

import (
	"math/bits"
	"sync/atomic"
)

// Counter is a monotonically increasing count. The zero value is ready to
// use. Inc and Add are single atomic adds: safe on any hot path.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative for the counter to stay monotone;
// this is not checked — it is one atomic add).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load snapshots the count.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is an instantaneous value that can move both ways. The zero value
// is ready to use.
type Gauge struct {
	v atomic.Int64
}

// Add moves the gauge by n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Load snapshots the value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// histBuckets is the fixed bucket count: powers of four from 4⁰ through
// 4³¹, plus a final overflow slot, covering every positive int64. Powers of
// four give ~2 significant bits of resolution per decade — coarse, but the
// slow tail of a latency distribution is visible at a glance and the bucket
// index is a branch-free bit-length computation.
const histBuckets = 33

// Histogram is a fixed-bucket distribution (bucket i counts observations v
// with 4^(i-1) < v ≤ 4^i; non-positive observations land in bucket 0). The
// zero value is ready to use. Observe is two atomic adds — no locks, no
// allocation — so latency histograms can sit directly on the request path.
//
// Observations are unitless int64s; latency series in this repository
// observe nanoseconds.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	sum     atomic.Int64
}

// bucketIndex returns ceil(log₄ v) clamped to the bucket range: the slot
// whose upper bound 4^i is the first to cover v.
func bucketIndex(v int64) int {
	if v <= 1 {
		return 0
	}
	// For v ≥ 2, (bits.Len64(v-1)+1)/2 is exactly ceil(log₄ v): v in
	// (4^(i-1), 4^i] has bit length of v-1 in {2i-1, 2i}.
	i := (bits.Len64(uint64(v-1)) + 1) / 2
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	h.buckets[bucketIndex(v)].Add(1)
	h.sum.Add(v)
}

// Count reports the total number of observations.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// Sum reports the sum of all observed values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Snapshot copies the per-bucket counts (non-cumulative).
func (h *Histogram) Snapshot() [histBuckets]int64 {
	var out [histBuckets]int64
	for i := range h.buckets {
		out[i] = h.buckets[i].Load()
	}
	return out
}

// BucketBound reports bucket i's inclusive upper bound, or -1 for the
// overflow bucket (rendered +Inf in the exposition).
func BucketBound(i int) int64 {
	if i >= histBuckets-1 {
		return -1
	}
	return 1 << (2 * uint(i))
}
