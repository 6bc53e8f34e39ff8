package main

import (
	"math"
	"sort"
)

// numSlices is how many equal slices the timed window is cut into. Every
// end-to-end metric is the median of its per-slice values, so one perturbed
// slice (a neighbour's burst on a shared host) moves the result far less
// than it moves a whole-run mean.
const numSlices = 9

// sample is one completed round: when it finished, relative to the start of
// the timed window, and how long it took (0 when the round has no latency of
// its own to report).
type sample struct {
	doneNS  int64
	roundNS int64
}

// sliceOf maps a completion time to its slice, or -1 when the time falls
// outside the window (warm-up, or the tail after the window closed).
func sliceOf(doneNS, windowNS int64) int {
	if doneNS < 0 || doneNS >= windowNS {
		return -1
	}
	return int(doneNS * numSlices / windowNS)
}

// median returns the middle value (mean of the two middle values for an
// even count) and NaN for an empty input. The input is not modified.
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// percentileFloor is how many samples must lie beyond a percentile for it
// to be reported (choosing-metrics: "the highest percentile that has at
// least ten samples beyond it").
const percentileFloor = 10

// percentile returns the p-th percentile (0<p<1) of sorted, nearest-rank,
// and whether at least percentileFloor samples lie beyond it. The median
// (p=0.5) needs the floor on both sides.
func percentile(sorted []int64, p float64) (int64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= n {
		rank = n - 1
	}
	beyond := n - 1 - rank
	ok := beyond >= percentileFloor
	if p <= 0.5 && rank < percentileFloor {
		ok = false
	}
	return sorted[rank], ok
}

// quartiles returns Q1, Q2, Q3 the way Python's
// statistics.quantiles(v, n=4) does (exclusive method), which is what the
// acceptance check for this benchmark uses. It needs at least two values.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return math.NaN(), math.NaN(), math.NaN()
	}
	at := func(i int) float64 { // i-th of 3 cut points, 1-based
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// sliceStats is what one slice of the window measured.
type sliceStats struct {
	rounds   int
	ops      int
	latN     int // rounds that contributed a latency sample
	p50US    float64
	p99US    float64
	p50OK    bool    // the median has percentileFloor samples on either side
	goodput  float64 // ops per second
	cpuMSKop float64 // daemon CPU ms per 1000 ops
}

// opsPerRound: every round, of every workload, is one Put and one Get.
const opsPerRound = 2

// cutSlices assigns every sample to its slice of the window that starts at
// startNS and computes the per-slice round count and latency percentiles.
// Latency comes only from samples whose roundNS is positive (ping-pong
// responders record completions but no latency of their own).
func cutSlices(samples [][]sample, startNS, windowNS int64) [numSlices]sliceStats {
	var lat [numSlices][]int64
	var out [numSlices]sliceStats
	for _, per := range samples {
		for _, s := range per {
			i := sliceOf(s.doneNS-startNS, windowNS)
			if i < 0 {
				continue
			}
			out[i].rounds++
			if s.roundNS > 0 {
				lat[i] = append(lat[i], s.roundNS)
			}
		}
	}
	sliceSec := float64(windowNS) / numSlices / 1e9
	for i := range out {
		out[i].ops = out[i].rounds * opsPerRound
		out[i].goodput = float64(out[i].ops) / sliceSec
		out[i].latN = len(lat[i])
		sort.Slice(lat[i], func(a, b int) bool { return lat[i][a] < lat[i][b] })
		p50, ok50 := percentile(lat[i], 0.50)
		p99, _ := percentile(lat[i], 0.99)
		out[i].p50US, out[i].p50OK = float64(p50)/1e3, ok50
		out[i].p99US = float64(p99) / 1e3
	}
	return out
}

// sliceMedian is the median over slices of one per-slice quantity.
func sliceMedian(sl [numSlices]sliceStats, f func(sliceStats) float64) float64 {
	v := make([]float64, 0, numSlices)
	for _, s := range sl {
		v = append(v, f(s))
	}
	return median(v)
}

// sliceSpreadPct is (max-min)/median of per-slice goodput, in percent: how
// unsteady the window was. A large value marks a run as noisy.
func sliceSpreadPct(sl [numSlices]sliceStats) float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, s := range sl {
		lo = math.Min(lo, s.goodput)
		hi = math.Max(hi, s.goodput)
	}
	med := sliceMedian(sl, func(s sliceStats) float64 { return s.goodput })
	if med == 0 {
		return math.Inf(1)
	}
	return (hi - lo) / med * 100
}
