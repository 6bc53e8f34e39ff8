package transport

import (
	"math/rand"
	"time"
)

// Backoff is an exponential reconnect schedule with jitter: attempt n waits
// Min·BackoffFactorⁿ, capped at Max, with the wait drawn uniformly from
// [d·(1-BackoffJitter), d] so a partitioned cluster's redials decorrelate
// instead of stampeding the recovering peer. The zero value means the
// defaults.
type Backoff struct {
	// Min is the first retry delay (default 20ms).
	Min time.Duration
	// Max caps the delay (default 3s).
	Max time.Duration
}

// Backoff defaults and constants.
const (
	DefaultBackoffMin = 20 * time.Millisecond
	DefaultBackoffMax = 3 * time.Second
	// BackoffFactor multiplies the delay per attempt.
	BackoffFactor = 2.0
	// BackoffJitter is the fraction of the delay randomized away.
	BackoffJitter = 0.2
)

func (b Backoff) withDefaults() Backoff {
	if b.Min <= 0 {
		b.Min = DefaultBackoffMin
	}
	if b.Max <= 0 {
		b.Max = DefaultBackoffMax
	}
	if b.Max < b.Min {
		b.Max = b.Min
	}
	return b
}

// Base returns the un-jittered delay before retry attempt n (0-based):
// Min·BackoffFactorⁿ capped at Max. Negative attempts count as 0.
func (b Backoff) Base(attempt int) time.Duration {
	b = b.withDefaults()
	d := float64(b.Min)
	for i := 0; i < attempt; i++ {
		d *= BackoffFactor
		if d >= float64(b.Max) {
			return b.Max
		}
	}
	return time.Duration(d)
}

// Delay returns the jittered delay before retry attempt n. rnd supplies the
// randomness in [0,1); nil uses the global source. The result always lies in
// [Base(n)·(1-BackoffJitter), Base(n)].
func (b Backoff) Delay(attempt int, rnd func() float64) time.Duration {
	base := b.Base(attempt)
	if rnd == nil {
		rnd = rand.Float64
	}
	lo := float64(base) * (1 - BackoffJitter)
	return time.Duration(lo + rnd()*(float64(base)-lo))
}
