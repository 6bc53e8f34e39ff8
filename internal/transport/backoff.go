package transport

import (
	"math/rand"
	"sync"
	"time"

	"repro/internal/obs"
)

// Process-wide link-health aggregates over every Redialer (the per-link view
// stays on Redialer.Stats). A backoff reset is a successful dial that healed
// a link after at least one failure — the "outage ended" event.
var (
	mDials = obs.Default.Counter("transport_dials_total",
		"successful dials across all redialers")
	mFailedDials = obs.Default.Counter("transport_failed_dials_total",
		"dial attempts that errored")
	mFaults = obs.Default.Counter("transport_faults_total",
		"live conns reported dead")
	mBackoffResets = obs.Default.Counter("transport_backoff_resets_total",
		"successful dials that ended a failure streak")
)

// Backoff is an exponential reconnect schedule with jitter: attempt n waits
// Min·Factorⁿ, capped at Max, with the wait drawn uniformly from
// [d·(1-Jitter), d] so a partitioned cluster's redials decorrelate instead
// of stampeding the recovering peer. The zero value means the defaults.
type Backoff struct {
	// Min is the first retry delay (default 20ms).
	Min time.Duration
	// Max caps the delay (default 3s).
	Max time.Duration
	// Factor multiplies the delay per attempt (default 2).
	Factor float64
	// Jitter is the fraction of the delay randomized away (default 0.2;
	// 0 < Jitter ≤ 1 yields delays in [d·(1-Jitter), d]).
	Jitter float64
}

// Backoff defaults.
const (
	DefaultBackoffMin    = 20 * time.Millisecond
	DefaultBackoffMax    = 3 * time.Second
	DefaultBackoffFactor = 2.0
	DefaultBackoffJitter = 0.2
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
	if b.Factor < 1 {
		b.Factor = DefaultBackoffFactor
	}
	if b.Jitter <= 0 || b.Jitter > 1 {
		b.Jitter = DefaultBackoffJitter
	}
	return b
}

// Base returns the un-jittered delay before retry attempt n (0-based):
// Min·Factorⁿ capped at Max. Negative attempts count as 0.
func (b Backoff) Base(attempt int) time.Duration {
	b = b.withDefaults()
	d := float64(b.Min)
	for i := 0; i < attempt; i++ {
		d *= b.Factor
		if d >= float64(b.Max) {
			return b.Max
		}
	}
	if d > float64(b.Max) {
		return b.Max
	}
	return time.Duration(d)
}

// Delay returns the jittered delay before retry attempt n. rnd supplies the
// randomness in [0,1); nil uses the global source. The result always lies in
// [Base(n)·(1-Jitter), Base(n)].
func (b Backoff) Delay(attempt int, rnd func() float64) time.Duration {
	base := b.Base(attempt)
	j := b.withDefaults().Jitter
	if rnd == nil {
		rnd = rand.Float64
	}
	lo := float64(base) * (1 - j)
	return time.Duration(lo + rnd()*(float64(base)-lo))
}

// Redialer manages one logical peer link over an unreliable network: it
// hands out the current Conn, and when the caller reports the conn dead
// (Fault) the next Get re-dials under the Backoff schedule. Dials are
// single-flight — concurrent Gets during an outage share one dial attempt —
// and the schedule resets on every successful dial, so a peer that was up
// for a while gets a fast first retry when it next fails.
type Redialer struct {
	dial func() (Conn, error)
	bo   Backoff

	mu      sync.Mutex
	cur     Conn
	epoch   uint64 // increments per successful dial
	attempt int    // consecutive failed dials since the last success
	nextTry time.Time
	lastErr error
	dialing chan struct{} // non-nil while a dial is in flight
	closed  bool

	// Health counters (surfaced per link by Stats and summed into the
	// transport_* aggregates in obs.Default).
	dials       obs.Counter
	failedDials obs.Counter
	faults      obs.Counter
}

// RedialerStats is a snapshot of one link's health counters.
type RedialerStats struct {
	// Dials counts successful dials: the first connect plus every re-dial
	// that healed the link.
	Dials int64
	// FailedDials counts dial attempts that errored.
	FailedDials int64
	// Faults counts reports of a live conn dying (stale-epoch reports are
	// not counted — only ones that actually tore a conn down).
	Faults int64
	// LastErr is the most recent dial error, empty while the link is healthy
	// (cleared by a successful dial) — the human-readable why behind a
	// failing link in /statusz.
	LastErr string `json:",omitempty"`
}

// Stats snapshots the link's health counters.
func (r *Redialer) Stats() RedialerStats {
	st := RedialerStats{
		Dials:       r.dials.Load(),
		FailedDials: r.failedDials.Load(),
		Faults:      r.faults.Load(),
	}
	r.mu.Lock()
	if r.lastErr != nil {
		st.LastErr = r.lastErr.Error()
	}
	r.mu.Unlock()
	return st
}

// NewRedialer wraps dial with reconnect state. The zero Backoff means the
// defaults.
func NewRedialer(dial func() (Conn, error), bo Backoff) *Redialer {
	return &Redialer{dial: dial, bo: bo.withDefaults()}
}

// Get returns the live conn and its epoch, dialing if the link is down. At
// most one dial cycle runs per call: if the backoff window from the previous
// failure has not elapsed, Get sleeps it out first (abandoned if giveup
// fires); if another goroutine is already dialing, Get waits for that
// attempt's outcome instead of dialing itself. On failure the backoff
// advances and the dial error is returned — the caller decides whether to
// retry, so a bounded-retry policy composes naturally on top.
func (r *Redialer) Get(giveup <-chan struct{}) (Conn, uint64, error) {
	for {
		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			return nil, 0, ErrClosed
		}
		if r.cur != nil {
			c, ep := r.cur, r.epoch
			r.mu.Unlock()
			return c, ep, nil
		}
		if d := r.dialing; d != nil {
			// Join the in-flight dial.
			r.mu.Unlock()
			select {
			case <-d:
			case <-giveup:
				return nil, 0, ErrClosed
			}
			r.mu.Lock()
			c, ep, err := r.cur, r.epoch, r.lastErr
			r.mu.Unlock()
			if c != nil {
				return c, ep, nil
			}
			if err == nil {
				// The joined dial succeeded but a Fault (or an abandoned
				// dial) beat us to the result; go around again.
				continue
			}
			return nil, 0, err
		}
		// Become the dialer.
		done := make(chan struct{})
		r.dialing = done
		wait := time.Until(r.nextTry)
		r.mu.Unlock()

		if wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-t.C:
			case <-giveup:
				t.Stop()
				r.finishDial(nil, nil, done, false)
				return nil, 0, ErrClosed
			}
		}
		c, err := r.dial()
		r.finishDial(c, err, done, true)
		r.mu.Lock()
		cur, ep, lastErr, closed := r.cur, r.epoch, r.lastErr, r.closed
		r.mu.Unlock()
		if closed {
			return nil, 0, ErrClosed
		}
		if cur != nil {
			return cur, ep, nil
		}
		if err == nil {
			// Our successful dial raced Fault; loop and try again.
			continue
		}
		return nil, 0, lastErr
	}
}

// finishDial installs a dial outcome and releases waiters. attempted is
// false when the dial was abandoned before running (giveup during backoff).
func (r *Redialer) finishDial(c Conn, err error, done chan struct{}, attempted bool) {
	r.mu.Lock()
	r.dialing = nil
	switch {
	case !attempted:
		// Leave the schedule as it was.
	case err != nil:
		r.failedDials.Inc()
		mFailedDials.Inc()
		r.lastErr = err
		r.nextTry = time.Now().Add(r.bo.Delay(r.attempt, nil))
		r.attempt++
	case r.closed:
		if c != nil {
			c.Close()
		}
	default:
		r.dials.Inc()
		mDials.Inc()
		if r.attempt > 0 {
			mBackoffResets.Inc()
		}
		r.cur = c
		r.epoch++
		r.attempt = 0 // reset-on-success: the next outage backs off from Min
		r.lastErr = nil
		r.nextTry = time.Time{}
	}
	r.mu.Unlock()
	close(done)
}

// Fault reports that the conn handed out under epoch is dead. The conn is
// closed and the next Get re-dials. Stale epochs (a concurrent Fault already
// replaced the conn) are ignored, so every caller of a shared link may
// Fault freely.
func (r *Redialer) Fault(epoch uint64) {
	r.mu.Lock()
	var dead Conn
	if r.cur != nil && r.epoch == epoch {
		dead = r.cur
		r.cur = nil
	}
	r.mu.Unlock()
	if dead != nil {
		r.faults.Inc()
		mFaults.Inc()
		dead.Close()
	}
}

// Attempt reports the consecutive failed dials since the last success.
func (r *Redialer) Attempt() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.attempt
}

// Close retires the link; subsequent Gets fail with ErrClosed.
func (r *Redialer) Close() {
	r.mu.Lock()
	r.closed = true
	dead := r.cur
	r.cur = nil
	r.mu.Unlock()
	if dead != nil {
		dead.Close()
	}
}
