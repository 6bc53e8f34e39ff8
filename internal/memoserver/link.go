package memoserver

import (
	"errors"
	"math/rand/v2"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/rpc"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Process-wide link-health aggregates over every rlink (the per-link view
// stays on rlink.stats). A backoff reset is a successful dial that healed a
// link after at least one failure — the "outage ended" event.
var (
	mDials = obs.Default.Counter("transport_dials_total",
		"successful dials across all links")
	mFailedDials = obs.Default.Counter("transport_failed_dials_total",
		"dial attempts that errored")
	mFaults = obs.Default.Counter("transport_faults_total",
		"live conns found dead")
	mBackoffResets = obs.Default.Counter("transport_backoff_resets_total",
		"successful dials that ended a failure streak")
)

// rlink is one resilient rpc link: its current rpc.Conn plus the re-dial
// that replaces it. A conn whose Done has closed is never handed out again —
// the next get counts it as a fault and re-dials under the res.Redial
// schedule. Dials are single-flight (concurrent gets during an outage share
// one attempt) and the schedule resets on every successful dial, so a peer
// that was up for a while gets a fast first retry when it next fails.
// Memo-server peer links and the application↔local-memo-server client link
// both ride on it, so a dead link anywhere in Fig. 1's path heals the same
// way: fail fast, back off, re-dial, retry what is safe.
type rlink struct {
	dial func() (transport.Conn, error)
	pol  rpc.Policy
	res  rpc.Resilience

	mu      sync.Mutex
	conn    *rpc.Conn
	dialing chan struct{} // non-nil while a dial is in flight
	attempt int           // consecutive failed dials since the last success
	nextTry time.Time
	lastErr error
	closed  bool

	// Health counters (surfaced per link by stats and summed into the
	// transport_* aggregates in obs.Default).
	dials       obs.Counter
	failedDials obs.Counter
	faults      obs.Counter
}

// LinkHealth is a snapshot of one link's health counters.
type LinkHealth struct {
	// Dials counts successful dials: the first connect plus every re-dial
	// that healed the link.
	Dials int64
	// FailedDials counts dial attempts that errored.
	FailedDials int64
	// Faults counts conns found dead and replaced.
	Faults int64
	// LastErr is the most recent dial error, empty while the link is healthy
	// (cleared by a successful dial) — the human-readable why behind a
	// failing link in /statusz.
	LastErr string `json:",omitempty"`
}

// newRlink builds a link that reaches its peer through dial, which returns
// the raw transport conn. Creation does not dial.
func newRlink(dial func() (transport.Conn, error), pol rpc.Policy, res rpc.Resilience) *rlink {
	return &rlink{dial: dial, pol: pol, res: res}
}

// get returns the live rpc connection, dialing if the link is down. At most
// one dial cycle runs per call: if the backoff window from the previous
// failure has not elapsed, get sleeps it out first (abandoned if giveup
// fires); if another goroutine is already dialing, get waits for that
// attempt's outcome instead of dialing itself. On failure the backoff
// advances and the dial error is returned — call decides whether to retry.
func (l *rlink) get(giveup <-chan struct{}) (*rpc.Conn, error) {
	for {
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			return nil, transport.ErrClosed
		}
		if c := l.conn; c != nil {
			select {
			case <-c.Done():
				l.conn = nil
				l.faults.Inc()
				mFaults.Inc()
			default:
				l.mu.Unlock()
				return c, nil
			}
		}
		if d := l.dialing; d != nil {
			// Join the in-flight dial.
			l.mu.Unlock()
			select {
			case <-d:
			case <-giveup:
				return nil, transport.ErrClosed
			}
			l.mu.Lock()
			c, err := l.conn, l.lastErr
			l.mu.Unlock()
			if c == nil && err != nil {
				return nil, err
			}
			continue
		}
		// Become the dialer.
		done := make(chan struct{})
		l.dialing = done
		wait := time.Until(l.nextTry)
		l.mu.Unlock()

		if wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-t.C:
			case <-giveup:
				t.Stop()
				// Abandoned before dialing: the schedule stays as it was.
				l.mu.Lock()
				l.dialing = nil
				l.mu.Unlock()
				close(done)
				return nil, transport.ErrClosed
			}
		}
		if err := l.redial(done); err != nil {
			return nil, err
		}
	}
}

// redial runs one dial, installs its outcome and releases the goroutines
// waiting on done.
func (l *rlink) redial(done chan struct{}) error {
	var c *rpc.Conn
	raw, err := l.dial()
	if err == nil {
		c = rpc.NewConnResilient(raw, l.pol, l.res)
	}
	var dead *rpc.Conn
	l.mu.Lock()
	l.dialing = nil
	switch {
	case err != nil:
		l.failedDials.Inc()
		mFailedDials.Inc()
		l.lastErr = err
		l.nextTry = time.Now().Add(l.res.Redial.Delay(l.attempt, nil))
		l.attempt++
	case l.closed:
		dead = c
	default:
		l.dials.Inc()
		mDials.Inc()
		if l.attempt > 0 {
			mBackoffResets.Inc()
		}
		l.conn = c
		l.attempt = 0 // reset-on-success: the next outage backs off from Min
		l.lastErr = nil
		l.nextTry = time.Time{}
	}
	l.mu.Unlock()
	close(done)
	if dead != nil {
		dead.Close()
	}
	return err
}

func (l *rlink) close() {
	l.mu.Lock()
	l.closed = true
	c := l.conn
	l.conn = nil
	l.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

// stats snapshots the link's health counters.
func (l *rlink) stats() LinkHealth {
	st := LinkHealth{
		Dials:       l.dials.Load(),
		FailedDials: l.failedDials.Load(),
		Faults:      l.faults.Load(),
	}
	l.mu.Lock()
	if l.lastErr != nil {
		st.LastErr = l.lastErr.Error()
	}
	l.mu.Unlock()
	return st
}

// call issues q on the link and waits for the response. If the link dies
// mid-call its conn is already dead (an rpc.Conn marks itself so before any
// call on it returns a LinkError), so the next get re-dials under backoff,
// and the call is re-issued, up to res.Retries times: always when the
// request provably never reached the wire — a failed dial, or
// LinkError.Sent == false — and, once it may have executed, only when
// q.RetrySafe (the verb is idempotent, or the folder server deduplicates it
// by token). This being the one place
// that retries, it is also the one place that stamps the token: once,
// before the first attempt, on q itself, so every attempt carries the same
// one; a token already present (stamped by the application's client or an
// earlier hop) is preserved — dedup is end-to-end. retried counts the
// re-issues. The bool reports whether the last attempt got a connection at
// all, so callers can word a dial failure apart from a failed call.
// ErrClientCanceled means the owning store said the canceled call consumed
// nothing, or that no attempt can have reached it: once an attempt has failed
// with its request possibly sent, a cancel returns that attempt's link error
// (outcome unknown) instead.
func (l *rlink) call(q *wire.Request, cancel <-chan struct{}, retried *obs.Counter) (*wire.Response, bool, error) {
	if l.res.Retries > 0 && q.Token == 0 && q.Op.Info().Tokened() {
		q.Token = newToken()
	}
	// canceled is what a cancel reports: that, until an attempt fails with
	// its request possibly executed; from then on that attempt's link error.
	canceled := error(ErrClientCanceled)
	for attempt := 0; ; attempt++ {
		conn, err := l.get(cancel)
		if err != nil {
			select {
			case <-cancel:
				return nil, canceled != ErrClientCanceled, canceled
			default:
			}
			if attempt < l.res.Retries {
				retried.Inc()
				continue
			}
			return nil, false, err
		}
		resp, err := conn.Call(q, cancel)
		if err == nil {
			return resp, true, nil
		}
		if err == rpc.ErrCanceled {
			// The store's answer covers this attempt only: a retry canceled
			// while parked behind its original's token says nothing of what
			// the original took.
			return nil, true, canceled
		}
		var le *rpc.LinkError
		if errors.As(err, &le) {
			if le.Sent && canceled == ErrClientCanceled {
				canceled = err
			}
			if attempt < l.res.Retries && (!le.Sent || q.RetrySafe()) {
				retried.Inc()
				continue
			}
		}
		return nil, true, err
	}
}

// newToken mints a non-zero at-most-once dedup token. 64 random bits
// against a bounded dedup window (folder.DefaultTokenCap live tokens per
// store) puts the collision probability per put far below the failure
// rates the token exists to mask.
func newToken() uint64 {
	for {
		if t := rand.Uint64(); t != 0 {
			return t
		}
	}
}
