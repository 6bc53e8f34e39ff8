package memoserver

import (
	"errors"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/rpc"
	"repro/internal/transport"
	"repro/internal/wire"
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
	res  rpc.Resilience

	mu      sync.Mutex
	conn    *rpc.Conn
	dialing chan struct{} // non-nil while a dial is in flight
	attempt int           // consecutive failed dials since the last success
	nextTry time.Time
	lastErr error
	closed  bool

	// Health counters (surfaced per link by stats; a node's collector
	// renders its peer links' as the node_link_* series, one per peer).
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
	// failing link, served as node_link_error's error label.
	LastErr string
}

// newRlink builds a link that reaches its peer through dial, which returns
// the raw transport conn. Creation does not dial.
func newRlink(dial func() (transport.Conn, error), res rpc.Resilience) *rlink {
	return &rlink{dial: dial, res: res}
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
		c = rpc.NewConnResilient(raw, l.res)
	}
	var dead *rpc.Conn
	l.mu.Lock()
	l.dialing = nil
	switch {
	case err != nil:
		l.failedDials.Inc()
		l.lastErr = err
		l.nextTry = time.Now().Add(l.res.Redial.Delay(l.attempt, nil))
		l.attempt++
	case l.closed:
		dead = c
	default:
		l.dials.Inc()
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

// live returns the link's conn if it is up, without dialing: what the read
// loop may relay on, since it must never wait for a dial.
func (l *rlink) live() *rpc.Conn {
	l.mu.Lock()
	defer l.mu.Unlock()
	if c := l.conn; c != nil {
		select {
		case <-c.Done():
		default:
			return c
		}
	}
	return nil
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
// call on it completes with a LinkError), so the next get re-dials under
// backoff, and the call is re-issued, up to res.Retries times: always when the
// request provably never reached the wire — a failed dial, or
// LinkError.Sent == false — and, once it may have executed, only when
// q.RetrySafe (the verb is idempotent, or the folder server deduplicates it
// by token). This being the one place that retries, it is also the one
// place that stamps the token (see stamp). A non-nil first is the failure of
// an attempt already issued elsewhere — a relay the read loop sent with
// rpc.Pending.Relay, stamped there — and counts against the retries like
// any other. retried counts the re-issues.
//
// The call returns the response or the one error that ends it:
// wire.ErrCanceled when the owning store said the canceled call consumed
// nothing, or no attempt can have reached it; a LinkError with Sent false
// when no attempt reached the wire; the dial's own error when the last dial
// failed. Once an attempt has failed with its request possibly sent,
// whatever ends the call — a cancel, a retry that died unsent, a failed
// re-dial — returns that attempt's link error (outcome unknown) instead.
func (l *rlink) call(q *wire.Request, cancel <-chan struct{}, first error, retried *obs.Counter) (*wire.Response, error) {
	l.stamp(q)
	// maybe is the first failure after which q may have executed.
	var maybe error
	for attempt := 0; ; attempt++ {
		err, retry := first, false
		first = nil
		if err == nil {
			var conn *rpc.Conn
			if conn, err = l.get(cancel); err != nil {
				select {
				case <-cancel:
					err = wire.ErrCanceled
				default:
					retry = true
				}
			} else {
				var resp *wire.Response
				if resp, err = conn.Call(q, cancel); err == nil {
					return resp, nil
				}
			}
		}
		// A wire.ErrCanceled from the store covers this attempt only: a
		// retry canceled while parked behind its original's token says
		// nothing of what the original took, so maybe still wins.
		var le *rpc.LinkError
		if errors.As(err, &le) {
			if le.Sent && maybe == nil {
				maybe = err
			}
			retry = !le.Sent || q.RetrySafe()
		}
		if retry && attempt < l.res.Retries {
			retried.Inc()
			continue
		}
		if maybe != nil {
			return nil, maybe
		}
		return nil, err
	}
}

// stamp gives a tokened q its at-most-once dedup token when retries are
// armed: once, before the first attempt, on q itself, so every attempt
// carries the same one. A token already present (stamped by the
// application's client or an earlier hop) is preserved — dedup is
// end-to-end.
func (l *rlink) stamp(q *wire.Request) {
	if l.res.Retries > 0 && q.Token == 0 && q.Op.Info().Tokened() {
		q.Token = wire.NewID()
	}
}
