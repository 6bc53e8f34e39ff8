package memoserver

import (
	"errors"
	"math/rand/v2"
	"sync"

	"repro/internal/obs"
	"repro/internal/rpc"
	"repro/internal/transport"
	"repro/internal/wire"
)

// rlink is one resilient rpc link: a transport.Redialer managing the raw
// connection plus the rpc.Conn built on whatever the redialer currently
// holds. Memo-server peer links and the application↔local-memo-server
// client link both ride on it, so a dead link anywhere in Fig. 1's path
// heals the same way: fail fast, back off, re-dial, retry what is safe.
type rlink struct {
	rd  *transport.Redialer
	pol rpc.Policy
	res rpc.Resilience

	mu    sync.Mutex
	epoch uint64
	conn  *rpc.Conn
}

// muxChannel is the conn an rlink's Redialer manages: one rpc virtual
// circuit whose Close also retires the mux carrying it, so a faulted link
// leaks neither.
type muxChannel struct {
	*transport.Channel
	mux *transport.Mux
}

func (m *muxChannel) Close() error {
	_ = m.Channel.Close()
	return m.mux.Close()
}

// dialMux wraps a raw transport conn into the mux-backed channel an rlink
// manages.
func dialMux(raw transport.Conn) transport.Conn {
	mux := transport.NewMux(raw, transport.DefaultMTU)
	go mux.Run()
	return &muxChannel{Channel: mux.Channel(1), mux: mux}
}

func newRlink(dial func() (transport.Conn, error), pol rpc.Policy, res rpc.Resilience) *rlink {
	return &rlink{rd: transport.NewRedialer(dial, res.Redial), pol: pol, res: res}
}

// get returns the live rpc connection (dialing or re-dialing under backoff
// if the link is down) and the epoch to report to fault on failure.
func (l *rlink) get(giveup <-chan struct{}) (*rpc.Conn, uint64, error) {
	ch, ep, err := l.rd.Get(giveup)
	if err != nil {
		return nil, 0, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	// Only a strictly newer epoch replaces the conn: a goroutine that slept
	// on an old Get result must not tear down the link a concurrent fault
	// cycle already rebuilt. Whatever is current is what we hand back (a
	// stale ch is dead anyway), with the matching epoch for fault.
	if l.conn == nil || ep > l.epoch {
		if l.conn != nil {
			l.conn.Close()
		}
		l.conn = rpc.NewConnResilient(ch, l.pol, l.res)
		l.epoch = ep
	}
	return l.conn, l.epoch, nil
}

// fault reports the connection handed out under epoch dead; the next get
// re-dials. Stale epochs are ignored, so concurrent callers may all fault.
func (l *rlink) fault(epoch uint64) { l.rd.Fault(epoch) }

func (l *rlink) close() {
	l.rd.Close()
	l.mu.Lock()
	c := l.conn
	l.conn = nil
	l.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

// call issues q on the link and waits for the response. If the link dies
// mid-call it is faulted (the next get re-dials under backoff) and the call
// re-issued, up to res.Retries times: always when the request provably never
// reached the wire — a failed dial, or LinkError.Sent == false — and, once
// it may have executed, only when q.RetrySafe (the verb is idempotent, or
// the folder server deduplicates it by token). This being the one place
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
		conn, epoch, err := l.get(cancel)
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
			l.fault(epoch)
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

// stats exposes the underlying redialer's health counters.
func (l *rlink) stats() transport.RedialerStats { return l.rd.Stats() }

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
