package memoserver

import (
	"fmt"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/rpc"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Client is an application process's connection to its local memo server
// (Fig. 1: applications talk to the memo server on their own host; the memo
// server does all remote work). One Client pipelines any number of
// concurrent requests over one transport connection: requests are coalesced
// into batch frames by the rpc layer and responses match back by id.
//
// The connection rides the same resilient-link machinery as memo-server
// peer links: if the local memo server restarts, the next request re-dials
// under exponential backoff instead of failing forever, and with
// rpc.Resilience.Retries armed the Client transparently retries
// safely-retriable requests — stamping puts with an at-most-once dedup
// token so even a maybe-delivered deposit can be re-sent without ever
// landing twice.
type Client struct {
	Host string
	App  string

	link    *rlink
	retried obs.Counter
	// sample marks every request sampled under a fresh trace ID, forcing
	// span collection at every hop regardless of the servers' sampling
	// rates.
	sample bool
	// lastTrace remembers the trace ID of the most recent Do, so a caller
	// (the memo CLI) can fetch the trace it just generated.
	lastTrace atomic.Uint64
}

// EnableSampling makes Do mark every request sampled (and stamp a trace ID):
// each memo server the request crosses records the spans it made in its
// /tracez ring, for `memo trace` to join by that ID. Off by default: a
// plain client's requests carry no extension bytes, and a server that wants
// to name them does so itself.
func (c *Client) EnableSampling() { c.sample = true }

// LastTraceID reports the trace ID stamped on the most recent Do (0 before
// any traced request) — how `memo trace` learns which trace to fetch after
// a traced op.
func (c *Client) LastTraceID() uint64 { return c.lastTrace.Load() }

// DialFunc matches Network.DialFrom.
type DialFunc func(srcHost, addr string) (transport.Conn, error)

// DialClientResilient connects with the full link-resilience layer:
// heartbeats (res.Heartbeat), reconnect with backoff when the link to the
// local memo server dies (res.Redial — the link heals across a memo-server
// restart), and bounded transparent retries (res.Retries) of
// safely-retriable requests, with puts carried under client-generated dedup
// tokens so maybe-delivered deposits retry safely. The initial dial happens
// eagerly, so an unreachable memo server surfaces here rather than on the
// first request. The rpc.Policy is an unused placeholder (see rpc.Policy).
func DialClientResilient(dial DialFunc, host, app string, _ rpc.Policy, res rpc.Resilience) (*Client, error) {
	c := &Client{Host: host, App: app}
	c.link = newRlink(func() (transport.Conn, error) {
		conn, err := dial(host, MemoAddr(host))
		if err != nil {
			return nil, fmt.Errorf("memoserver: dial %s: %w", host, err)
		}
		return conn, nil
	}, res)
	if _, err := c.link.get(nil); err != nil {
		c.link.close()
		return nil, err
	}
	return c, nil
}

// Do executes one request and waits for its response. Many Do calls may be
// in flight concurrently on the one connection. Cancel aborts a blocked
// operation: the rpc layer sends a cancel entry naming the request, which
// the server propagates to the folder wait. If the link dies mid-call the
// request fails fast; with res.Retries armed it is transparently re-issued
// on the re-dialed link when that is safe (always when provably unsent,
// and for idempotent or token-deduplicated requests when maybe-executed);
// the link then stamps the dedup token on q itself — the outermost stamp,
// preserved hop by hop — so the caller can correlate it.
func (c *Client) Do(q *wire.Request, cancel <-chan struct{}) (*wire.Response, error) {
	if q.App == "" {
		q.App = c.App
	}
	if c.sample {
		// Stamped on the caller's request so it can fetch the trace; like
		// Token, the ID travels as a flagged batch-entry extension, not in
		// the request codec.
		q.Sampled = true
		if q.TraceID == 0 {
			q.TraceID = wire.NewID()
		}
	}
	if q.TraceID != 0 {
		c.lastTrace.Store(q.TraceID)
	}
	return c.link.call(q, cancel, nil, &c.retried)
}

// Register registers an application with the memo server (the wire-level
// §4.4 step used by remote launches; in-process boots call RegisterApp).
func (c *Client) Register(adfText string) error {
	resp, err := c.Do(&wire.Request{Op: wire.OpRegister, ADF: adfText}, nil)
	if err != nil {
		return err
	}
	if resp.Status == wire.StatusErr {
		return fmt.Errorf("memoserver: register: %s", resp.Err)
	}
	return nil
}

// Ping round-trips a no-op request.
func (c *Client) Ping() error {
	resp, err := c.Do(&wire.Request{Op: wire.OpPing}, nil)
	if err != nil {
		return err
	}
	if resp.Status != wire.StatusOK {
		return fmt.Errorf("memoserver: ping: %s", resp.Err)
	}
	return nil
}

// ClientStats is a snapshot of the client link's health counters.
type ClientStats struct {
	LinkHealth
	// Retried counts requests transparently re-issued after a link failure.
	Retried int64
}

// Stats snapshots the client link's health counters.
func (c *Client) Stats() ClientStats {
	return ClientStats{LinkHealth: c.link.stats(), Retried: c.retried.Load()}
}

// Close tears the connection down.
func (c *Client) Close() error {
	c.link.close()
	return nil
}
