package rpc

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/pool"
	"repro/internal/symbol"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Conn is the client side of one pipelined RPC connection. Any number of
// goroutines may Call (or Go) concurrently; their requests share one
// transport conn, coalesce into capped batch frames, and
// complete out of order, matched by id.
type Conn struct {
	conn transport.Conn
	hb   time.Duration // heartbeat interval; 0 = disabled
	out  *batcher

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]*outCall // nil once the conn has failed
	err     error               // terminal cause; nil while alive

	// resp is the receive loop's decode target, reused for every response:
	// a Completion sees it only for the duration of its Complete call.
	resp wire.Response

	// lastSent/lastRecv are UnixNano stamps of the latest wire activity in
	// each direction. The heartbeat loop probes when either direction goes
	// quiet — send-idleness starves the peer's read deadline, receive-
	// idleness starves our proof the peer is alive — and declares the peer
	// dead on prolonged receive silence.
	lastSent atomic.Int64
	lastRecv atomic.Int64

	done     chan struct{}
	failOnce sync.Once
}

// A Completion receives the outcome of a call issued with Go, exactly once:
// a response, or the error that ended the call. On a response, err is nil,
// resp is the validated decode of msg, and both alias the receive loop's
// buffers — valid only until Complete returns, so whatever outlives the
// call is copied. On failure resp and msg are nil and err is what a
// blocking Call would have returned: a *LinkError whose Sent says whether
// the request reached the wire, or ErrConnClosed.
//
// Complete runs on the conn's receive loop or on the goroutine that fails
// the conn, so it must not block: hand anything that may wait to another
// goroutine.
type Completion interface {
	Complete(resp *wire.Response, msg []byte, err error)
}

// outCall is one request in flight: who completes it, whether its frame
// reached the transport (the retry-safety distinction LinkError carries),
// and what the call metrics and a sampled request's rpc span need. Pooled;
// it recycles the moment its completion is taken, which is exactly once.
type outCall struct {
	done    Completion
	sent    bool  // guarded by Conn.mu
	startNS int64 // rpc_call_ns
	// A sampled request's rpc span: its set and labels, and the UnixNano
	// stamp of its frame hitting the wire — the queued-in-the-batcher half
	// of the span (written in markSent, read after the response arrives:
	// the transport round trip orders the two).
	spans    *wire.SpanSet
	folder   int
	hops     int
	sentAtNS int64
}

var outCallPool = sync.Pool{New: func() any { return new(outCall) }}

// NewConn starts an RPC connection over conn, the transport conn that was
// dialed, and its receive loop. Heartbeats run at DefaultHeartbeat, so
// every rpc client is safe against daemon-side idle timeouts out of the box
// — use NewConnResilient to tune the interval or disable probing. The
// Policy is an unused placeholder (see Policy).
func NewConn(conn transport.Conn, _ Policy) *Conn {
	return NewConnResilient(conn, Resilience{Heartbeat: DefaultHeartbeat})
}

// NewConnResilient is NewConn with an explicit link-resilience
// configuration: when res.Heartbeat is positive the connection probes
// whenever its receive direction has been quiet for an interval (the
// server echoes), so transport idle timeouts never fire on a
// healthy-but-quiet link, and a peer silent for 2× the interval fails the
// connection — every pending call returns a *LinkError instead of blocking
// forever behind a dead wire. res.Heartbeat == 0 disables both.
func NewConnResilient(conn transport.Conn, res Resilience) *Conn {
	c := &Conn{
		conn:    conn,
		hb:      res.Heartbeat,
		pending: make(map[uint64]*outCall),
		done:    make(chan struct{}),
	}
	now := time.Now().UnixNano()
	c.lastSent.Store(now)
	c.lastRecv.Store(now)
	c.out = newBatcher(wire.BatchRequest, conn, c.fail)
	c.out.preSend = c.markSent
	go c.recvLoop()
	if c.hb > 0 {
		go c.heartbeatLoop()
	}
	return c
}

// markSent stamps outbound activity and flags each request entry's call as
// handed to the wire, just before the frame ships. It vetoes the frame once
// the conn has failed: fail has completed every pending call by then, the
// unmarked ones as unsent, and that must stay true.
func (c *Conn) markSent(entries []wire.BatchEntry) bool {
	now := time.Now().UnixNano()
	c.lastSent.Store(now)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return false
	}
	for _, e := range entries {
		if e.Cancel || e.Heartbeat {
			continue
		}
		if oc, ok := c.pending[e.ID]; ok {
			oc.sent = true
			if e.Sampled {
				oc.sentAtNS = now
			}
		}
	}
	return true
}

// Call sends one request and blocks for its response. Closing cancel is a
// request, not an abandonment: a cancel entry asks the server to unblock the
// call, and Call keeps waiting for the call's one terminal response. A
// response with wire.StatusCanceled — the server's statement that the
// request consumed nothing — returns wire.ErrCanceled; any other response is
// returned as the value it is (the cancel lost the race). If the link dies,
// Call fails fast with a *LinkError (errors.Is ErrLinkDown). A request
// message over MaxMessage fails at once with transport.ErrTooLarge.
//
// Call is Go with a waiter as the completion: the returned response is the
// waiter's private copy, payload included.
//
//memolint:blocks
func (c *Conn) Call(q *wire.Request, cancel <-chan struct{}) (*wire.Response, error) {
	w := waiterPool.Get().(*waiter)
	id, err := c.Go(q, w)
	if err != nil {
		waiterPool.Put(w)
		return nil, err
	}
	for {
		select {
		case <-w.ready:
			resp, err := w.resp, w.err
			w.resp, w.err = nil, nil
			waiterPool.Put(w)
			if err != nil {
				return nil, err
			}
			return terminal(resp)
		case <-cancel:
			// Ask the server to unblock the in-flight request, which may be
			// parked on a folder wait, and keep waiting: only its response
			// says whether the request consumed anything.
			c.Cancel(id)
			cancel = nil
		}
	}
}

// waiter is the Completion a blocking Call parks on.
type waiter struct {
	ready chan struct{} // capacity 1: the one completion's signal
	resp  *wire.Response
	err   error
}

var waiterPool = sync.Pool{New: func() any {
	return &waiter{ready: make(chan struct{}, 1)}
}}

// Complete copies what the caller keeps out of the receive loop's buffers —
// payload bytes are copied exactly once on the client, and value-less
// responses (put/ping acknowledgements) not at all — and wakes the caller.
func (w *waiter) Complete(resp *wire.Response, _ []byte, err error) {
	if err == nil {
		r := &wire.Response{Status: resp.Status, Key: symbol.Key{S: resp.Key.S}, Payload: resp.Payload, Err: resp.Err}
		if len(resp.Key.X) > 0 {
			r.Key = resp.Key.Clone()
		}
		r.Retain()
		w.resp = r
	}
	w.err = err
	w.ready <- struct{}{}
}

// terminal turns a call's one response into Call's result.
func terminal(resp *wire.Response) (*wire.Response, error) {
	if resp.Status == wire.StatusCanceled {
		return nil, wire.ErrCanceled
	}
	return resp, nil
}

// Go sends one request and returns at once with its call id; done receives
// the call's one outcome (see Completion) — possibly before Go returns. Go
// fails without ever running done when the request cannot be queued: a
// request message over MaxMessage (transport.ErrTooLarge), or a conn
// already dead (what Call would return). Cancel(id) asks the server to
// unblock the call; done still receives its one terminal response.
func (c *Conn) Go(q *wire.Request, done Completion) (uint64, error) {
	return c.issue(q, done, nil)
}

// issue is Go, making c relayed's holder under the call id — when relayed
// is non-nil — in the same critical section that makes the call
// completable, so the hook is there before any outcome can reach the
// relayed request.
func (c *Conn) issue(q *wire.Request, done Completion, relayed *Pending) (uint64, error) {
	// Encode into a pooled buffer; the batcher owns it from add() on and
	// recycles it once the frame carrying it has shipped. RequestOverhead
	// bounds the whole message (keys and strings included), so the append
	// never outgrows the buffer.
	msg := wire.AppendRequest(pool.Get(wire.RequestOverhead(q)), q)
	if len(msg) > MaxMessage {
		pool.Put(msg)
		return 0, fmt.Errorf("rpc: %w: %d-byte request, limit %d", transport.ErrTooLarge, len(msg), MaxMessage)
	}
	oc := outCallPool.Get().(*outCall)
	*oc = outCall{done: done, startNS: time.Now().UnixNano()}
	if q.Sampled && q.Spans != nil {
		oc.spans, oc.folder, oc.hops = q.Spans, q.FolderID, q.Hops
	}
	c.mu.Lock()
	if c.err != nil {
		err := c.callErr(c.err, false)
		c.mu.Unlock()
		pool.Put(msg)
		outCallPool.Put(oc)
		return 0, err
	}
	c.nextID++
	id := c.nextID
	c.pending[id] = oc
	if relayed != nil {
		relayed.holder, relayed.holderID = c, id
	}
	c.mu.Unlock()
	mCalls.Inc()
	mCallsInflight.Add(1)

	// The dedup token, trace, and sampled bit ride the batch entry, not the
	// request codec, so they re-attach at every forwarding hop.
	c.out.add(wire.BatchEntry{ID: id, Token: q.Token, Trace: q.TraceID, Sampled: q.Sampled, Msg: msg})
	return id, nil
}

// Cancel asks the server to unblock call id, which may be parked on a
// folder wait; the call still completes once, with whatever the server
// answers. The entry shares the batcher's FIFO with the request, so it
// cannot overtake it, and is a control enqueue: it never parks the caller
// behind the backpressure wait. A call already completed is left alone.
func (c *Conn) Cancel(id uint64) {
	c.mu.Lock()
	_, live := c.pending[id]
	c.mu.Unlock()
	if live {
		c.out.addControl(wire.BatchEntry{ID: id, Cancel: true})
	}
}

// complete hands a call's one outcome to its completion: first the call
// metrics and a sampled request's rpc span (the full call round trip, with
// the time the request sat queued in the batcher as its wait component),
// then the outCall recycles and done runs.
func (c *Conn) complete(oc *outCall, resp *wire.Response, msg []byte, err error) {
	endNS := time.Now().UnixNano()
	mCallNS.Observe(endNS - oc.startNS)
	mCallsInflight.Add(-1)
	if err == nil && resp.Status == wire.StatusCanceled {
		mCancels.Inc()
	}
	if err == nil && oc.spans != nil {
		var queued int64
		if oc.sentAtNS > oc.startNS {
			queued = oc.sentAtNS - oc.startNS
		}
		oc.spans.Add(wire.Span{Layer: "rpc", Op: "send", Folder: oc.folder,
			Hop: oc.hops, Start: oc.startNS, Dur: endNS - oc.startNS, Wait: queued})
	}
	done := oc.done
	*oc = outCall{}
	outCallPool.Put(oc)
	done.Complete(resp, msg, err)
}

// callErr shapes the terminal cause into what a caller sees: an explicit
// Close stays ErrConnClosed; a dead link becomes a *LinkError carrying
// whether this call's request reached the wire.
func (c *Conn) callErr(cause error, sent bool) error {
	if cause == ErrConnClosed {
		return ErrConnClosed
	}
	return &LinkError{Sent: sent, Cause: cause}
}

// recvLoop matches batched responses back to pending calls. Each received
// frame lives in a pooled buffer; every response is validated by decoding
// it into the one reused c.resp and handed, aliasing the frame, to its
// call's completion, which copies what it keeps. The frame recycles at the
// bottom of each iteration.
func (c *Conn) recvLoop() {
	var entries []wire.BatchEntry
	for {
		buf, err := c.conn.Recv()
		if err != nil {
			c.fail(err)
			return
		}
		c.lastRecv.Store(time.Now().UnixNano())
		kind, es, err := wire.DecodeBatchInto(entries[:0], buf)
		if err != nil {
			// Includes a frame that is not a batch frame at all.
			c.fail(fmt.Errorf("rpc: bad batch: %w", err))
			return
		}
		entries = es
		if kind != wire.BatchResponse {
			c.fail(fmt.Errorf("rpc: peer sent %v, want %v", kind, wire.BatchResponse))
			return
		}
		for i := range entries {
			e := &entries[i]
			if e.Heartbeat {
				// The echo's whole job was advancing lastRecv.
				continue
			}
			if err := wire.DecodeResponseInto(&c.resp, e.Msg); err != nil {
				c.fail(fmt.Errorf("rpc: bad response in batch: %w", err))
				return
			}
			c.mu.Lock()
			oc, ok := c.pending[e.ID]
			if ok {
				delete(c.pending, e.ID)
			}
			c.mu.Unlock()
			if ok {
				c.complete(oc, &c.resp, e.Msg, nil)
			}
			// A response to an unknown id answers a call its link failure
			// already completed; drop.
			*e = wire.BatchEntry{}
		}
		c.resp.Payload = nil
		pool.Put(buf)
	}
}

// heartbeatLoop probes when either direction of the link goes quiet for an
// interval, and declares the peer dead when the receive direction stays
// silent for 2×. Both idle triggers matter: a link streaming blocking
// requests is send-busy yet legitimately receives nothing (only probe
// echoes prove the peer alive), while a link draining a backlog of
// responses is receive-busy yet sends nothing (only probes feed the peer's
// read deadline). Checking at a quarter of the interval keeps detection
// latency within ~2¼× the interval of the peer's last sign of life.
func (c *Conn) heartbeatLoop() {
	period := c.hb / 4
	if period < time.Millisecond {
		period = time.Millisecond
	}
	t := time.NewTicker(period)
	defer t.Stop()
	var lastProbe time.Time
	for {
		select {
		case <-c.done:
			return
		case <-t.C:
		}
		now := time.Now()
		recvIdle := now.UnixNano() - c.lastRecv.Load()
		if recvIdle >= int64(2*c.hb) {
			c.fail(fmt.Errorf("rpc: peer silent beyond 2x heartbeat interval (%v)", c.hb))
			return
		}
		sendIdle := now.UnixNano() - c.lastSent.Load()
		if (recvIdle >= int64(c.hb) || sendIdle >= int64(c.hb)) && now.Sub(lastProbe) >= c.hb {
			// Control enqueue: never parks behind a wedged wire, and never
			// dropped at high water — a saturated healthy link still needs
			// its proof-of-life probe, or the deadman would kill it.
			if c.out.addControl(wire.BatchEntry{Heartbeat: true}) {
				lastProbe = now
				mProbes.Inc()
			}
		}
	}
}

// fail marks the connection dead and completes every pending call on this
// goroutine, each with the error a blocking Call would see.
func (c *Conn) fail(err error) {
	c.failOnce.Do(func() {
		if err != ErrConnClosed {
			mLinkDown.Inc()
		}
		c.mu.Lock()
		if c.err == nil {
			c.err = err
		}
		pending := c.pending
		c.pending = nil
		c.mu.Unlock()
		c.out.close()
		close(c.done)
		_ = c.conn.Close()
		for _, oc := range pending {
			c.complete(oc, nil, nil, c.callErr(err, oc.sent))
		}
	})
}

// Close tears the connection down; pending and future calls fail with
// ErrConnClosed.
func (c *Conn) Close() error {
	c.fail(ErrConnClosed)
	return nil
}

// Done is closed when the connection dies.
func (c *Conn) Done() <-chan struct{} { return c.done }

// Err reports why the connection died (nil while alive).
func (c *Conn) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}
