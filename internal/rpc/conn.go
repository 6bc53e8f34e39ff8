package rpc

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/pool"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Conn is the client side of one pipelined RPC connection. Any number of
// goroutines may Call concurrently; their requests share one transport
// conn, coalesce into batch frames under the flush policy, and complete
// out of order, matched by id.
type Conn struct {
	conn transport.Conn
	pol  Policy
	hb   time.Duration // heartbeat interval; 0 = disabled
	out  *batcher

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]*call
	err     error // terminal cause; nil while alive

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

// call is one in-flight request: its parked response channel and whether
// its request frame reached the transport (the retry-safety distinction
// LinkError carries). Calls recycle through a pool — but only off the
// completion path, where the caller has taken the response and no late send
// into rc can ever happen; link-failed calls are dropped for the GC rather
// than risk a stale response crossing into a reused call.
type call struct {
	rc   chan *wire.Response
	sent atomic.Bool
	// sentAtNS is the UnixNano stamp of the frame carrying this call hitting
	// the wire, taken only for sampled requests — the queued-in-the-batcher half
	// of the rpc span. Written in markSent, read by the caller after the
	// response arrives (the transport round trip orders the two).
	sentAtNS int64
}

var callPool = sync.Pool{New: func() any {
	return &call{rc: make(chan *wire.Response, 1)}
}}

func getCall() *call {
	ca := callPool.Get().(*call)
	ca.sent.Store(false)
	ca.sentAtNS = 0
	return ca
}

// NewConn starts an RPC connection over conn, the transport conn that was
// dialed, and its receive loop. The zero Policy means defaults;
// heartbeats run at DefaultHeartbeat, so every rpc client is safe against
// daemon-side idle timeouts out of the box — use NewConnResilient to tune
// the interval or disable probing.
func NewConn(conn transport.Conn, pol Policy) *Conn {
	return NewConnResilient(conn, pol, Resilience{Heartbeat: DefaultHeartbeat})
}

// NewConnResilient is NewConn with an explicit link-resilience
// configuration: when res.Heartbeat is positive the connection probes
// whenever its receive direction has been quiet for an interval (the
// server echoes), so transport idle timeouts never fire on a
// healthy-but-quiet link, and a peer silent for 2× the interval fails the
// connection — every pending call returns a *LinkError instead of blocking
// forever behind a dead wire. res.Heartbeat == 0 disables both.
func NewConnResilient(conn transport.Conn, pol Policy, res Resilience) *Conn {
	c := &Conn{
		conn:    conn,
		pol:     pol.withDefaults(),
		hb:      res.Heartbeat,
		pending: make(map[uint64]*call),
		done:    make(chan struct{}),
	}
	now := time.Now().UnixNano()
	c.lastSent.Store(now)
	c.lastRecv.Store(now)
	c.out = newBatcher(wire.BatchRequest, c.pol, conn, c.fail)
	c.out.preSend = c.markSent
	go c.recvLoop()
	if c.hb > 0 {
		go c.heartbeatLoop()
	}
	return c
}

// markSent stamps outbound activity and flags each request entry's call as
// handed to the wire, just before the frame ships.
func (c *Conn) markSent(entries []wire.BatchEntry) {
	now := time.Now().UnixNano()
	c.lastSent.Store(now)
	c.mu.Lock()
	for _, e := range entries {
		if e.Cancel || e.Heartbeat {
			continue
		}
		if ca, ok := c.pending[e.ID]; ok {
			ca.sent.Store(true)
			if e.Sampled {
				ca.sentAtNS = now
			}
		}
	}
	c.mu.Unlock()
}

// Call sends one request and blocks for its response. Closing cancel is a
// request, not an abandonment: a cancel entry asks the server to unblock the
// call, and Call keeps waiting for the call's one terminal response. A
// response with wire.StatusCanceled — the server's statement that the
// request consumed nothing — returns ErrCanceled; any other response is
// returned as the value it is (the cancel lost the race). If the link dies,
// Call fails fast with a *LinkError (errors.Is ErrLinkDown). A request
// message over MaxMessage fails at once with transport.ErrTooLarge.
func (c *Conn) Call(q *wire.Request, cancel <-chan struct{}) (*wire.Response, error) {
	mCalls.Inc()
	mCallsInflight.Add(1)
	start := time.Now()
	resp, err := c.call(q, cancel)
	mCallNS.Observe(int64(time.Since(start)))
	mCallsInflight.Add(-1)
	if err == ErrCanceled {
		mCancels.Inc()
	}
	return resp, err
}

func (c *Conn) call(q *wire.Request, cancel <-chan struct{}) (*wire.Response, error) {
	// Encode into a pooled buffer; the batcher owns it from add() on and
	// recycles it once the frame carrying it has shipped. RequestOverhead
	// bounds the whole message (keys and strings included), so the append
	// never outgrows the buffer.
	msg := wire.AppendRequest(pool.Get(wire.RequestOverhead(q)), q)
	if len(msg) > MaxMessage {
		pool.Put(msg)
		return nil, fmt.Errorf("rpc: %w: %d-byte request, limit %d", transport.ErrTooLarge, len(msg), MaxMessage)
	}
	ca := getCall()
	c.mu.Lock()
	if c.err != nil {
		err := c.callErr(c.err, false)
		c.mu.Unlock()
		pool.Put(msg)
		callPool.Put(ca)
		return nil, err
	}
	c.nextID++
	id := c.nextID
	c.pending[id] = ca
	c.mu.Unlock()

	// The dedup token, trace, and sampled bit ride the batch entry, not the
	// request codec, so they re-attach at every forwarding hop.
	var startNS int64
	if q.Sampled {
		startNS = time.Now().UnixNano()
	}
	c.out.add(wire.BatchEntry{ID: id, Token: q.Token, Trace: q.TraceID, Sampled: q.Sampled, Msg: msg})

	for {
		select {
		case resp := <-ca.rc:
			if q.Sampled && q.Spans != nil {
				// The rpc client span: full call round trip, with the time the
				// request sat queued in the batcher before its frame shipped as
				// its wait component.
				endNS := time.Now().UnixNano()
				var queued int64
				if ca.sentAtNS > startNS {
					queued = ca.sentAtNS - startNS
				}
				q.Spans.Add(wire.Span{Layer: "rpc", Op: "send", Folder: q.FolderID,
					Hop: q.Hops, Start: startNS, Dur: endNS - startNS, Wait: queued})
			}
			callPool.Put(ca)
			return terminal(resp)
		case <-cancel:
			// Ask the server to unblock the in-flight request, which may be
			// parked on a folder wait, and keep waiting: only its response
			// says whether the request consumed anything. The entry shares
			// the batcher's FIFO with the request, so it cannot overtake it.
			// Control enqueue: never parks this caller behind the
			// backpressure wait.
			c.out.addControl(wire.BatchEntry{ID: id, Cancel: true})
			cancel = nil
		case <-c.done:
			c.mu.Lock()
			err := c.callErr(c.err, ca.sent.Load())
			delete(c.pending, id)
			c.mu.Unlock()
			// A response may have raced the teardown.
			select {
			case resp := <-ca.rc:
				return terminal(resp)
			default:
			}
			return nil, err
		}
	}
}

// terminal turns a call's one response into Call's result.
func terminal(resp *wire.Response) (*wire.Response, error) {
	if resp.Status == wire.StatusCanceled {
		return nil, ErrCanceled
	}
	return resp, nil
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
// frame lives in a pooled buffer the decoded responses alias; payloads that
// leave this loop (handed to callers, who own them indefinitely) take their
// Retain copy here — payload bytes are copied exactly once on the client,
// and value-less responses (put/ping acknowledgements) not at all — and the
// frame recycles at the bottom of each iteration.
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
			resp, err := wire.DecodeResponse(e.Msg)
			if err != nil {
				c.fail(fmt.Errorf("rpc: bad response in batch: %w", err))
				return
			}
			resp.Retain()
			c.mu.Lock()
			ca, ok := c.pending[e.ID]
			if ok {
				delete(c.pending, e.ID)
			}
			c.mu.Unlock()
			if ok {
				ca.rc <- resp
			}
			// A response to an unknown id answers a call its link failure
			// already ended; drop.
			*e = wire.BatchEntry{}
		}
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

// fail marks the connection dead and wakes every pending call.
func (c *Conn) fail(err error) {
	c.failOnce.Do(func() {
		if err != ErrConnClosed {
			mLinkDown.Inc()
		}
		c.mu.Lock()
		if c.err == nil {
			c.err = err
		}
		c.mu.Unlock()
		c.out.close()
		close(c.done)
		_ = c.conn.Close()
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
