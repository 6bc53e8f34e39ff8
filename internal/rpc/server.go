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

// Handler executes one request. cancel fires when the client cancels the
// call or the connection dies; blocking handlers must honour it, and answer
// wire.StatusCanceled only if the request consumed nothing. The
// request's Payload aliases the connection's read buffer for the duration
// of the call: handlers that keep the bytes past their return (storing a
// memo, caching a program image) must copy them — the folder store's own
// deposit copy is exactly that Retain.
type Handler func(q *wire.Request, cancel <-chan struct{}) *wire.Response

// SubmitFunc runs fn(arg) concurrently — typically
// threadcache.Pool.SubmitArg, so batched requests land on the server's
// thread cache ("each request to a server will cause a thread to be
// created") without allocating a closure per request. A nil SubmitFunc runs
// each request on a plain goroutine.
type SubmitFunc func(fn func(any), arg any) error

// Serve answers requests on one transport conn until it fails, returning the
// terminal receive error. Each batch frame's requests dispatch concurrently
// through submit, each running h on a thread; each response is queued on a
// response batcher, so replies coalesce into batched frames in completion
// order and a blocked request never delays its batch-mates. Batch frames are
// the whole protocol: a frame that does not start with the batch magic is a
// protocol error — Serve returns it without invoking h, and the caller
// closes the conn (as memoserver.Node's accept task does), which is the only
// answer such a peer gets: an rpc peer has no request id to match an
// unsolicited response to, and must see its Recv fail rather than hang.
// The Policy is an unused placeholder (see Policy).
//
// Buffer ownership: each received frame arrives in a pooled buffer that
// every request decoded from it aliases. The frame is reference-counted
// through dispatch and recycled when the last request of the batch is
// answered — a batch holding one long-blocking folder wait pins at most
// one frame, never a copy per request.
func Serve(conn transport.Conn, h Handler, submit SubmitFunc, _ Policy) error {
	return ServeRouted(conn, func(p *Pending) { p.Run(runHandler, h) }, submit)
}

// runHandler is Serve's RunFunc: the Handler rides as the Pending's arg.
func runHandler(p *Pending) *wire.Response {
	return p.arg.(Handler)(&p.q, p.cc)
}

// A Router routes each request ServeRouted decodes, on the read loop,
// before a thread is spent on it. It must not block (beyond the
// backpressure a relayed request's peer conn applies), must hand p on
// through p.Run or a successful p.Relay, and must not touch p afterwards.
type Router func(p *Pending)

// A RunFunc answers a Pending on a thread: its result is the response.
type RunFunc func(p *Pending) *wire.Response

// ServeRouted is Serve with the routing decision taken on the read loop:
// route sees every decoded request first and either runs it on a thread
// with the decision in hand (Pending.Run) or relays it onto another Conn
// without one (Pending.Relay), to be answered from that conn's receive loop.
func ServeRouted(conn transport.Conn, route Router, submit SubmitFunc) error {
	s := &server{
		route:    route,
		submit:   submit,
		inflight: make(map[uint64]*Pending),
	}
	s.out = newBatcher(wire.BatchResponse, conn, func(error) { _ = conn.Close() })
	defer s.shutdown()
	var entries []wire.BatchEntry
	for {
		buf, err := conn.Recv()
		if err != nil {
			return err
		}
		if !wire.IsBatchFrame(buf) {
			pool.Put(buf)
			return fmt.Errorf("rpc: non-batch frame from %s", conn.RemoteAddr())
		}
		kind, es, err := wire.DecodeBatchInto(entries[:0], buf)
		if err != nil {
			return fmt.Errorf("rpc: bad batch from %s: %w", conn.RemoteAddr(), err)
		}
		entries = es
		if kind != wire.BatchRequest {
			return fmt.Errorf("rpc: %v from %s, want %v", kind, conn.RemoteAddr(), wire.BatchRequest)
		}
		// The frame starts with one reference held by this loop, gains one
		// per dispatched request, and recycles when the count drains.
		fb := newFrameBuf(buf)
		for i := range entries {
			s.dispatch(entries[i], fb)
			entries[i] = wire.BatchEntry{}
		}
		fb.release()
	}
}

// frameBuf reference-counts one received frame's pooled buffer.
type frameBuf struct {
	buf  []byte
	refs atomic.Int32
}

var frameBufPool = sync.Pool{New: func() any { return new(frameBuf) }}

// newFrameBuf takes over buf: the frameBuf's refcount decides when it goes
// back to the pool.
func newFrameBuf(buf []byte) *frameBuf {
	fb := frameBufPool.Get().(*frameBuf)
	fb.buf = buf
	fb.refs.Store(1)
	return fb
}

func (fb *frameBuf) retain() { fb.refs.Add(1) }

func (fb *frameBuf) release() {
	if fb.refs.Add(-1) == 0 {
		pool.Put(fb.buf)
		fb.buf = nil
		frameBufPool.Put(fb)
	}
}

// server is the per-connection serving state.
type server struct {
	route  Router
	submit SubmitFunc
	out    *batcher

	mu       sync.Mutex
	inflight map[uint64]*Pending // request id -> the request, until answered
	down     bool
}

// Pending is one request Serve has decoded and not yet answered. It is
// answered exactly once, from whichever goroutine finishes it, and recycles
// with everything it holds: the decoded request (whose payload aliases the
// frame, pinned until the answer), its cancel channel, and the relay state.
type Pending struct {
	s   *server
	fb  *frameBuf
	id  uint64
	q   wire.Request
	cc  chan struct{}
	run RunFunc
	arg any

	// Guarded by s.mu, except that issue writes peer and peerID on the read
	// loop before the relayed call can complete, and Run reads peer on the
	// goroutine that completed that call (see Relay).
	canceled bool   // a cancel entry or the conn's end asked to unblock it
	ccClosed bool   // cc is closed: it cannot be recycled
	peer     *Conn  // the conn it is relayed on; nil while a thread has it
	peerID   uint64 // its call id on peer
}

var pendingPool = sync.Pool{New: func() any {
	return &Pending{cc: make(chan struct{})}
}}

// Request is the decoded request. Its payload aliases the received frame
// until p is answered; a handler that keeps the bytes past that copies them.
func (p *Pending) Request() *wire.Request { return &p.q }

// Arg is the value the router handed to Run or Relay.
func (p *Pending) Arg() any { return p.arg }

// Cancel closes when the client cancels the request or the connection dies,
// while a thread has the request: blocking handlers must honour it, and
// answer wire.StatusCanceled only if the request consumed nothing. While p
// is relayed a cancel goes to the peer call instead.
func (p *Pending) Cancel() <-chan struct{} { return p.cc }

// Run answers p on a thread: fn(p) runs through the server's SubmitFunc, with
// arg available as p.Arg, and its response is the answer. A relayed p's
// completion calls Run when the relayed call failed: cancels go back to
// p.Cancel, which is closed at once if one already went to the dead call.
func (p *Pending) Run(fn RunFunc, arg any) {
	if p.peer != nil {
		p.s.mu.Lock()
		p.peer = nil
		if p.canceled && !p.ccClosed {
			p.ccClosed = true
			close(p.cc)
		}
		p.s.mu.Unlock()
	}
	p.run, p.arg = fn, arg
	if p.s.submit == nil {
		go runPending(p)
		return
	}
	if err := p.s.submit(runPending, p); err != nil {
		// Run may be on a peer conn's receive loop or on the goroutine
		// shutting the node down: answer without waiting on the queue.
		p.answer(wire.Errf("server shutting down"), false)
	}
}

// Relay sends p's request — as it stands, so the router may have rewritten
// it — on c with done as the call's completion, which answers p: from c's
// receive loop with AnswerEncoded, with no thread and no re-encode, or, when
// the call fails, through Run. While the call is in flight a cancel entry
// for p becomes a cancel of the call on c. An error means the request could
// not be queued (as with Conn.Go): done never runs and p is the caller's
// still. Called only by the Router, on the read loop — the one goroutine
// that also reads p's relay state to route a cancel.
func (p *Pending) Relay(c *Conn, done Completion) error {
	_, err := c.issue(&p.q, done, p)
	return err
}

// AnswerEncoded answers p with an encoded response message — a relayed
// call's, validated by the receive loop that hands it over — copied into a
// pooled buffer, without ever waiting on the response queue: the peer
// conn's receive loop must not stall behind a client that stopped reading.
func (p *Pending) AnswerEncoded(msg []byte) {
	p.finish(append(pool.Get(len(msg)), msg...), false)
}

// runPending is the thread half of Run. Static function — its any argument
// is the pooled *Pending, so submission costs no allocation.
func runPending(a any) {
	p := a.(*Pending)
	p.answer(p.run(p), true)
}

// answer encodes resp into a pooled buffer — ResponseOverhead bounds the
// whole message, so the append never outgrows it — and answers p with it
// (see finish for wait).
func (p *Pending) answer(resp *wire.Response, wait bool) {
	p.finish(wire.AppendResponse(pool.Get(wire.ResponseOverhead(resp)), resp), wait)
}

// finish retires p: it leaves the in-flight set, its encoded answer joins
// the response batcher — waiting out the backpressure when wait is set, as
// a thread running p may, and never otherwise (a peer conn's receive loop,
// a failed submit) — and p releases its frame reference and recycles.
func (p *Pending) finish(msg []byte, wait bool) {
	s := p.s
	s.mu.Lock()
	delete(s.inflight, p.id)
	s.mu.Unlock()
	if wait {
		s.out.add(wire.BatchEntry{ID: p.id, Msg: msg})
	} else {
		s.out.addControl(wire.BatchEntry{ID: p.id, Msg: msg})
	}
	mServerInflight.Add(-1)
	p.fb.release()
	recyclePending(p)
}

// recyclePending resets p and returns it to the pool. The reset keeps the
// request's key-extension and key-list capacity and its App string (a Go
// string of its own, not frame bytes) — exactly what DecodeRequestInto's
// reuse branches refill or keep — while dropping every reference into the
// (possibly already released) frame, so a pooled Pending never pins a
// recycled buffer and never dangles aliased bytes. A closed cancel channel
// is replaced; it is the one allocation a canceled request costs.
func recyclePending(p *Pending) {
	cc := p.cc
	if p.ccClosed {
		cc = make(chan struct{})
	}
	*p = Pending{
		cc: cc,
		q: wire.Request{
			App:  p.q.App,
			Key:  symbol.Key{X: p.q.Key.X[:0]},
			Key2: symbol.Key{X: p.q.Key2.X[:0]},
			Keys: p.q.Keys[:0],
		},
	}
	pendingPool.Put(p)
}

// cancelLocked delivers a cancel to p, once: to the peer call while p is
// relayed, on p.cc while a thread has it.
func (p *Pending) cancelLocked() {
	if p.canceled {
		return
	}
	p.canceled = true
	if p.peer != nil {
		p.peer.Cancel(p.peerID)
		return
	}
	p.ccClosed = true
	close(p.cc)
}

// dispatch routes one batch entry: heartbeats echo straight back through
// the response batcher (keeping both directions of the link visibly alive);
// cancels reach the target request; requests go to the router, holding a
// reference on the frame buffer their decoded payload aliases.
func (s *server) dispatch(e wire.BatchEntry, fb *frameBuf) {
	if e.Heartbeat {
		// Control enqueue: the read pump must never park behind a response
		// queue wedged by a non-draining peer, and the echo must not be
		// dropped behind a saturated-but-draining one — it is the prober's
		// only proof of life.
		s.out.addControl(wire.BatchEntry{ID: e.ID, Heartbeat: true})
		mEchoes.Inc()
		return
	}
	if e.Cancel {
		s.mu.Lock()
		if p, ok := s.inflight[e.ID]; ok {
			p.cancelLocked()
		}
		s.mu.Unlock()
		return
	}
	p := pendingPool.Get().(*Pending)
	if err := wire.DecodeRequestInto(&p.q, e.Msg); err != nil {
		recyclePending(p)
		s.respond(e.ID, wire.Errf("bad request: %v", err))
		return
	}
	// Re-attach the batch-entry dedup token, trace, and sampled bit; the
	// request codec does not carry them. Only sampled requests get a receive
	// stamp — the dispatch wrapper turns it into the queue-wait component of
	// its span — so the unsampled path takes no clock reading here.
	p.q.Token = e.Token
	p.q.TraceID = e.Trace
	p.q.Sampled = e.Sampled
	if e.Sampled {
		p.q.EnqueueNS = time.Now().UnixNano()
	}
	p.s, p.id = s, e.ID
	s.mu.Lock()
	if s.down {
		s.mu.Unlock()
		recyclePending(p)
		return
	}
	if _, dup := s.inflight[e.ID]; dup {
		// A buggy or hostile peer reused a live id; honouring it would
		// orphan the first request's cancel.
		s.mu.Unlock()
		recyclePending(p)
		s.respond(e.ID, wire.Errf("duplicate request id %d", e.ID))
		return
	}
	s.inflight[e.ID] = p
	s.mu.Unlock()

	// The request aliases the frame and outlives this function: the
	// reference taken here pins the frame until p is answered.
	fb.retain()
	p.fb = fb
	mServerRequests.Inc()
	mServerInflight.Add(1)
	s.route(p)
}

// respond queues a response to a request that never became a Pending.
func (s *server) respond(id uint64, resp *wire.Response) {
	msg := wire.AppendResponse(pool.Get(wire.ResponseOverhead(resp)), resp)
	s.out.add(wire.BatchEntry{ID: id, Msg: msg})
}

// shutdown cancels every request still in flight so blocked handlers unwind
// and relayed calls are canceled at their peer, and retires the response
// batcher; answers that arrive later are dropped.
func (s *server) shutdown() {
	s.mu.Lock()
	s.down = true
	for _, p := range s.inflight {
		p.cancelLocked()
	}
	s.mu.Unlock()
	s.out.close()
}
