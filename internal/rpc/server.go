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
// through submit; each response is queued on a response batcher, so replies
// coalesce into batched frames in completion order and a blocked request
// never delays its batch-mates. Batch frames are the whole protocol: a frame
// that does not start with the batch magic is a protocol error — Serve
// returns it without invoking h, and the caller closes the conn (as
// memoserver.Node's accept task does), which is the only answer such a peer
// gets: an rpc peer has no request id to match an unsolicited response to,
// and must see its Recv fail rather than hang.
//
// Buffer ownership: each received frame arrives in a pooled buffer that
// every request decoded from it aliases. The frame is reference-counted
// through dispatch and recycled when the last request of the batch
// completes — a batch holding one long-blocking folder wait pins at most
// one frame, never a copy per request.
func Serve(conn transport.Conn, h Handler, submit SubmitFunc, pol Policy) error {
	s := &server{
		h:        h,
		submit:   submit,
		inflight: make(map[uint64]chan struct{}),
	}
	s.out = newBatcher(wire.BatchResponse, pol.withDefaults(), conn, func(error) { _ = conn.Close() })
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
	h      Handler
	submit SubmitFunc
	out    *batcher

	mu       sync.Mutex
	inflight map[uint64]chan struct{} // request id -> its cancel channel
	down     bool
}

// dispatchTask is one batched request in flight: the pooled argument struct
// handed to SubmitFunc, so dispatch allocates neither a closure nor a fresh
// request per entry. The cancel channel is recycled with the task whenever
// the request completed without being canceled (a canceled request's
// channel is closed and must not be reused).
type dispatchTask struct {
	s  *server
	fb *frameBuf
	id uint64
	q  wire.Request
	cc chan struct{}
}

var dispatchTaskPool = sync.Pool{New: func() any {
	return &dispatchTask{cc: make(chan struct{})}
}}

// recycleTask resets t and returns it to the pool. The reset keeps the
// request's key-extension and key-list capacity and its App string (a Go
// string of its own, not frame bytes) — exactly what DecodeRequestInto's
// reuse branches refill or keep — while dropping every reference into the
// (possibly already released) frame, so a parked task
// never pins a recycled buffer and never dangles aliased bytes. Only call
// it when t.cc is known unclosed.
func recycleTask(t *dispatchTask) {
	t.s, t.fb = nil, nil
	t.q = wire.Request{
		App:  t.q.App,
		Key:  symbol.Key{X: t.q.Key.X[:0]},
		Key2: symbol.Key{X: t.q.Key2.X[:0]},
		Keys: t.q.Keys[:0],
	}
	dispatchTaskPool.Put(t)
}

// runDispatch executes one batched request: handle, respond, release the
// frame, recycle the task. Static function — its any argument is the pooled
// *dispatchTask, so submission costs no allocation.
func runDispatch(a any) {
	t := a.(*dispatchTask)
	s := t.s
	mServerRequests.Inc()
	mServerInflight.Add(1)
	resp := s.h(&t.q, t.cc)
	mServerInflight.Add(-1)
	s.mu.Lock()
	_, owned := s.inflight[t.id]
	if owned {
		delete(s.inflight, t.id)
	}
	s.mu.Unlock()
	s.respond(t.id, resp)
	t.fb.release()
	// owned means no cancel (or shutdown) removed the id first, so t.cc was
	// never closed and the whole task can recycle. Otherwise the channel is
	// (or is about to be) closed; drop the task for the GC.
	if owned {
		recycleTask(t)
	}
}

// dispatch routes one batch entry: heartbeats echo straight back through
// the response batcher (keeping both directions of the link visibly alive);
// cancels close the target request's cancel channel; requests run
// concurrently and respond through the batcher, holding a reference on the
// frame buffer their decoded payload aliases.
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
		cc, ok := s.inflight[e.ID]
		if ok {
			delete(s.inflight, e.ID)
		}
		s.mu.Unlock()
		if ok {
			close(cc)
		}
		return
	}
	t := dispatchTaskPool.Get().(*dispatchTask)
	if err := wire.DecodeRequestInto(&t.q, e.Msg); err != nil {
		recycleTask(t)
		s.respond(e.ID, wire.Errf("bad request: %v", err))
		return
	}
	// Re-attach the batch-entry dedup token, trace, and sampled bit; the
	// request codec does not carry them. Only sampled requests get a receive
	// stamp — the dispatch wrapper turns it into the queue-wait component of
	// its span — so the unsampled path takes no clock reading here.
	t.q.Token = e.Token
	t.q.TraceID = e.Trace
	t.q.Sampled = e.Sampled
	if e.Sampled {
		t.q.EnqueueNS = time.Now().UnixNano()
	}
	t.s, t.id = s, e.ID
	s.mu.Lock()
	if s.down {
		s.mu.Unlock()
		recycleTask(t)
		return
	}
	if _, dup := s.inflight[e.ID]; dup {
		// A buggy or hostile peer reused a live id; honouring it would
		// orphan the first request's cancel channel.
		s.mu.Unlock()
		recycleTask(t)
		s.respond(e.ID, wire.Errf("duplicate request id %d", e.ID))
		return
	}
	s.inflight[e.ID] = t.cc
	s.mu.Unlock()

	// The request aliases the frame and outlives this function: the
	// reference taken here pins the frame until runDispatch releases it.
	fb.retain()
	t.fb = fb
	if s.submit == nil {
		go runDispatch(t)
		return
	}
	if err := s.submit(runDispatch, t); err != nil {
		s.mu.Lock()
		delete(s.inflight, e.ID)
		s.mu.Unlock()
		fb.release()
		s.respond(e.ID, wire.Errf("server shutting down"))
	}
}

// respond queues one response for batched delivery, encoded into a pooled
// buffer the batcher recycles once the frame ships. ResponseOverhead bounds
// the whole message (key and error string included), so the append never
// outgrows the buffer. Spans collected for a sampled request ship as a
// flag-gated span blob on the same entry, in their own pooled buffer.
func (s *server) respond(id uint64, resp *wire.Response) {
	msg := wire.AppendResponse(pool.Get(wire.ResponseOverhead(resp)), resp)
	if len(resp.Spans) > 0 {
		sp := wire.AppendSpans(pool.Get(wire.SpansOverhead(resp.Spans)), resp.Spans)
		s.out.add(wire.BatchEntry{ID: id, Spans: sp, Msg: msg})
		return
	}
	s.out.add(wire.BatchEntry{ID: id, Msg: msg})
}

// shutdown cancels every in-flight request so blocked handlers unwind, and
// retires the response batcher.
func (s *server) shutdown() {
	s.mu.Lock()
	s.down = true
	inflight := s.inflight
	s.inflight = make(map[uint64]chan struct{})
	s.mu.Unlock()
	for _, cc := range inflight {
		close(cc)
	}
	s.out.close()
}
