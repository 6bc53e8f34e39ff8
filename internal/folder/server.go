package folder

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/durable"
	"repro/internal/obs"
	"repro/internal/symbol"
	"repro/internal/threadcache"
	"repro/internal/wire"
)

// Server is one folder server: a Store and the wire protocol's verbs turned
// into store operations. It is driven by the memo server on its own host
// (§4.1, Fig. 1: an application reaches a folder server only through a
// memo server), through Serve on a conn's read loop or Handle on a thread.
type Server struct {
	// ID is the ADF folder-server number.
	ID int
	// Host is the machine this server runs on.
	Host string

	store *Store
	// where names this server in spans, e.g. "folder-3@bonnie".
	where string
	// ownsStore marks a store this server opened itself (OpenServer): Close
	// then flushes and closes its write-ahead log too.
	ownsStore bool
}

// NewServer wraps a store. The threadcache.Config is unused — a folder server
// runs on its caller's goroutine — and stays in the signature because
// benchmark/ladder.go calls it.
func NewServer(id int, host string, store *Store, _ threadcache.Config) *Server {
	return &Server{ID: id, Host: host, store: store, where: "folder-" + strconv.Itoa(id) + "@" + host}
}

// OpenServer is the open-from-dir path: it opens (recovering if necessary)
// a durable store from dir and wraps it in a Server that owns it — Close
// flushes and closes the write-ahead log. storeOpts configure the store
// (shards, forward hook). The threadcache.Config is unused, as in NewServer.
func OpenServer(id int, host, dir string, dcfg durable.Config, _ threadcache.Config,
	storeOpts []Option) (*Server, error) {
	store, err := OpenStore(dir, dcfg, storeOpts...)
	if err != nil {
		return nil, err
	}
	s := NewServer(id, host, store, threadcache.Config{})
	s.ownsStore = true
	return s, nil
}

// Store exposes the underlying directory (for crashes and direct tests).
func (s *Server) Store() *Store { return s.store }

// Close flushes and closes the write-ahead log of a server that owns its
// store (OpenServer); otherwise there is nothing to release.
func (s *Server) Close() {
	if s.ownsStore {
		_ = s.store.Close()
	}
}

// Crash hard-stops an owned durable store without flushing — the SIGKILL
// stand-in for the crash-recovery harness.
func (s *Server) Crash() {
	if s.ownsStore {
		s.store.Crash()
	}
}

// Handle executes one request against this folder server, on the caller's
// thread, and blocks until it is answered: a blocking read that finds
// nothing parks on a waiter record and waits there, and respects cancel
// while it does, and only then: a canceled read answers StatusCanceled,
// which says nothing was consumed; one that had already taken a memo
// answers with the value. The memo server calls it on a thread for an op on
// a durable store, whose commit waits on the group fsync, and for in-process
// callers (Node.Dispatch); Serve is the threadless entrance. A sampled
// request (one whose dispatch wrapper attached a SpanSet) is timed, threads
// an opTrace through the store, and emits folder and durable spans with the
// shard-lock wait, park time, and group-commit wait it accumulated; any
// other request takes no timestamp here — whether it was slow is the
// dispatching memo server's to say.
func (s *Server) Handle(q *wire.Request, cancel <-chan struct{}) *wire.Response {
	if !q.Sampled || q.Spans == nil {
		return s.handle(q, cancel, nil)
	}
	start := time.Now()
	var ot opTrace
	resp := s.handle(q, cancel, &ot)
	s.spans(q, start, &ot)
	return resp
}

// Serve starts q on the calling goroutine — a conn's read loop — and never
// blocks it. It reports false, having done nothing, when q might wait: the
// store is durable, or q is a tokened take whose token another attempt still
// holds; the caller runs q through Handle on a thread instead. Otherwise q
// is answered: the response is returned when q completed at once, and nil
// when it parked, to be answered through a from the goroutine that
// completes it — a deposit's that re-scanned it, or a canceler's through the
// hook a.Hold received. Spans are as in Handle.
func (s *Server) Serve(q *wire.Request, a Answerer) (*wire.Response, bool) {
	if s.store.wal != nil {
		return nil, false
	}
	var start time.Time
	var waits opTrace
	var ot *opTrace
	if q.Sampled && q.Spans != nil {
		start, ot = time.Now(), &waits
	}
	var one [1]symbol.Key
	resp, op := s.do(q, ot, &one)
	if resp == nil {
		r, done, held := s.store.begin(&op, false)
		switch {
		case held:
			return nil, false
		case done:
			resp = respond(q.Op, op.mode, r)
		default:
			w := s.store.newWaiter(&op)
			a.Hold(w, w.ticket())
			if !w.step() {
				w.srv, w.q, w.ans, w.start = s, q, a, start
				w.trace.add(&waits)
				w.park()
				return nil, true
			}
			s.store.count(op.mode)
			resp = respond(q.Op, op.mode, outcome{key: op.keys[w.found], val: w.val, ok: true})
			ot.add(&w.trace)
			w.release()
		}
	}
	if ot != nil {
		s.spans(q, start, ot)
	}
	return resp, true
}

// answer answers the parked read w of a request Serve started, on the
// goroutine that completed it, and recycles w.
//
//memolint:nonblocking
func (s *Server) answer(w *waiter) {
	r := outcome{err: w.err}
	if r.err == nil {
		s.store.count(w.op.mode)
		r = outcome{key: w.op.keys[w.found], val: w.val, ok: true}
	}
	resp := respond(w.q.Op, w.op.mode, r)
	if !w.start.IsZero() {
		s.spans(w.q, w.start, &w.trace)
	}
	w.ans.Answer(resp)
	w.release()
}

// spans emits a sampled request's folder span — its shard-lock wait the
// span's wait — and, when it had them, its park and group-commit spans,
// anchored at the op's start (the store does not track individual
// intervals).
func (s *Server) spans(q *wire.Request, start time.Time, ot *opTrace) {
	dur := time.Since(start)
	startNS := start.UnixNano()
	q.Spans.Add(wire.Span{Node: s.where, Layer: "folder", Op: q.Op.String(),
		Folder: s.ID, Hop: q.Hops, Start: startNS, Dur: int64(dur), Wait: ot.lockWaitNS})
	if ot.parkNS > 0 {
		q.Spans.Add(wire.Span{Node: s.where, Layer: "folder", Op: "park",
			Folder: s.ID, Hop: q.Hops, Start: startNS, Dur: ot.parkNS})
	}
	if ot.commitNS > 0 {
		q.Spans.Add(wire.Span{Node: s.where, Layer: "durable", Op: "commit",
			Folder: s.ID, Hop: q.Hops, Start: startNS, Dur: ot.commitNS})
	}
}

// handle runs q to its response on the calling goroutine, accumulating its
// waits in ot when it is traced.
func (s *Server) handle(q *wire.Request, cancel <-chan struct{}, ot *opTrace) *wire.Response {
	var one [1]symbol.Key
	resp, op := s.do(q, ot, &one)
	if resp != nil {
		return resp
	}
	op.cancel = cancel
	k, payload, ok, err := s.store.read(&op)
	return respond(q.Op, op.mode, outcome{key: k, val: payload, ok: ok, err: err})
}

// do turns the request straight into the store's terms, read off the verb's
// row of the wire op table: a deposit, run here, or a readOp for the one
// read engine, returned with a nil response. A one-key read's key is copied
// into one, the caller's.
func (s *Server) do(q *wire.Request, ot *opTrace, one *[1]symbol.Key) (*wire.Response, readOp) {
	verb := q.Op.Info()
	switch {
	case q.Op == wire.OpPing:
		return wire.OK(), readOp{}
	case verb.Kind == wire.KindDeposit:
		var dest *symbol.Key
		if q.Op == wire.OpPutDelayed {
			dest = &q.Key2
		}
		if err := s.store.deposit(q.Key, dest, q.Payload, q.Token, ot); err != nil {
			return wire.Fail(fmt.Errorf("%s: %w", q.Op, err)), readOp{}
		}
		return wire.OK(), readOp{}
	case verb.Scope != wire.ScopeFolder:
		// Node- and host-scoped verbs belong to a memo server; an undefined
		// Op (the zero row) lands here too.
		return wire.Errf("folder server: unsupported op %s", q.Op), readOp{}
	}
	one[0] = q.Key
	op := readOp{keys: one[:], mode: verb.Kind, block: verb.Blocks, token: q.Token, ot: ot}
	if verb.MultiKey {
		op.keys = q.Keys
	}
	return nil, op
}

// respond turns a read's outcome into its response.
func respond(op wire.Op, mode readMode, r outcome) *wire.Response {
	switch {
	case r.err != nil:
		// A canceled read consumed nothing (StatusCanceled); an empty
		// alt_take/watch key set fails fast in the store (ErrNoKeys).
		return wire.Fail(fmt.Errorf("%s: %w", op, r.err))
	case !r.ok:
		return &wire.Response{Status: wire.StatusEmpty}
	case mode == modePeek:
		return &wire.Response{Status: wire.StatusWake, Key: r.key}
	}
	return &wire.Response{Status: wire.StatusOK, Key: r.key, Payload: r.val}
}

// Collect emits this server's folder_* series, labeled by folder-server id:
// the store's op counters, the dedup table's occupancy, directory occupancy
// gauges, and per-shard occupancy/waiter gauges. Runs at scrape time (gauges walk the shards under
// their locks), so it belongs in an obs.Collector, not on a hot path.
func (s *Server) Collect(e *obs.Emitter) {
	id := strconv.Itoa(s.ID)
	labels := map[string]string{"folder_server": id}
	store := s.store
	e.Counter("folder_puts_total", "puts applied", labels, store.puts.Load())
	e.Counter("folder_takes_total", "memos taken (get/alt_take/alt_skip)", labels, store.takes.Load())
	e.Counter("folder_copies_total", "non-consuming reads (get_copy)", labels, store.copies.Load())
	e.Counter("folder_delayed_total", "put_delayed values hidden", labels, store.delayedIn.Load())
	e.Counter("folder_released_total", "delayed values released by triggers", labels, store.released.Load())
	e.Counter("folder_dup_puts_total", "tokened puts deduplicated (acknowledged without applying)", labels, store.dupPuts.Load())
	e.Counter("folder_dup_takes_total", "tokened takes answered from the consumed-take cache", labels, store.dupTakes.Load())
	e.Counter("folder_alt_scans_total", "shard-group visits by multi-folder scans", labels, store.altScans.Load())

	t := &store.tokens
	t.mu.Lock()
	tokens, claims, evictions, cacheBytes := len(t.index), len(t.claims), t.evictions, t.cacheBytes
	t.mu.Unlock()
	e.Gauge("folder_tokens", "live dedup facts (applied put tokens and take results)", labels, int64(tokens))
	e.Counter("folder_token_evictions_total", "live dedup tokens forgotten by age", labels, evictions)
	e.Gauge("folder_take_cache_bytes", "payload bytes held by cached take results", labels, cacheBytes)
	e.Gauge("folder_claims_inflight", "tokened takes executing (parked gets included)", labels, int64(claims))

	o := store.occupancy(func(i int, o occupancy) {
		shLabels := map[string]string{"folder_server": id, "shard": strconv.Itoa(i)}
		e.Gauge("folder_shard_memos", "visible memos per stripe", shLabels, int64(o.memos))
		e.Gauge("folder_shard_waiters", "waiter registrations per stripe", shLabels, int64(o.waiters))
	})
	e.Gauge("folder_folders", "live folders", labels, int64(o.folders))
	e.Gauge("folder_memos", "visible memos", labels, int64(o.memos))
	e.Gauge("folder_delayed_hidden", "hidden put_delayed values, releases in flight included", labels, int64(o.delayed))
	e.Gauge("folder_waiters", "waiter registrations (blocked scans park several)", labels, int64(o.waiters))
}
