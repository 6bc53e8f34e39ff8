package folder

import (
	"slices"
	"sync"
	"time"

	"repro/internal/symbol"
	"repro/internal/wire"
)

// An Answerer is told the outcome of a read Server.Serve started. Hold
// receives the cancel hook of a read that parks — behind a claim or on its
// folders — before any goroutine but Serve's can complete it; a read
// answered at once takes none. Answer receives the response of a read that
// parked, exactly once, from the goroutine that completes it: a deposit's
// or a claim resolver's, which re-scanned it, or a canceler's. Neither may
// block. rpc.Pending is one.
type Answerer interface {
	Hold(h wire.Canceler, id uint64)
	Answer(resp *wire.Response)
}

// waiter is one op of the store: the record every folder op runs on, and
// the store's one way to wait. An op that must wait is still this record,
// not a goroutine, and waits in one of two ways. A read parks: behind the
// claim of a take token another attempt holds, or on the waiter list of
// every folder it could be satisfied from. The party that ends that wait —
// the resolver or canceler of the claim, or a deposit on one of the folders —
// notifies it under its lock (the token table's, the shard's), then
// re-scans it on its own goroutine once that has unlocked: a wake is a
// notification followed by another step, never a value handed over. And an
// op that logged a record on a durable store — a deposit, a take, or the
// repeat of either — is left with the write-ahead log under its seq, and
// the log completes it after the fsync that covers the record (Complete).
//
// Whoever finishes the op settles it (its tail) and tells its party: a
// goroutine blocked in wait (the in-process calls), an Answerer (a request
// Server.Serve started on a conn's read loop), or the release this store
// delivers to itself (onDone).
//
// Records are pooled with no channel in them: the channel an in-process wait
// on a cancelable read blocks on is made for that one wait, so nothing the
// pool hands out can carry a channel from one testing/synctest bubble into
// another.
//
// mu guards the record's generation, phase and flags, which at most three
// parties touch: the step that owns the record, a waker under a shard or
// token table lock, and a canceler. Lock order is shard lock, then token
// table, then mu: nobody takes either of the others while holding mu.
type waiter struct {
	mu sync.Mutex
	// gen is the ticket a canceler names the read by, bumped on every reuse;
	// it is the one field a canceler holding a stale ticket still reads.
	gen   uint64
	phase uint8
	// A step owns a scanning record; these let a waker or a cancel that
	// meets it there leave word for the step instead of waiting for it.
	notified  bool // a waker met w scanning: step again before parking
	cancelReq bool // a cancel met w scanning: answer canceled unless the step finishes
	// told is set once an in-process caller's op is answered; told signals
	// a caller waiting with no cancel to watch.
	told    bool
	toldSig sync.Cond
	record
}

// record is everything of a waiter but its lock and state, reset as one on
// reuse.
type record struct {
	s *Store

	// op is the op, planned into cb, canon1 and group1 when it has one
	// key. Its keys are borrowed: keys (in key1 while it fits)
	// copies the headers of the caller's keys, whose memory outlives the
	// record — an in-process caller waits for its own answer, and a request
	// Serve started is held by its Answerer until answered.
	op     storeOp
	keys   []symbol.Key
	key1   [1]symbol.Key
	cb     [canonBuf]byte
	canon1 [1][]byte
	group1 [1]altGroup
	canons [][]byte
	groups []altGroup
	// claim is set while w owns its take token's unresolved claim.
	claim bool
	// registered is set while w may be on some folder's list.
	registered bool
	// trace is op's wait accumulator when the op is traced; parkedAt stamps
	// its first park, loggedAt its hand-over to the log.
	trace    opTrace
	parkedAt int64
	loggedAt int64

	// A deposit's dest (nil for a put) and memo, borrowed like the keys.
	dest    *symbol.Key
	payload []byte

	// The outcome, written by whoever moves w to done, with a take's or a
	// deposit's record seq; cached marks an answer repeated from the token's
	// cached result, which waits for its original's record instead. A put
	// lists the delayed values it released.
	out      outcome
	seq      uint64
	cached   bool
	released []delayedEntry

	// Who is told. ready is the channel of a goroutine blocked in a
	// cancelable wait; srv answers q to ans, and start is a traced q's
	// start; onDone is a release's delivery report.
	ready  chan struct{}
	srv    *Server
	q      *wire.Request
	ans    Answerer
	start  time.Time
	onDone func(delivered bool)
}

// The phases of a record.
const (
	phaseScanning uint8 = iota // a pass owns w
	phaseParked                // registered and idle: a notify or a cancel may take it
	phaseDone                  // answered, or being answered by whoever moved it here
)

var recordPool = sync.Pool{New: func() any {
	w := new(waiter)
	w.toldSig.L = &w.mu
	return w
}}

// newWaiter draws a record for op, an op of at least one key, in a new
// generation and owned by the caller (scanning). It borrows op's keys,
// copying their headers; op itself is not retained — for a one-key op its
// keys are the caller's frame.
func (s *Store) newWaiter(op *storeOp) *waiter {
	w := recordPool.Get().(*waiter)
	w.mu.Lock()
	w.gen++
	w.phase, w.notified, w.cancelReq, w.told = phaseScanning, false, false, false
	w.mu.Unlock()
	w.s = s
	if w.keys == nil {
		w.keys = w.key1[:0]
	}
	w.keys = append(w.keys[:0], op.keys...)
	w.op = storeOp{keys: w.keys, mode: op.mode, block: op.block, token: op.token}
	if op.ot != nil {
		w.op.ot = &w.trace
	}
	if len(w.keys) > 1 {
		w.canons, w.groups = s.plan(w.keys)
	} else {
		w.canon1[0] = w.keys[0].AppendCanon(w.cb[:0])
		w.group1[0] = altGroup{si: int(s.shardIndex(w.keys[0])), idxs: oneIdx}
		w.canons, w.groups = w.canon1[:], w.group1[:]
	}
	return w
}

// ticket is the id a canceler names w by. Only its owner writes gen, in
// newWaiter, so the owner, or the goroutine waiting on w, reads it unlocked.
func (w *waiter) ticket() uint64 { return w.gen }

// release recycles a done record, dropping every reference it holds; its
// generation stays, so a cancel that still names its old ticket finds it
// done.
func (w *waiter) release() {
	clear(w.keys)
	clear(w.released)
	w.record = record{keys: w.keys[:0], released: w.released[:0]}
	recordPool.Put(w)
}

// step runs w's op, which the caller owns, once, and reports whether it is
// done. A deposit always is. A tokened take first claims its token, unless w
// holds the claim: a resolved token answers from its cached result, and one
// another attempt holds parks w behind that claim. Otherwise w makes one
// pass, which ends the read or, for a blocking one, leaves w registered on
// every folder of its plan. A done read is off every list.
func (w *waiter) step() bool {
	s, op := w.s, &w.op
	if op.mode == modeDeposit {
		s.deposit(w)
	} else if op.token != 0 && op.mode == modeTake && !w.claim {
		res, owner := s.tokens.claimTake(op.token, w)
		if !owner && res.kind == slotFree {
			return false
		}
		w.claim = owner
		if !owner {
			w.out, w.cached = s.fromCache(op, res), true
		}
	}
	if !w.cached && op.mode != modeDeposit {
		if len(w.keys) == 1 {
			// A one-key read that is passed again was taken off its folder's
			// list by the deposit that notified it.
			w.registered = false
		}
		found, val, seq := s.pass(w)
		switch {
		case found >= 0:
			w.out, w.seq = outcome{key: w.keys[found], val: val, ok: true}, seq
		case op.block:
			return false
		case w.claim:
			// The observed-empty miss is cached too — in memory only, an
			// empty answer needs no durability — so a retried skip repeats
			// its original's answer instead of sampling again.
			w.claim = false
			rescanAll(s.tokens.resolveTake(tokSlot{tok: op.token, kind: slotEmpty}, nil))
		}
	}
	w.mu.Lock()
	w.phase = phaseDone
	w.mu.Unlock()
	if w.registered {
		s.dropWaiter(w)
	}
	return true
}

// park hands w, owned by the caller after a step that left it waiting, to
// the wakers: it steps again for every notification that arrived meanwhile,
// answers a cancel that did, and otherwise leaves w parked. The caller must
// not touch w afterwards.
func (w *waiter) park() {
	if w.op.ot != nil && w.parkedAt == 0 {
		w.parkedAt = w.op.ot.clock()
	}
	for {
		w.mu.Lock()
		switch {
		case w.cancelReq:
			w.phase = phaseDone
			w.mu.Unlock()
			w.canceled()
			return
		case w.notified:
			w.notified = false
			w.mu.Unlock()
			if w.step() {
				w.done()
				return
			}
		default:
			w.phase = phaseParked
			w.mu.Unlock()
			return
		}
	}
}

// notify is a waker's word to w, under the lock of a shard w is registered
// on or of the token table w is parked behind a claim in. It reports whether
// the caller took w over from parked, and then owes it a rescan once it has
// unlocked; a w some step owns is told to step again, and a done one
// ignores it.
func (w *waiter) notify() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	switch w.phase {
	case phaseParked:
		w.phase = phaseScanning
		return true
	case phaseScanning:
		w.notified = true
	}
	return false
}

// rescan is the waker's half of a wake: one step for a w that notify took
// over, on the waker's goroutine, then its answer or its park.
//
//memolint:nonblocking
func (w *waiter) rescan() {
	if w.step() {
		w.done()
		return
	}
	w.park()
}

// Cancel asks the read holding ticket to stop waiting. A parked read is
// answered canceled here — nothing was consumed — and one a step owns is
// told to, unless that step finishes it; a read that is done — answered, or
// waiting for the fsync of what it took — or a record reused since, is left
// alone.
//
//memolint:nonblocking
func (w *waiter) Cancel(ticket uint64) {
	w.mu.Lock()
	parked := w.gen == ticket && w.phase == phaseParked
	switch {
	case parked:
		w.phase = phaseDone
	case w.gen == ticket && w.phase == phaseScanning:
		w.cancelReq = true
	}
	w.mu.Unlock()
	if parked {
		w.canceled()
	}
}

// canceled answers a read the caller just moved to done without a memo: off
// every list and every claim, its own claim abandoned so a retry re-executes
// (the retries parked behind it rescanned), StatusCanceled.
func (w *waiter) canceled() {
	var woken []*waiter
	if w.registered {
		w.s.dropWaiter(w)
	}
	switch {
	case w.claim:
		w.claim = false
		woken = w.s.tokens.abandonTake(w.op.token, nil)
	case w.op.token != 0 && w.op.mode == modeTake:
		w.s.tokens.leave(w.op.token, w)
	}
	w.out = outcome{err: wire.ErrCanceled}
	w.Complete(nil)
	rescanAll(woken)
}

// hand hands on w after its first step, which did or did not finish it.
func (w *waiter) hand(done bool) {
	if done {
		w.done()
	} else {
		w.park()
	}
}

// done hands on w, whose step finished it: an op that logged a record on a
// durable store — a deposit, a take, or a repeat of either, whose seq is 0,
// a barrier on its original's record — is left with the log, which
// completes it after the fsync that covers its record; anything else is
// complete at once.
func (w *waiter) done() {
	if w.parkedAt != 0 {
		w.op.ot.parked(w.parkedAt)
	}
	if w.logged() {
		w.loggedAt = w.op.ot.clock()
		w.s.wal.Await(w.seq, w)
		return
	}
	w.Complete(nil)
}

// logged reports whether done leaves w with the log.
func (w *waiter) logged() bool {
	return w.s.wal != nil && w.out.ok && (w.op.mode == modeTake || w.op.mode == modeDeposit)
}

// Complete settles w with err, the log's verdict on its record (nil when it
// logged none), and tells its party: the completion the log runs for a
// logged op, on its syncer's goroutine, and the end of every other op.
//
//memolint:nonblocking
func (w *waiter) Complete(err error) {
	w.settle(err)
	w.tell()
}

// settle is w's tail. A failed record voids the outcome: a take's item goes
// back — a payload never leaves the store without its removal durable — and
// its token is forgotten, so stale holders of its entry fail too. Otherwise
// a put delivers what it released, and a satisfied read is counted in the
// folder_* counters (a cached answer was counted as a dedup when drawn). A
// logged op may then start the background snapshot cycle.
func (w *waiter) settle(err error) {
	s := w.s
	if w.loggedAt != 0 {
		w.op.ot.committed(w.loggedAt)
	}
	switch {
	case err != nil && w.op.mode == modeTake && !w.cached:
		s.untake(w.out.key, w.out.val)
		s.tokens.forget(w.op.token)
		fallthrough
	case err != nil:
		w.out = outcome{err: err}
	case !w.out.ok || w.cached:
	case w.op.mode == modeDeposit:
		s.deliver(w)
	case w.op.mode == modeTake:
		s.takes.Inc()
	case w.op.mode == modeCopy:
		s.copies.Inc()
	}
	if err == nil {
		s.maybeSnapshot()
	}
}

// tell hands settled w's outcome to its party. A Serve request's record
// recycles once answered, a release's once reported; a waiting goroutine
// recycles its own.
func (w *waiter) tell() {
	switch {
	case w.ans != nil:
		w.srv.answer(w)
	case w.onDone != nil:
		w.onDone(w.out.err == nil)
		w.release()
	default:
		w.mu.Lock()
		w.told = true
		w.toldSig.Signal()
		ready := w.ready
		w.mu.Unlock()
		if ready != nil {
			ready <- struct{}{}
		}
	}
}

// wait blocks the in-process caller of w until w is told. Without a cancel
// to watch it waits on the record itself; with one, on a channel made for
// this wait. A cancel is a request like any other: w is done either way,
// and canceled only if nothing was taken.
//
//memolint:blocks
func (w *waiter) wait(cancel <-chan struct{}) {
	w.mu.Lock()
	if cancel == nil || w.told {
		for !w.told {
			w.toldSig.Wait()
		}
		w.mu.Unlock()
		return
	}
	ready := make(chan struct{}, 1)
	w.ready = ready
	w.mu.Unlock()
	select {
	case <-ready:
	case <-cancel:
		w.Cancel(w.ticket())
		<-ready
	}
}

// dropWaiter removes w wherever it is still registered, one shard at a time,
// and lets folders it was keeping alive vanish. Folders that never saw a
// registration are scanned harmlessly.
func (s *Store) dropWaiter(w *waiter) {
	for _, g := range w.groups {
		sh := &s.shards[g.si]
		sh.mu.Lock()
		for _, idx := range g.idxs {
			if f, ok := sh.folders[string(w.canons[idx])]; ok {
				if i := slices.Index(f.waiters, w); i >= 0 {
					f.waiters = slices.Delete(f.waiters, i, i+1)
				}
				sh.gcFold(f)
			}
		}
		sh.mu.Unlock()
	}
	w.registered = false
}

// wakeAll notifies every waiter on f and clears the list in place, keeping
// its capacity for the next read that parks here, and appends to woken the
// records it took over: the caller rescans each once it has unlocked.
// Caller holds the shard lock.
//
//memolint:nonblocking
func (f *fold) wakeAll(woken []*waiter) []*waiter {
	for i, w := range f.waiters {
		if w.notify() {
			woken = append(woken, w)
		}
		f.waiters[i] = nil
	}
	f.waiters = f.waiters[:0]
	return woken
}

// rescanAll rescans what wakeAll or a claim's end took over, on the waker's
// goroutine.
func rescanAll(woken []*waiter) {
	for _, w := range woken {
		w.rescan()
	}
}
