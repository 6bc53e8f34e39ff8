package folder

import (
	"slices"
	"sync"
	"time"

	"repro/internal/symbol"
	"repro/internal/wire"
)

// An Answerer is told the outcome of a read Server.Serve parked. Hold
// receives the parked read's cancel hook — after its token claim, before it
// registers on any folder — and Answer the response, exactly once, from the
// goroutine that completes the read: a deposit's, which re-scanned it, or a
// canceler's. Neither may block. rpc.Pending is one.
type Answerer interface {
	Hold(h wire.Canceler, id uint64)
	Answer(resp *wire.Response)
}

// waiter is a blocking read that found nothing: the store's one way to park.
// It is a record, not a goroutine. It sits on the waiter list of every folder
// it could be satisfied from, and a deposit that lands on one of them
// notifies it under the shard lock, then re-scans it on the deposit's own
// goroutine once that has unlocked and committed: a wake is a notification
// followed by a pass under the shard locks, never a value handed over. The
// read is answered by whoever moves it to done — a pass that takes its memo,
// or a cancel that finds it parked — and the party told is either a
// goroutine blocked in wait (the in-process calls) or an Answerer (a request
// Server.Serve started on a conn's read loop).
//
// Records are pooled with no channel in them: the channel an in-process wait
// blocks on is made for that one wait, so nothing the pool hands out can
// carry a channel from one testing/synctest bubble into another.
//
// mu guards the record's generation, phase and request flags, which at most
// three parties touch: the pass that owns the record, a depositor under a
// shard lock, and a canceler. Lock order is shard lock, then mu: nobody
// takes a shard lock while holding mu.
type waiter struct {
	mu sync.Mutex
	// gen is the ticket a canceler names the read by, bumped on every reuse;
	// it is the one field a canceler holding a stale ticket still reads.
	gen   uint64
	phase uint8
	// A pass owns a scanning record; these let a deposit or a cancel that
	// meets it there leave word for the pass instead of waiting for it.
	notified  bool // a deposit met w scanning: pass again before parking
	cancelReq bool // a cancel met w scanning: answer canceled unless the pass takes
	record
}

// record is everything of a waiter but its lock and state, reset as one on
// reuse.
type record struct {
	s *Store

	// op is the read, planned into cb, canon1 and group1 when it has one
	// key. Its keys are borrowed: keys (in key1 while it fits) copies the
	// headers of the caller's keys, whose memory outlives the record — an
	// in-process caller waits for its own answer, and a request Serve parked
	// is held by its Answerer until answered.
	op     readOp
	keys   []symbol.Key
	key1   [1]symbol.Key
	cb     [canonBuf]byte
	canon1 [1][]byte
	group1 [1]altGroup
	canons [][]byte
	groups []altGroup
	// registered is set while w may be on some folder's list.
	registered bool
	// trace is op's wait accumulator when the read is traced; parkedAt
	// stamps its first park.
	trace    opTrace
	parkedAt int64

	// The outcome, written by whoever moves w to done: the satisfied key's
	// index (-1 for none), the value, a take's record seq, or the error.
	found int
	val   []byte
	seq   uint64
	err   error

	// Who is told. ready is the channel of a goroutine blocked in wait;
	// otherwise srv answers q to ans, and start is a traced q's start.
	ready chan struct{}
	srv   *Server
	q     *wire.Request
	ans   Answerer
	start time.Time
}

// The phases of a record.
const (
	phaseScanning uint8 = iota // a pass owns w
	phaseParked                // registered and idle: a notify or a cancel may take it
	phaseDone                  // answered, or being answered by whoever moved it here
)

var recordPool = sync.Pool{New: func() any { return new(waiter) }}

// newWaiter draws a record for op, a blocking read that found nothing, in a
// new generation and owned by the caller (scanning). It borrows op's keys,
// copying their headers, and takes over op's token claim; op itself is not
// retained — for a one-key read its keys are the caller's frame.
func (s *Store) newWaiter(op *readOp) *waiter {
	w := recordPool.Get().(*waiter)
	w.mu.Lock()
	w.gen++
	w.phase, w.notified, w.cancelReq = phaseScanning, false, false
	w.mu.Unlock()
	w.s, w.found = s, -1
	if w.keys == nil {
		w.keys = w.key1[:0]
	}
	w.keys = append(w.keys[:0], op.keys...)
	w.op = readOp{keys: w.keys, mode: op.mode, block: true, token: op.token, claim: op.claim}
	op.claim = false
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
	w.record = record{keys: w.keys[:0]}
	recordPool.Put(w)
}

// step runs one pass of w's read, which the caller owns. A satisfied read is
// done and off every folder's list; otherwise w is registered on every folder
// of its plan.
func (w *waiter) step() bool {
	if len(w.keys) == 1 {
		// A one-key read that is passed again was taken off its folder's
		// list by the deposit that notified it.
		w.registered = false
	}
	found, val, seq := w.s.pass(&w.op, w.canons, w.groups, w)
	if found < 0 {
		return false
	}
	w.found, w.val, w.seq = found, val, seq
	w.mu.Lock()
	w.phase = phaseDone
	w.mu.Unlock()
	if w.registered {
		w.s.dropWaiter(w)
	}
	return true
}

// park hands w, owned by the caller after a fruitless pass, to the wakers:
// it passes again for every notification that arrived meanwhile, answers a
// cancel that did, and otherwise leaves w parked. The caller must not touch
// w afterwards.
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
				w.complete()
				return
			}
		default:
			w.phase = phaseParked
			w.mu.Unlock()
			return
		}
	}
}

// notify is a deposit's word to w, under the lock of a shard w is registered
// on. It reports whether the caller took w over from parked, and then owes
// it a rescan once it has unlocked (and committed); a w some pass owns is
// told to pass again, and a done one ignores it.
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

// rescan is the waker's half of a wake: one pass for a w that notify took
// over, on the waker's goroutine, then its answer or its park.
//
//memolint:nonblocking
func (w *waiter) rescan() {
	if w.step() {
		w.complete()
		return
	}
	w.park()
}

// Cancel asks the read holding ticket to stop waiting. A parked read is
// answered canceled here — nothing was consumed — and one a pass owns is
// told to, unless that pass takes its memo; a read already answered, or a
// record reused since, is left alone.
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
// every list, claim abandoned so a retry re-executes, StatusCanceled.
func (w *waiter) canceled() {
	w.s.dropWaiter(w)
	if w.op.claim {
		w.s.tokens.abandonTake(w.op.token)
		w.op.claim = false
	}
	w.err = wire.ErrCanceled
	w.complete()
}

// complete tells w's party that w is done. An Answerer's record recycles
// once answered; a waiting goroutine recycles its own.
func (w *waiter) complete() {
	if w.parkedAt != 0 {
		w.op.ot.parked(w.parkedAt)
	}
	if w.ready != nil {
		w.ready <- struct{}{}
		return
	}
	w.srv.answer(w)
}

// wait blocks the in-process caller that parked w until it is done. A cancel
// is a request like any other: w is done either way, and canceled only if
// nothing was taken.
//
//memolint:blocks
func (w *waiter) wait(cancel <-chan struct{}) {
	select {
	case <-w.ready:
	case <-cancel:
		w.Cancel(w.ticket())
		<-w.ready
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
// records it took over: the caller rescans each once it has unlocked and
// committed. Caller holds the shard lock.
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

// rescanAll rescans what wakeAll took over, on the waker's goroutine.
func rescanAll(woken []*waiter) {
	for _, w := range woken {
		w.rescan()
	}
}
