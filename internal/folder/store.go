// Package folder implements D-Memo folder servers (paper §4.1): each server
// maintains a directory of unordered queues with exclusive access to its
// folders.
//
// Store is the data plane: folders spring into existence when first touched
// ("If a folder does not exist, it is created"), hold memos in no promised
// order, block getters until memos arrive, hold put_delayed values invisibly
// until a trigger memo lands, and vanish when they empty out. Server wraps a
// Store with the wire protocol: Server.Serve is the one way a request
// enters the store.
//
// The directory is lock-striped: folders are hashed onto a fixed set of
// shards, each with its own mutex and extraction rng, so operations on
// distinct folders proceed in parallel.
//
// Every op is a storeOp value — which keys, deposit or take/copy/peek,
// block or skip, dedup token — run on one pooled record (waiter.go).
// Store.deposit is the write side (put, put_delayed). A read visits its
// op's shards one at a time, never holding two shard locks at once. A
// blocking read that finds nothing leaves its record on the folders it
// could be satisfied from, and a Put on any of them re-scans it; a take
// whose token another attempt holds leaves it behind that claim instead.
// On a durable store, an op that logged a record is left with the
// write-ahead log, which completes it after the fsync that covers the
// record. The exported methods are thin in-process waits over the same
// records.
package folder

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/durable"
	"repro/internal/obs"
	"repro/internal/symbol"
	"repro/internal/wire"
)

// ErrNoKeys reports a multi-folder operation (AltTake, Watch) invoked with
// an empty key set: there is no folder that could ever satisfy it.
var ErrNoKeys = errors.New("folder: empty key set")

// ForwardFunc delivers a put_delayed release whose destination folder may
// live on a different folder server. The Store calls it outside its locks.
// relToken is the entry's release token: the delivery must carry it as the
// deposit's dedup token, so a crash-recovered re-release deduplicates
// instead of duplicating. Until done is called the entry stays hidden in the
// trigger's folder, marked in flight: counted, snapshotted, and skipped by
// later triggers. done reports the delivery's end, once: done(true) once it
// has been handed off safely (destination acknowledged, or queued on the
// remote dispatcher), and the store removes the entry and logs its release
// in one critical section, so recovery stops re-delivering it; done(false)
// once it has failed (the destination stayed unreachable past the link's
// retries), and the store clears the mark, so the next trigger re-releases
// it under the same token.
type ForwardFunc func(dest symbol.Key, payload []byte, relToken uint64, done func(delivered bool))

// DefaultShards is the stripe count. A power of two comfortably above
// typical core counts: striping is cheap and more stripes only help under
// contention.
const DefaultShards = 32

// Store is one folder server's directory of unordered queues. All methods
// are safe for concurrent use.
type Store struct {
	shards []shard
	mask   uint64 // len(shards)-1; len is a power of two

	// altSeq seeds the scan rotation of multi-shard operations so no
	// shard or folder is systematically favoured. Advanced atomically;
	// shared state on a path that is otherwise lock-striped.
	altSeq atomic.Uint64

	// forward handles cross-server put_delayed releases. When nil,
	// releases are delivered locally.
	forward ForwardFunc

	// wal, when non-nil, is the durability engine: every mutating op
	// appends its record under the shard lock and is acknowledged only once
	// the log has synced it. Nil (the default) keeps the historical
	// memory-only store. See OpenStore.
	wal *durable.Log
	// snapMu is held by the background snapshot cycle while it runs (which
	// single-flights it), and for good once Close or Crash has joined it.
	snapMu    sync.Mutex
	stopSnaps sync.Once

	// tokens is the at-most-once dedup table: applied put tokens, checked
	// and recorded inside the target shard's critical section (shard lock
	// ordered before the table's own lock). It works with or without the
	// wal — link-failure retries need it in memory, crash recovery
	// additionally restores it from the log.
	tokens tokenTable

	// Operation counters, rendered as the folder_* series by
	// Server.Collect. altScans counts shard-group visits by the
	// multi-folder scans (AltTake/AltSkip/Watch): scans per satisfied take
	// is the §6.1.2 get_alt selection cost.
	puts      obs.Counter
	takes     obs.Counter
	copies    obs.Counter
	delayedIn obs.Counter
	released  obs.Counter
	dupPuts   obs.Counter
	dupTakes  obs.Counter
	altScans  obs.Counter
}

// shard is one stripe of the directory: a mutex, the folders hashed onto
// this stripe, and an extraction rng (per-shard so nextRand never contends
// across stripes). Padded so adjacent shards do not share a cache line.
type shard struct {
	mu      sync.Mutex //memolint:shard-lock
	folders map[string]*fold
	rng     uint64 // xorshift state for unordered extraction
	// free holds the last few folders that vanished here, emptied but with
	// their slices' capacity and their name: a ping-pong folder vanishes on
	// every take and springs back on the next put, and re-making it from
	// one of these costs nothing.
	free []*fold
	_    [80]byte
}

// maxFreeFolds bounds a shard's free list.
const maxFreeFolds = 8

// fold is a single folder. Items are the store's private payload copies: a
// take hands the slice itself to the caller. A fold is only ever reached
// through its shard, under the shard lock.
type fold struct {
	// name is the folder's canonical key form, the string the shard's map
	// holds it under.
	name    string
	items   [][]byte
	delayed []delayedEntry
	// waiters are notified (and cleared) whenever an item arrives.
	waiters []*waiter
}

type delayedEntry struct {
	val  []byte
	dest symbol.Key
	// rel is the release token: minted when the value is hidden, carried
	// by its eventual re-deposit as a dedup token, and named by the
	// RecRelease record once that re-deposit is safe.
	rel uint64
	// inFlight marks an entry a trigger has released whose delivery has not
	// ended: it stays in its folder, counted and dumped as hidden, until
	// releaseEnded removes it or clears the mark.
	inFlight bool
}

// Option configures a Store.
type Option func(*Store)

// WithForward installs the cross-server release handler.
func WithForward(f ForwardFunc) Option {
	return func(s *Store) { s.forward = f }
}

// DefaultTokenCap bounds the dedup-token table. Evicted-oldest-first; a
// retry delayed past this many newer tokened puts can no longer be
// deduplicated, so the cap is sized far beyond any sane retry window.
const DefaultTokenCap = 1 << 17

// NewStore returns an empty directory.
func NewStore(opts ...Option) *Store {
	s := &Store{shards: make([]shard, DefaultShards), mask: DefaultShards - 1, tokens: tokenTable{cap: DefaultTokenCap}}
	for _, o := range opts {
		o(s)
	}
	for i := range s.shards {
		s.shards[i].folders = make(map[string]*fold)
		// Fixed per-shard seeds: deterministic, still unordered, never
		// zero (xorshift sticks at zero).
		s.shards[i].rng = mix64(0x9E3779B97F4A7C15 * uint64(i+1))
	}
	return s
}

// mix64 is the splitmix64 finalizer: a cheap, well-distributed scrambler.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	if x == 0 {
		return 1
	}
	return x
}

// shardIndex maps a key onto a stripe. Key.Hash is a pure function of the
// same (S, X) content that Canon renders, so keys naming the same folder
// always land on the same shard.
func (s *Store) shardIndex(key symbol.Key) uint64 {
	return key.Hash() & s.mask
}

func (s *Store) shardFor(key symbol.Key) *shard {
	return &s.shards[s.shardIndex(key)]
}

// nextSeq advances the rotation used to pick a starting shard for
// multi-folder scans.
func (s *Store) nextSeq() uint64 {
	return mix64(s.altSeq.Add(0x9E3779B97F4A7C15))
}

// nextRand advances the shard's extraction sequence. Caller holds sh.mu.
func (sh *shard) nextRand() uint64 {
	x := sh.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	sh.rng = x
	return x
}

// getFold returns the folder named canon (Key.AppendCanon, typically into a
// stack buffer: looking a folder up makes no string), creating it on demand —
// from the free list when it can, preferring the fold that last carried this
// very name, whose string is then reused too. Caller holds sh.mu.
func (sh *shard) getFold(canon []byte) *fold {
	if f, ok := sh.folders[string(canon)]; ok {
		return f
	}
	var f *fold
	if last := len(sh.free) - 1; last < 0 {
		f = &fold{}
	} else {
		pick := last
		for i, c := range sh.free {
			if c.name == string(canon) {
				pick = i
				break
			}
		}
		f = sh.free[pick]
		sh.free[pick] = sh.free[last]
		sh.free[last] = nil
		sh.free = sh.free[:last]
	}
	if f.name != string(canon) {
		f.name = string(canon)
	}
	sh.folders[f.name] = f
	return f
}

// gcFold removes the folder if it is completely inert: no memos, no hidden
// delayed values, no waiters ("The folder will vanish once the memo is
// removed"). The caller must not touch f afterwards: it may already be
// another folder. Caller holds sh.mu.
func (sh *shard) gcFold(f *fold) {
	if len(f.items) == 0 && len(f.delayed) == 0 && len(f.waiters) == 0 {
		delete(sh.folders, f.name)
		if len(sh.free) < maxFreeFolds {
			sh.free = append(sh.free, f)
		}
	}
}

// takeLocked removes a pseudo-random item from f. Caller holds sh.mu and
// guarantees f has items.
func (sh *shard) takeLocked(f *fold) []byte {
	return f.removeAt(int(sh.nextRand() % uint64(len(f.items))))
}

// removeAt swap-removes item i (the queue is unordered). Caller holds the
// shard lock.
func (f *fold) removeAt(i int) []byte {
	val := f.items[i]
	last := len(f.items) - 1
	f.items[i] = f.items[last]
	f.items[last] = nil
	f.items = f.items[:last]
	return val
}

// opTrace accumulates the wait components of one sampled folder operation:
// time spent acquiring shard locks, time parked waiting for a memo, and time
// waiting for its WAL record's group commit. The server turns the totals
// into folder/durable spans. A nil *opTrace (every public entry point, and
// every unsampled request) is fully inert: the helpers branch on nil before
// touching the clock, so the untraced path takes no timestamps and allocates
// nothing.
type opTrace struct {
	lockWaitNS int64
	parkNS     int64
	commitNS   int64
}

// clock returns a start stamp for one timed section (0 when untraced).
func (ot *opTrace) clock() int64 {
	if ot == nil {
		return 0
	}
	return time.Now().UnixNano()
}

func (ot *opTrace) lockAcquired(t0 int64) {
	if ot != nil {
		ot.lockWaitNS += time.Now().UnixNano() - t0
	}
}

func (ot *opTrace) parked(t0 int64) {
	if ot != nil {
		ot.parkNS += time.Now().UnixNano() - t0
	}
}

func (ot *opTrace) committed(t0 int64) {
	if ot != nil {
		ot.commitNS += time.Now().UnixNano() - t0
	}
}

// add accumulates the waits another accumulator recorded for the same op:
// the part of a read that ran on its waiter record.
func (ot *opTrace) add(o *opTrace) {
	if ot != nil {
		ot.lockWaitNS += o.lockWaitNS
		ot.parkNS += o.parkNS
		ot.commitNS += o.commitNS
	}
}

// deposit is the one write path, the step of w, a deposit's record. With
// no dest it is put: the memo becomes visible in its folder, every delayed
// value hidden there is marked in flight into w.released, and every waiter
// is notified, then re-scanned on this goroutine once the deposit has
// unlocked. Otherwise it is put_delayed: the payload is hidden in the
// (trigger's) folder until the next put there releases it into *dest
// (§6.1.2); it is not gettable from the trigger.
//
// A token (0 = none) already applied makes it a repeat, acknowledged without
// depositing again — the retry path for a maybe-delivered put — but, like
// any deposit on a durable store, only once the log has synced what it
// repeats (see done).
func (s *Store) deposit(w *waiter) {
	op := &w.op
	key, dest := op.keys[0], w.dest
	// The store keeps a private copy, made outside any lock.
	val := bytes.Clone(w.payload)
	si := w.groups[0].si
	sh := &s.shards[si]
	t0 := op.ot.clock()
	sh.mu.Lock()
	op.ot.lockAcquired(t0)
	w.out.ok = true
	if op.token != 0 && !s.tokens.noteIfNew(op.token) {
		sh.mu.Unlock()
		s.dupPuts.Inc()
		return
	}
	f := sh.getFold(w.canons[0])
	var rel uint64
	var wb [4]*waiter
	woken := wb[:0]
	if dest == nil {
		f.items = append(f.items, val)
		// Released entries stay, marked in flight; one already in flight
		// is skipped.
		for i := range f.delayed {
			if d := &f.delayed[i]; !d.inFlight {
				d.inFlight = true
				w.released = append(w.released, *d)
			}
		}
		woken = f.wakeAll(woken)
	} else {
		// Every hidden value gets a release token up front: its eventual
		// re-deposit (possibly re-driven by crash recovery, possibly retried
		// across a link failure) dedups on it.
		rel = wire.NewID()
		f.delayed = append(f.delayed, delayedEntry{val: val, dest: dest.Clone(), rel: rel})
	}
	if s.wal != nil {
		rec := durable.Record{Type: durable.RecPut, Key: key, Payload: w.payload, Token: op.token}
		if dest != nil {
			rec.Type, rec.Dest, rec.Rel = durable.RecPutDelayed, *dest, rel
		}
		w.seq = s.wal.Append(si, &rec)
	}
	sh.mu.Unlock()

	if dest != nil {
		s.delayedIn.Inc()
	} else {
		s.puts.Inc()
	}
	// A woken read that takes logs its record after this one, so the fsync
	// that answers it covers this deposit too.
	rescanAll(woken)
}

// deliver hands on the delayed values a put released, once the put is
// durable, and with it every hidden value's earlier RecPutDelayed: a value
// that reached its destination while a crash could still erase its record
// here would be hidden again by the client's retry, under a new release
// token. Each carries its release token as its dedup token, to the forward
// hook or, without one, to a deposit on this store. The entry leaves its
// folder only in the critical section that logs its RecRelease
// (releaseEnded), so memory is what replay rebuilds at every instant: a
// crash before that record re-releases the entry, deduplicated at the
// destination, and an acknowledged hidden value is neither lost nor
// delivered twice.
func (s *Store) deliver(w *waiter) {
	for _, d := range w.released {
		s.released.Inc()
		// done may run after the request's buffers, the trigger key's among
		// them, are reused.
		trigger := w.keys[0].Clone()
		done := func(delivered bool) { s.releaseEnded(trigger, d.rel, delivered) }
		if s.forward != nil {
			s.forward(d.dest, d.val, d.rel, done)
			continue
		}
		r := s.newWaiter(&storeOp{keys: []symbol.Key{d.dest}, mode: modeDeposit, token: d.rel})
		r.payload, r.onDone = d.val, done
		r.step()
		r.done()
	}
}

// endRelease ends the release of the delayed entry with release token rel:
// a delivered entry leaves the folder, a failed one loses its in-flight
// mark. It reports whether the entry was there. Caller holds the shard lock.
func (f *fold) endRelease(rel uint64, delivered bool) bool {
	i := slices.IndexFunc(f.delayed, func(d delayedEntry) bool { return d.rel == rel })
	if i >= 0 && delivered {
		f.delayed = slices.Delete(f.delayed, i, i+1)
	} else if i >= 0 {
		f.delayed[i].inFlight = false
	}
	return i >= 0
}

// releaseEnded settles the in-flight entry with release token rel, released
// from trigger's folder (endRelease). A delivered entry's RecRelease is
// logged in the critical section that removes it, so a snapshot cut finds
// the entry either still hidden or gone with its record in the new
// generation. No commit wait for the record: if a crash loses it, recovery
// re-releases the entry and its token deduplicates the second delivery.
func (s *Store) releaseEnded(trigger symbol.Key, rel uint64, delivered bool) {
	var cb [canonBuf]byte
	si := int(s.shardIndex(trigger))
	sh := &s.shards[si]
	sh.mu.Lock()
	f := sh.folders[string(trigger.AppendCanon(cb[:0]))] // kept alive by the entry
	if f.endRelease(rel, delivered) && delivered && s.wal != nil {
		s.wal.Append(si, &durable.Record{Type: durable.RecRelease, Key: trigger, Token: rel})
	}
	sh.gcFold(f)
	sh.mu.Unlock()
}

// Put deposits a memo and releases any delayed values hidden in the folder.
//
//memolint:must-check-error
func (s *Store) Put(key symbol.Key, payload []byte) error {
	return s.PutToken(key, payload, 0)
}

// PutToken is Put carrying an at-most-once dedup token (0 = none); see
// deposit.
//
//memolint:must-check-error
func (s *Store) PutToken(key symbol.Key, payload []byte, token uint64) error {
	_, _, _, err := s.run(&storeOp{keys: []symbol.Key{key}, mode: modeDeposit, token: token}, nil, payload)
	return err
}

// readMode is what an op does with the folder it finds: the kinds of the
// wire op table, so a verb's row is its storeOp's mode.
type readMode = wire.Kind

const (
	modeDeposit = wire.KindDeposit // add a memo, or hide a delayed one
	modeTake    = wire.KindTake    // remove the memo and return it
	modeCopy    = wire.KindCopy    // return a copy, leaving the memo in place
	modePeek    = wire.KindPeek    // only report which folder holds a memo
)

// storeOp describes one op of the directory; every folder verb is a value of
// it (the table in DESIGN.md §3), run on a record (waiter.go).
type storeOp struct {
	// keys are the candidate folders: a deposit's one, or a read's. One key
	// takes the frame-local plan; several are bucketed by shard. None at all
	// can never be satisfied.
	keys []symbol.Key
	// mode is always set: the zero Kind is not an op.
	mode readMode
	// block parks the read until a memo arrives or it is canceled; without
	// it a miss is reported at once.
	block bool
	// token, when non-zero, is the at-most-once dedup token of a deposit or
	// a take: the first attempt to claim a take's executes it and caches the
	// (key, payload) it consumed, every retry is answered from that cache.
	// Copies and peeks consume nothing and ignore it.
	token uint64
	// cancel ends an in-process wait (Store.run); a read Server.Serve
	// started is canceled through its Answerer's hook instead.
	cancel <-chan struct{}
	ot     *opTrace // nil = untraced
}

// fromCache is a deduplicated take's answer, from its token's cached
// result: a private copy of the payload — the cached slice is the one the
// original take returned — or the miss a skip observed. A token a deposit
// used, or a cached miss met by a blocking take, is a collision or a
// protocol error (tokens are minted per operation from 64 random bits), and
// is refused rather than guessed at. The answer still waits for the log to
// sync its original's record (done): a cache hit must never be acknowledged
// ahead of the removal it repeats.
func (s *Store) fromCache(op *storeOp, res tokSlot) outcome {
	if res.kind == slotPut {
		return outcome{err: fmt.Errorf("folder: take token %#x already applied by a deposit", op.token)}
	}
	s.dupTakes.Inc()
	switch {
	case res.kind == slotEmpty && op.block:
		return outcome{err: fmt.Errorf("folder: take token %#x cached an empty result", op.token)}
	case res.kind == slotEmpty:
		return outcome{}
	}
	key, err := symbol.ParseCanon(res.name)
	return outcome{key: key, val: bytes.Clone(res.data), ok: err == nil, err: err}
}

// canonBuf is the stack buffer a request's folder name is built in: enough
// for a symbol and four or five indices; a longer name spills to the heap.
const canonBuf = 64

// altGroup is the slice of a read's key set that lives on one shard: the
// stripe index plus indices into the op's keys/canons.
type altGroup struct {
	si   int
	idxs []int
}

// oneIdx is the index list of every single-key plan. Shared and read-only.
var oneIdx = []int{0}

// plan renders a multi-key read's canonical folder names and buckets its
// keys by shard, in ascending shard order (a deterministic scan order; locks
// are only ever taken one at a time). Groups share one sorted index slice
// instead of a map to keep the get_alt/watch path light on allocations.
func (s *Store) plan(keys []symbol.Key) ([][]byte, []altGroup) {
	canons := make([][]byte, len(keys))
	shardOf := make([]uint64, len(keys))
	idxs := make([]int, len(keys))
	for i, k := range keys {
		canons[i] = k.AppendCanon(nil)
		shardOf[i] = s.shardIndex(k)
		idxs[i] = i
	}
	slices.SortFunc(idxs, func(a, b int) int {
		return cmp.Compare(shardOf[a], shardOf[b])
	})
	var groups []altGroup
	for start := 0; start < len(idxs); {
		si := shardOf[idxs[start]]
		end := start + 1
		for end < len(idxs) && shardOf[idxs[end]] == si {
			end++
		}
		groups = append(groups, altGroup{si: int(si), idxs: idxs[start:end]})
		start = end
	}
	return canons, groups
}

// outcome is what a read reports: the satisfied key, the payload (nil for a
// peek) and ok, or ok == false for a non-blocking miss, or the error.
type outcome struct {
	key symbol.Key
	val []byte
	ok  bool
	err error
}

// run is the in-process entry of the per-verb methods: op — a deposit's
// with its dest and payload — runs on a record like any other, and the
// calling goroutine waits in the record's wait for its answer, on a parked
// read's wake or a logged op's fsync, as Handle does. A read of no keys is
// answered up front: a blocking one fails with ErrNoKeys — no folder could
// ever satisfy it — and a non-blocking one just misses.
//
//memolint:must-check-error
func (s *Store) run(op *storeOp, dest *symbol.Key, payload []byte) (symbol.Key, []byte, bool, error) {
	r := noKeys(op)
	if len(op.keys) > 0 {
		w := s.newWaiter(op)
		w.dest, w.payload = dest, payload
		w.hand(w.step())
		w.wait(op.cancel)
		r = w.out
		op.ot.add(&w.trace)
		w.release()
	}
	return r.key, r.val, r.ok, r.err
}

// noKeys is the outcome of a read of no keys.
func noKeys(op *storeOp) outcome {
	if op.block {
		return outcome{err: ErrNoKeys}
	}
	return outcome{}
}

// pass visits the planned shards of w's read once, one lock at a time,
// never holding two, starting from a rotating shard. It returns the index of
// the satisfied key (-1: none), the value, and a take's record seq. For a
// blocking read, every folder of a shard that cannot satisfy it gets w on
// its waiter list before the pass moves on, so a deposit that lands on an
// already-visited shard finds w there and no wakeup is lost. A take that
// resolves w's claim rescans the retries parked behind it once unlocked.
func (s *Store) pass(w *waiter) (found int, val []byte, seq uint64) {
	op, canons, groups := &w.op, w.canons, w.groups
	multi := len(op.keys) > 1
	var wb [4]*waiter
	woken := wb[:0]
	start := 0
	if len(groups) > 1 {
		start = int(s.nextSeq() % uint64(len(groups)))
	}
	for gi := range groups {
		g := groups[(start+gi)%len(groups)]
		if multi {
			s.altScans.Inc()
		}
		sh := &s.shards[g.si]
		t0 := op.ot.clock()
		sh.mu.Lock()
		op.ot.lockAcquired(t0)
		// Among several eligible folders the choice rotates (§6.1.2
		// get_alt is nondeterministic).
		off := 0
		if len(g.idxs) > 1 {
			off = int(sh.nextRand() % uint64(len(g.idxs)))
		}
		found = -1
		var f *fold
		for j := range g.idxs {
			idx := g.idxs[(off+j)%len(g.idxs)]
			if c, ok := sh.folders[string(canons[idx])]; ok && len(c.items) > 0 {
				found, f = idx, c
				break
			}
		}
		switch {
		case found < 0:
			if op.block {
				for _, idx := range g.idxs {
					// A multi-key read is still on the folders that did not
					// notify it.
					if c := sh.getFold(canons[idx]); !multi || !slices.Contains(c.waiters, w) {
						c.waiters = append(c.waiters, w)
					}
				}
				w.registered = true
			}
		case op.mode == modeTake:
			val = sh.takeLocked(f)
			if s.wal != nil {
				// The token rides in the record so replay can re-cache
				// the result for retries.
				seq = s.wal.Append(g.si, &durable.Record{
					Type: durable.RecTake, Key: op.keys[found], Payload: val, Token: op.token,
				})
			}
			if w.claim {
				// Resolve inside the critical section that removed the
				// item: snapshot cuts order against it (see the token
				// dump in snapshot), and a parked retry's answer still
				// waits for the log to sync this record (done). The fact
				// holds the folder's own name and
				// the taken slice itself: nothing is copied, nothing
				// allocated.
				w.claim = false
				woken = s.tokens.resolveTake(tokSlot{tok: op.token, kind: slotTake, name: f.name, data: val}, woken)
			}
			sh.gcFold(f)
		case op.mode == modeCopy:
			val = bytes.Clone(f.items[sh.nextRand()%uint64(len(f.items))])
		}
		sh.mu.Unlock()
		if found >= 0 {
			rescanAll(woken)
			return found, val, seq
		}
	}
	return -1, nil, 0
}

// untake puts a taken item back after its record failed, and re-scans the
// reads it notified. No record is logged: records only fail on a dead log,
// which accepts no records.
func (s *Store) untake(key symbol.Key, val []byte) {
	var cb [canonBuf]byte
	var wb [4]*waiter
	sh := s.shardFor(key)
	sh.mu.Lock()
	f := sh.getFold(key.AppendCanon(cb[:0]))
	f.items = append(f.items, val)
	woken := f.wakeAll(wb[:0])
	sh.mu.Unlock()
	rescanAll(woken)
}

// GetToken is Get carrying an at-most-once dedup token (0 = none): the
// retry path for a maybe-executed destructive read. The caller receives the
// same memo exactly once no matter how many attempts raced. The slice a
// tokened take returns is also the dedup table's cached answer for retries:
// read it, encode it, do not write into it.
//
//memolint:must-check-error
func (s *Store) GetToken(key symbol.Key, token uint64, cancel <-chan struct{}) ([]byte, error) {
	_, out, _, err := s.run(&storeOp{keys: []symbol.Key{key}, mode: modeTake, block: true, token: token, cancel: cancel}, nil, nil)
	return out, err
}

// GetSkip removes and returns a memo if one is present. A non-nil error
// reports a durable store whose log has died: the take is rolled back and
// the caller sees the failure instead of a forever-empty folder.
//
//memolint:must-check-error
func (s *Store) GetSkip(key symbol.Key) ([]byte, bool, error) {
	_, out, ok, err := s.run(&storeOp{keys: []symbol.Key{key}, mode: modeTake}, nil, nil)
	return out, ok, err
}

// occupancy is what one walk of the stripes counts, each under its lock.
type occupancy struct {
	// folders counts live (non-vanished) folders, memos visible memos.
	folders, memos int
	// delayed counts hidden put_delayed values, releases in flight included.
	delayed int
	// waiters counts waiter registrations (one blocked multi-folder scan
	// may register on several folders).
	waiters int
}

// occupancy walks every stripe under its lock, handing each stripe's counts
// to shard (if non-nil), and returns the totals: the folder_* occupancy
// gauges, and what the tests read of the directory.
func (s *Store) occupancy(shard func(i int, o occupancy)) occupancy {
	var total occupancy
	for i := range s.shards {
		sh := &s.shards[i]
		var o occupancy
		sh.mu.Lock()
		o.folders = len(sh.folders)
		for _, f := range sh.folders {
			o.memos += len(f.items)
			o.delayed += len(f.delayed)
			o.waiters += len(f.waiters)
		}
		sh.mu.Unlock()
		if shard != nil {
			shard(i, o)
		}
		total.folders += o.folders
		total.memos += o.memos
		total.delayed += o.delayed
		total.waiters += o.waiters
	}
	return total
}
