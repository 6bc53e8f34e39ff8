package folder

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"repro/internal/durable"
	"repro/internal/symbol"
)

// OpenStore opens a durable Store backed by the write-ahead log in dir,
// replaying any recovered state (visible memos, still-hidden put_delayed
// values, and applied dedup tokens) before the first operation is accepted.
// The directory is created on first use. Every mutating operation on the
// returned store is acknowledged only after its record is committed per
// dcfg's sync mode, and the store snapshots + truncates the log in the
// background as records accumulate.
func OpenStore(dir string, dcfg durable.Config, opts ...Option) (*Store, error) {
	s := NewStore(opts...)
	lg, err := durable.Open(dir, s.ShardCount(), dcfg, s.applyRecord)
	if err != nil {
		return nil, fmt.Errorf("folder: open store %s: %w", dir, err)
	}
	s.wal = lg
	return s, nil
}

// Log exposes the durability engine (diagnostics and tests); nil on a
// memory-only store.
func (s *Store) Log() *durable.Log { return s.wal }

// Close flushes and closes the write-ahead log. Pending operation commits
// complete durable first. A memory-only store closes trivially.
//
// Close joins an in-flight background snapshot cycle before closing the
// log: the orderly-shutdown contract is that no goroutine is still writing
// into the data directory when Close returns. (Replay re-arms the snapshot
// counter, so a freshly reopened store's first commit can fire a cycle
// moments before Close — exactly the race this wait closes.) Concurrent
// mutating operations during Close remain the caller's responsibility;
// Crash deliberately does not wait, matching its SIGKILL semantics.
func (s *Store) Close() error {
	if s.wal == nil {
		return nil
	}
	for s.snapshotting.Load() {
		time.Sleep(time.Millisecond)
	}
	return s.wal.Close()
}

// Crash abandons buffered-but-uncommitted log records and slams the log
// shut — the in-process stand-in for SIGKILL, used by the crash-recovery
// harness. Acknowledged operations survive in the log; unacknowledged ones
// fail their commit and are rolled back or reported to the caller.
func (s *Store) Crash() {
	if s.wal != nil {
		s.wal.Crash()
	}
}

// applyRecord replays one recovered record. Replay runs before the store is
// published, but it takes the shard locks anyway — they are uncontended and
// keep the mutation paths uniform. Replay rebuilds state only: the
// operation counters (Stats) stay zero, so a restarted store reports what
// happened in this incarnation, not its entire logged history.
func (s *Store) applyRecord(rec *durable.Record) error {
	switch rec.Type {
	case durable.RecPut:
		canon := rec.Key.Canon()
		sh := s.shardFor(rec.Key)
		sh.mu.Lock()
		f := sh.getFold(canon)
		f.items = append(f.items, bytes.Clone(rec.Payload))
		// Deliberately NOT clearing f.delayed, although the live put
		// released those entries: each entry is removed only by its own
		// RecRelease record, logged once its re-deposit was safe. An entry
		// that survives here is re-released by the next trigger put, and
		// its release token deduplicates the delivery if the first one
		// actually landed.
		if rec.Token != 0 {
			s.tokens.note(rec.Token)
		}
		sh.mu.Unlock()
	case durable.RecPutDelayed:
		canon := rec.Key.Canon()
		sh := s.shardFor(rec.Key)
		sh.mu.Lock()
		f := sh.getFold(canon)
		f.delayed = append(f.delayed, delayedEntry{val: bytes.Clone(rec.Payload), dest: rec.Dest.Clone(), rel: rec.Rel})
		if rec.Token != 0 {
			s.tokens.note(rec.Token)
		}
		sh.mu.Unlock()
	case durable.RecRelease:
		canon := rec.Key.Canon()
		sh := s.shardFor(rec.Key)
		sh.mu.Lock()
		if f, ok := sh.folders[canon]; ok {
			for i := range f.delayed {
				if f.delayed[i].rel == rec.Token {
					f.delayed = append(f.delayed[:i], f.delayed[i+1:]...)
					break
				}
			}
			// A missing entry is legal: a snapshot cut between the
			// in-memory release and the RecRelease append dumps the folder
			// without the entry, and the release record lands in the next
			// generation.
			sh.gcFold(canon, f)
		}
		sh.mu.Unlock()
	case durable.RecTake:
		canon := rec.Key.Canon()
		sh := s.shardFor(rec.Key)
		sh.mu.Lock()
		f, ok := sh.folders[canon]
		found := false
		if ok {
			for i := range f.items {
				if bytes.Equal(f.items[i], rec.Payload) {
					f.removeAt(i)
					found = true
					break
				}
			}
			sh.gcFold(canon, f)
		}
		if found && rec.Token != 0 {
			// A tokened take: re-cache its result so a post-crash retry is
			// answered from the cache instead of consuming a second memo.
			s.tokens.noteTakeCache(rec.Token, &takeResult{
				key:   rec.Key.Clone(),
				data:  append([]byte(nil), rec.Payload...),
				shard: int(s.shardIndex(rec.Key)),
			})
		}
		sh.mu.Unlock()
		if !found {
			// Per-folder record order guarantees the put replays before its
			// take; a miss is corruption, not a tolerable anomaly.
			return fmt.Errorf("%w: take of %v finds no matching memo", durable.ErrCorrupt, rec.Key)
		}
	case durable.RecToken:
		s.tokens.note(rec.Token)
	case durable.RecTakeCache:
		res := &takeResult{key: rec.Key.Clone(), empty: rec.Empty, shard: int(s.shardIndex(rec.Key))}
		if !rec.Empty {
			res.data = append([]byte(nil), rec.Payload...)
		}
		s.tokens.noteTakeCache(rec.Token, res)
	default:
		return fmt.Errorf("%w: unexpected record type %v", durable.ErrCorrupt, rec.Type)
	}
	return nil
}

// maybeSnapshot starts a background snapshot + truncation cycle when enough
// records have accumulated. Single-flight; failures leave the log serving
// (the rotated stripes simply carry more history until the next attempt).
func (s *Store) maybeSnapshot() {
	if s.wal == nil || !s.wal.ShouldSnapshot() {
		return
	}
	if !s.snapshotting.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer s.snapshotting.Store(false)
		_ = s.snapshot()
	}()
}

// snapshot cuts every shard under its own lock — the store pauses one shard
// at a time, never globally — then commits the snapshot, truncating all
// superseded log generations.
func (s *Store) snapshot() error {
	snap, err := s.wal.StartSnapshot()
	if err != nil {
		return err
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		err := snap.CutShard(i, func(emit func(*durable.Record) error) error {
			return dumpShard(sh, emit)
		})
		sh.mu.Unlock()
		if err != nil {
			snap.Abort()
			return err
		}
	}
	// The token table is global, not per-shard; dump it after every cut so
	// a token noted before its shard's cut is never lost (one noted after
	// rides in the new generation's records, and double-noting is
	// idempotent). Take results resolve under their shard's lock, so the
	// same cut/dump ordering covers them: a result published before its
	// shard's cut is visible here; one published after rides in the new
	// generation's tokened RecTake. In-progress take claims have applied
	// nothing yet and are deliberately not dumped. The dump is streamed in
	// bounded chunks, the table unlocked between them, and every chunk runs
	// after every cut, so the argument holds chunk by chunk: a token noted
	// after its chunk was copied is in the new generation's log, and an entry
	// evicted before its chunk is one the table has forgotten anyway.
	var rec durable.Record // one record reused for the whole dump: nothing allocated per token
	err = s.tokens.stream(func(chunk []tokenDump) error {
		for _, d := range chunk {
			rec = durable.Record{Type: durable.RecToken, Token: d.tok}
			if d.res != nil {
				rec = durable.Record{
					Type: durable.RecTakeCache, Token: d.tok,
					Key: d.res.key, Payload: d.res.data, Empty: d.res.empty,
				}
			}
			if err := snap.AppendRecord(&rec); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		snap.Abort()
		return err
	}
	return snap.Commit()
}

// dumpShard emits one shard's state as compacted records: per folder the
// visible items then the hidden delayed values. Replay order does not
// matter: a replayed put deliberately leaves the folder's delayed list alone
// (see applyRecord). Caller holds the shard lock.
func dumpShard(sh *shard, emit func(*durable.Record) error) error {
	var rec durable.Record // reused: the dump allocates per folder (its key), not per memo
	for canon, f := range sh.folders {
		key, err := symbol.ParseCanon(canon)
		if err != nil {
			return fmt.Errorf("%w: unparseable folder key %q", durable.ErrCorrupt, canon)
		}
		for _, it := range f.items {
			rec = durable.Record{Type: durable.RecPut, Key: key, Payload: it}
			if err := emit(&rec); err != nil {
				return err
			}
		}
		for _, d := range f.delayed {
			rec = durable.Record{
				Type: durable.RecPutDelayed, Key: key, Dest: d.dest, Payload: d.val,
				Rel: d.rel,
			}
			if err := emit(&rec); err != nil {
				return err
			}
		}
	}
	return nil
}

// takeResult is a consumed take's cached outcome: the satisfied key and a
// private payload copy (or an observed-empty miss). shard names the stripe
// whose log carries the take record, so a cache hit can wait on that
// stripe's durability barrier before acknowledging.
type takeResult struct {
	key   symbol.Key
	data  []byte
	empty bool
	shard int
}

// tokEntry is one applied (or in-flight) dedup token. Three states:
//   - put token: done == nil, res == nil — presence alone is the answer.
//   - in-progress take claim: done != nil, res == nil — the claiming take
//     is still executing; retries park on done instead of taking again.
//   - resolved take: res != nil (done closed, or nil after replay) — the
//     cached result answers retries.
type tokEntry struct {
	// done, when non-nil, is closed exactly once: when the claiming take
	// resolves (res published first) or abandons (entry removed first).
	done chan struct{}
	// res is the take's cached outcome; guarded by the table lock.
	res *takeResult
}

// tokenTable is the at-most-once dedup table: applied put tokens and
// consumed-take results, bounded by FIFO eviction. Its lock nests strictly
// inside a Store shard lock: noteIfNew and resolveTake are only called
// while the tokened op's target shard is locked, which serializes a retry
// against its original and orders results against snapshot cuts.
type tokenTable struct {
	mu   sync.Mutex
	cap  int
	set  map[uint64]*tokEntry
	fifo []uint64
	head int
	// base counts the fifo entries compaction has dropped from the front:
	// fifo[i] is the table's (base+i)-th insertion ever, a position that
	// stays put while the slice is compacted under a streaming dump.
	base uint64
}

// noteIfNew records tok and reports whether it was new — one acquisition
// for the check-and-note a tokened put performs, keeping the global table
// a single short critical section nested inside the shard lock.
func (t *tokenTable) noteIfNew(tok uint64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.noteLocked(tok)
}

func (t *tokenTable) note(tok uint64) {
	if tok == 0 {
		return
	}
	t.mu.Lock()
	t.noteLocked(tok)
	t.mu.Unlock()
}

func (t *tokenTable) noteLocked(tok uint64) bool {
	if _, ok := t.lookupLocked(tok); ok {
		return false
	}
	t.insertLocked(tok, &tokEntry{})
	return true
}

func (t *tokenTable) lookupLocked(tok uint64) (*tokEntry, bool) {
	if t.set == nil {
		t.set = make(map[uint64]*tokEntry)
	}
	e, ok := t.set[tok]
	return e, ok
}

// insertLocked adds a new entry, evicting oldest-first past the cap. An
// evicted in-progress claim still resolves through its own entry pointer —
// eviction only forgets the token for future retries.
func (t *tokenTable) insertLocked(tok uint64, e *tokEntry) {
	t.set[tok] = e
	t.fifo = append(t.fifo, tok)
	if len(t.set) > t.cap && t.cap > 0 {
		delete(t.set, t.fifo[t.head])
		t.fifo[t.head] = 0
		t.head++
		if t.head > len(t.fifo)/2 && t.head > 1024 {
			t.base += uint64(t.head)
			t.fifo = append([]uint64(nil), t.fifo[t.head:]...)
			t.head = 0
		}
	}
}

// claimTake installs an in-progress claim for tok if it is unseen and
// reports whether the caller became the owner (and must later resolve or
// abandon the claim). A false return hands back whatever entry already
// holds the token.
func (t *tokenTable) claimTake(tok uint64) (*tokEntry, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e, ok := t.lookupLocked(tok); ok {
		return e, false
	}
	e := &tokEntry{done: make(chan struct{})}
	t.insertLocked(tok, e)
	return e, true
}

// resolveTake publishes the claimed take's result and wakes parked retries.
// Called under the taken shard's lock — the same critical section that
// removed the item and appended its RecTake — so a snapshot cut of that
// shard either sees the result (dumped as RecTakeCache) or precedes the
// take entirely (its record rides in the new generation).
func (t *tokenTable) resolveTake(e *tokEntry, res *takeResult) {
	t.mu.Lock()
	e.res = res
	t.mu.Unlock()
	close(e.done)
}

// abandonTake drops an unresolved claim (canceled, or its commit failed and
// the take was rolled back) so a later retry re-executes instead of caching
// a non-answer. Parked retries wake and race to re-claim.
func (t *tokenTable) abandonTake(tok uint64, e *tokEntry) {
	t.mu.Lock()
	if cur, ok := t.set[tok]; ok && cur == e {
		delete(t.set, tok)
	}
	t.mu.Unlock()
	close(e.done)
}

// forget removes tok outright — the failed-commit path, where the take was
// already resolved but then rolled back by untake. Only a terminally dead
// log gets here; stale holders of the entry fail their durability barrier.
func (t *tokenTable) forget(tok uint64) {
	t.mu.Lock()
	delete(t.set, tok)
	t.mu.Unlock()
}

// result reads e's published outcome (nil for put tokens and abandoned
// claims).
func (t *tokenTable) result(e *tokEntry) *takeResult {
	t.mu.Lock()
	defer t.mu.Unlock()
	return e.res
}

// noteTakeCache records a recovered take result (replay path — no waiters
// exist yet). A bare RecToken note for the same token is upgraded in place.
func (t *tokenTable) noteTakeCache(tok uint64, res *takeResult) {
	if tok == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if e, ok := t.lookupLocked(tok); ok {
		if e.res == nil && e.done == nil {
			e.res = res
		}
		return
	}
	t.insertLocked(tok, &tokEntry{res: res})
}

// newRelToken mints a non-zero release token for a hidden delayed value.
func newRelToken() uint64 {
	for {
		if t := rand.Uint64(); t != 0 {
			return t
		}
	}
}

// tokenDump is one live token for a snapshot: res is nil for a plain put
// token, the cached outcome for a resolved take.
type tokenDump struct {
	tok uint64
	res *takeResult
}

// dumpChunk is how many live tokens a streaming dump copies per acquisition
// of the table lock.
const dumpChunk = 1024

// stream hands emit the live tokens oldest-first (for snapshots), dumpChunk
// at a time, holding the table lock only while a chunk is copied — never
// while it is emitted — so tokened operations stall for a chunk, not for the
// table. It covers the entries present when it starts: later ones belong to
// the caller's next generation. In-progress take claims are skipped: they
// have applied nothing yet, and their eventual RecTake lands in the post-cut
// generation. emit must not retain the chunk.
func (t *tokenTable) stream(emit func(chunk []tokenDump) error) error {
	var chunk [dumpChunk]tokenDump
	t.mu.Lock()
	pos, end := t.base+uint64(t.head), t.base+uint64(len(t.fifo))
	t.mu.Unlock()
	for pos < end {
		n := 0
		t.mu.Lock()
		pos = max(pos, t.base+uint64(t.head)) // evicted meanwhile: forgotten
		for ; pos < end && n < len(chunk); pos++ {
			tok := t.fifo[pos-t.base]
			e, ok := t.set[tok]
			if !ok || (e.done != nil && e.res == nil) {
				continue // forgotten, or an in-progress claim
			}
			chunk[n] = tokenDump{tok: tok, res: e.res}
			n++
		}
		t.mu.Unlock()
		if err := emit(chunk[:n]); err != nil {
			return err
		}
	}
	return nil
}

// Tokens reports the live dedup-token count (diagnostics and tests).
func (s *Store) Tokens() int {
	s.tokens.mu.Lock()
	defer s.tokens.mu.Unlock()
	return len(s.tokens.set)
}
